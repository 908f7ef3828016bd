#!/usr/bin/env python3
"""Source-level determinism lint for the simulation/service/observability tree.

The repo's replay and semantic-diff gates depend on src/sim, src/service,
src/obs, src/net and src/integration being bit-deterministic for a pinned
(config, seed) (src/net's transport loop is wall-side, but its deadlines
must use the annotated "wall." convention so accidental clock reads cannot
leak into exports; src/integration's SecuredWorksite is the full-stack
session step the golden exports pin). This lint flags the source patterns
that historically break that property:

  DL001  wall-clock reads: std::chrono::system_clock anywhere; std::time /
         gettimeofday / localtime; steady_clock outside wall-instrumented
         files (a file is wall-instrumented when it or its .h/.cpp sibling
         mentions "wall" — the trace/telemetry timing layer).
  DL002  ambient randomness: rand()/srand()/std::random_device instead of
         the seeded core::Rng.
  DL003  range-for iteration over a std::unordered_* container declared in
         the same file — iteration order is implementation-defined, so any
         export or accumulation driven by it is nondeterministic.

Findings are suppressed by .determinism-lint-baseline.json (keys are
"RULE path symbol", line-number free so they survive unrelated edits);
stale suppressions are warned. Mirrors the agrarsec-lint workflow:

    python3 scripts/determinism_lint.py --write-baseline   # bless
    python3 scripts/determinism_lint.py                    # gate (CI)

Exit codes: 0 = clean (or baseline written), 1 = findings above the
baseline, 2 = usage/IO error.
"""

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src/sim", "src/service", "src/obs", "src/net", "src/integration")
BASELINE_PATH = REPO_ROOT / ".determinism-lint-baseline.json"

WALL_CLOCK_PATTERNS = (
    (r"std::chrono::system_clock", "system_clock"),
    (r"\bgettimeofday\b", "gettimeofday"),
    (r"\bstd::time\s*\(", "std::time"),
    (r"\blocaltime\b|\bgmtime\b", "localtime"),
)
STEADY_CLOCK_RE = re.compile(r"steady_clock")
RANDOM_PATTERNS = (
    (r"\bstd::rand\b|(?<![\w:])rand\s*\(\s*\)", "rand"),
    (r"\bsrand\s*\(", "srand"),
    (r"std::random_device", "random_device"),
)
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*&?\s*(?:this->)?(\w+)\s*\)")
COMMENT_RE = re.compile(r"//.*$")


def is_wall_instrumented(path: pathlib.Path) -> bool:
    """A file (or its header/impl sibling) that names "wall" is the timing
    instrumentation layer and may legitimately read the monotonic clock."""
    candidates = [path]
    for suffix in (".h", ".cpp"):
        sibling = path.with_suffix(suffix)
        if sibling != path and sibling.exists():
            candidates.append(sibling)
    return any(re.search(r"\bwall\b", c.read_text(encoding="utf-8"),
                         re.IGNORECASE) for c in candidates)


def lint_file(path: pathlib.Path):
    """Yields (rule, relpath, symbol, line_number, line_text)."""
    rel = path.relative_to(REPO_ROOT).as_posix()
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    wall_ok = is_wall_instrumented(path)
    unordered_names = set(UNORDERED_DECL_RE.findall(text))

    for number, raw in enumerate(lines, start=1):
        line = COMMENT_RE.sub("", raw)
        if "NOLINT(determinism)" in raw:
            continue
        for pattern, symbol in WALL_CLOCK_PATTERNS:
            if re.search(pattern, line):
                yield ("DL001", rel, symbol, number, raw.strip())
        if not wall_ok and STEADY_CLOCK_RE.search(line):
            yield ("DL001", rel, "steady_clock", number, raw.strip())
        for pattern, symbol in RANDOM_PATTERNS:
            if re.search(pattern, line):
                yield ("DL002", rel, symbol, number, raw.strip())
        match = RANGE_FOR_RE.search(line)
        if match and match.group(1) in unordered_names:
            yield ("DL003", rel, match.group(1), number, raw.strip())


def collect_findings(root: pathlib.Path):
    findings = []
    for directory in SCAN_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".cpp"):
                findings.extend(lint_file(path))
    return findings


def finding_key(finding) -> str:
    rule, rel, symbol, _, _ = finding
    return f"{rule} {rel} {symbol}"


def load_baseline(path: pathlib.Path):
    if not path.exists():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != 1 or not isinstance(data.get("suppressions"), list):
        raise ValueError(f"{path}: unrecognized baseline format")
    return set(data["suppressions"])


def write_baseline(path: pathlib.Path, findings) -> None:
    keys = sorted({finding_key(f) for f in findings})
    path.write_text(
        json.dumps({"version": 1, "suppressions": keys}, indent=2) + "\n",
        encoding="utf-8")


SELF_TEST_CASES = (
    ("auto t = std::chrono::system_clock::now();", "DL001"),
    ("int r = rand();", "DL002"),
    ("std::random_device rd;", "DL002"),
    ("std::unordered_map<int, int> m_;\nfor (auto& kv : m_) export_row(kv);",
     "DL003"),
)


def self_test() -> int:
    import tempfile
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for index, (snippet, expected_rule) in enumerate(SELF_TEST_CASES):
            sample = root / f"case{index}.cpp"
            sample.write_text(snippet + "\n", encoding="utf-8")
            rules = {f[0] for f in lint_file_at(sample, root)}
            if expected_rule not in rules:
                print(f"self-test: case {index} expected {expected_rule}, "
                      f"got {sorted(rules)}", file=sys.stderr)
                failures += 1
        # Negative: seeded Rng and ordered iteration are clean.
        clean = root / "clean.cpp"
        clean.write_text(
            "core::Rng rng{seed};\nstd::map<int,int> m_;\n"
            "for (auto& kv : m_) use(kv);\n", encoding="utf-8")
        if lint_file_at(clean, root):
            print("self-test: clean snippet produced findings", file=sys.stderr)
            failures += 1
        # Negative: a wall-instrumented file may read steady_clock.
        timed = root / "timer.cpp"
        timed.write_text(
            "// wall clock sampling layer\n"
            "auto t = std::chrono::steady_clock::now();\n", encoding="utf-8")
        if lint_file_at(timed, root):
            print("self-test: wall-instrumented steady_clock flagged",
                  file=sys.stderr)
            failures += 1
    print("determinism_lint self-test: "
          + ("PASS" if failures == 0 else f"{failures} FAILURES"))
    return 0 if failures == 0 else 1


def lint_file_at(path: pathlib.Path, root: pathlib.Path):
    """lint_file with relpaths computed against `root` (self-test helper)."""
    global REPO_ROOT
    saved = REPO_ROOT
    REPO_ROOT = root
    try:
        return list(lint_file(path))
    finally:
        REPO_ROOT = saved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE_PATH)
    parser.add_argument("--write-baseline", action="store_true",
                        help="bless current findings into the baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = collect_findings(REPO_ROOT)
    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"determinism_lint: wrote {len(findings)} suppressions to "
              f"{args.baseline}")
        return 0

    try:
        suppressed = load_baseline(args.baseline)
    except (ValueError, json.JSONDecodeError) as error:
        print(f"determinism_lint: {error}", file=sys.stderr)
        return 2

    live = [f for f in findings if finding_key(f) not in suppressed]
    used = {finding_key(f) for f in findings}
    for stale in sorted(suppressed - used):
        print(f"determinism_lint: stale baseline entry: {stale}",
              file=sys.stderr)

    for rule, rel, symbol, number, text in live:
        print(f"{rel}:{number}: {rule} [{symbol}] {text}")
    if live:
        print(f"determinism_lint: {len(live)} finding(s) above baseline",
              file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({len(findings)} suppressed, "
          f"{len(suppressed)} baselined)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
