// fleetbench: drives FleetService and SecuredWorksite from outside over
// two workloads and prints one JSON result line.
//
//   fleetbench --workload campaign|soak --seed N --seconds S --trace 0|1
//   fleetbench --workload campaign|soak --seed N --seconds S --setup-only 1
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced with the same seed and length, checks that both
// export the same digest, and reports the per-layer metrics plus the
// tracing overhead. Lines "export_digest=<hex>" and "canary_digest=<hex>"
// precede the result. --setup-only stops after set-up and prints only
// "setup_s=<seconds>".
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "harness/bench.h"
#include "harness/helpers.h"

namespace fleetbench {
std::uint64_t g_process_start_ns = now_ns();
}  // namespace fleetbench

using namespace fleetbench;

namespace {

// Everything else a run measures is reported by --trace 1 as a per-layer
// figure.
const std::set<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "sessions_per_s", "session_steps_per_s"};

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload campaign|soak --seed N --seconds S "
               "(--trace 0|1 | --setup-only 1)\n");
  return 2;
}

Report run(const std::string& workload, const RunOptions& options, LayerProbe* probe) {
  return workload == "campaign" ? run_campaign(options, probe) : run_soak(options, probe);
}

/// Untraced over traced headline throughput (>1 = tracing slowed the
/// workload down).
double trace_overhead(const std::string& workload, const Report& plain, const Report& traced) {
  const char* name = workload == "campaign" ? "sessions_per_s" : "session_steps_per_s";
  const double* a = plain.find(name);
  const double* b = traced.find(name);
  return a == nullptr || b == nullptr || *b <= 0 ? 0.0 : *a / *b;
}

void print_result(const Report& report, bool per_layer) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if ((kEndToEnd.count(name) != 0) == per_layer) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value.first, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--setup-only") {
      options.setup_only = std::atoi(value) == 1;
    } else {
      return usage();
    }
  }
  const bool bad_mode = options.setup_only ? trace != -1 : (trace != 0 && trace != 1);
  if ((workload != "campaign" && workload != "soak") || options.seconds < 1 || bad_mode) {
    return usage();
  }

  Report result;
  if (options.setup_only) {
    result = run(workload, options, nullptr);
    for (const auto& error : result.errors) std::fprintf(stderr, "fleetbench: %s\n", error.c_str());
    if (!result.correct) return 1;
    std::printf("setup_s=%.17g\n", *result.find("setup_s"));
    return 0;
  }
  if (trace == 0) {
    result = run(workload, options, nullptr);
  } else {
    const Report plain = run(workload, options, nullptr);
    LayerProbe probe;
    result = run(workload, options, &probe);
    probe.finish(result);
    result.check(plain.correct, "untraced pass failed its checks");
    result.check(plain.digest == result.digest,
                 "traced run exported a different digest than the untraced run");
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    // Measured without the probe's overhead.
    if (const double* v = plain.find("session_create_ms_p50")) {
      std::erase_if(result.metrics,
                    [](const auto& m) { return m.first == "session_create_ms_p50"; });
      result.put("session_create_ms_p50", *v, "ms");
    }
    result.put("harness.trace_overhead", trace_overhead(workload, plain, result), "ratio");
  }
  for (const auto& error : result.errors) std::fprintf(stderr, "fleetbench: %s\n", error.c_str());
  std::printf("export_digest=%s\n", hex64(result.digest).c_str());
  std::printf("canary_digest=%s\n", hex64(result.canary_digest).c_str());
  print_result(result, trace == 1);
  std::fflush(stdout);
  return 0;
}
