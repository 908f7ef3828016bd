#include "obs/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <system_error>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace agrarsec::obs {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Embeds a JSONL blob as a JSON array of raw object lines.
void append_jsonl_as_array(std::string& out, const std::string& jsonl) {
  out.push_back('[');
  bool first = true;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t nl = jsonl.find('\n', pos);
    if (nl == std::string::npos) nl = jsonl.size();
    if (nl > pos) {
      if (!first) out.push_back(',');
      first = false;
      out.append(jsonl, pos, nl - pos);
    }
    pos = nl + 1;
  }
  out.push_back(']');
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : recorder_(config.flight_capacity) {}

std::string Telemetry::deterministic_json() const {
  // Wall-clock instruments (kWallPrefix) are timing-dependent; keep them
  // out of the export the cross-thread-count parity checks compare.
  std::string out = "{\"metrics\":";
  out += registry_.to_json(kWallPrefix);
  out += ",\"flight\":";
  append_jsonl_as_array(out, recorder_.to_jsonl());
  out += ",\"flight_total\":" + std::to_string(recorder_.total_recorded());
  out += ",\"flight_dropped\":" + std::to_string(recorder_.dropped());
  out.push_back('}');
  return out;
}

std::string Telemetry::to_json() const {
  std::string out = "{\"metrics\":";
  out += registry_.to_json();
  out += ",\"flight\":";
  append_jsonl_as_array(out, recorder_.to_jsonl());
  out += ",\"flight_total\":" + std::to_string(recorder_.total_recorded());
  out += ",\"flight_dropped\":" + std::to_string(recorder_.dropped());
  out += ",\"phases\":{";
  bool first = true;
  for (PhaseId id = 0; id < tracer_.phase_count(); ++id) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, tracer_.phase_name(id));
    const Tracer::PhaseStats& s = tracer_.stats(id);
    out += ":{\"calls\":" + std::to_string(s.calls);
    out += ",\"total_ns\":" + std::to_string(s.total_ns);
    out += ",\"max_ns\":" + std::to_string(s.max_ns);
    out.push_back('}');
  }
  out += "},\"shard_busy_ns\":[";
  for (std::size_t s = 0; s < tracer_.shard_count(); ++s) {
    if (s != 0) out.push_back(',');
    out += std::to_string(tracer_.shard_busy_ns(s));
  }
  out += "],\"wall_annex\":";
  append_jsonl_as_array(out, recorder_.wall_annex_jsonl());
  out.push_back('}');
  return out;
}

bool Telemetry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

core::EventBus::Subscription wire_event_bus(core::EventBus& bus, Telemetry& telemetry) {
  // Handle cache lives in the handler closure; the registry owns the
  // counters themselves, so the cached pointers stay valid.
  auto cache = std::make_shared<std::unordered_map<std::string, Counter*>>();
  Counter& total = telemetry.registry().counter("bus.events");
  Registry* registry = &telemetry.registry();
  return bus.subscribe_all(
      [cache, &total, registry](const core::Event& event) {
        total.add();
        auto it = cache->find(event.topic);
        if (it == cache->end()) {
          Counter& c = registry->counter("bus.topic." + event.topic);
          it = cache->emplace(event.topic, &c).first;
        }
        it->second->add();
      });
}

Telemetry& global() {
  static Telemetry instance;
  return instance;
}

namespace {
std::string& artifact_dir_override() {
  static std::string dir;
  return dir;
}
}  // namespace

std::string artifact_dir() {
  if (!artifact_dir_override().empty()) return artifact_dir_override();
  if (const char* env = std::getenv("AGRARSEC_ARTIFACT_DIR");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef AGRARSEC_DEFAULT_ARTIFACT_DIR
  return AGRARSEC_DEFAULT_ARTIFACT_DIR;
#else
  return ".";
#endif
}

void set_artifact_dir(std::string dir) {
  artifact_dir_override() = std::move(dir);
}

std::string artifact_path(const std::string& filename) {
  const std::string dir = artifact_dir();
  if (dir.empty() || dir == ".") return filename;
  std::error_code ec;  // best effort: write_json reports the real failure
  std::filesystem::create_directories(dir, ec);
  return dir + "/" + filename;
}

bool consume_artifact_dir_flag(int& argc, char** argv) {
  constexpr std::string_view kFlag = "--artifact-dir";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string dir;
    int consumed = 0;
    if (arg.rfind(kFlag, 0) == 0 && arg.size() > kFlag.size() &&
        arg[kFlag.size()] == '=') {
      dir = arg.substr(kFlag.size() + 1);
      consumed = 1;
    } else if (arg == kFlag && i + 1 < argc) {
      dir = argv[i + 1];
      consumed = 2;
    }
    if (consumed == 0) continue;
    set_artifact_dir(std::move(dir));
    for (int j = i + consumed; j < argc; ++j) argv[j - consumed] = argv[j];
    argc -= consumed;
    return true;
  }
  return false;
}

bool write_bench_artifact(const Telemetry& telemetry, const std::string& bench_name) {
  return telemetry.write_json(artifact_path(bench_name + ".telemetry.json"));
}

BenchArtifact::BenchArtifact(std::string name, Telemetry* telemetry)
    : name_(std::move(name)),
      telemetry_(telemetry != nullptr ? telemetry : &global()),
      start_ns_(Tracer::now_ns()) {}

BenchArtifact::~BenchArtifact() {
  const double seconds =
      static_cast<double>(Tracer::now_ns() - start_ns_) / 1e9;
  telemetry_->registry().gauge("bench.wall_seconds").set(seconds);
  write_bench_artifact(*telemetry_, name_);
}

}  // namespace agrarsec::obs
