#include "service/fleet_service.h"

#include "core/rng.h"

namespace agrarsec::service {

namespace {
/// fork_stream domain for session-seed derivation ("FLEET"): disjoint
/// from every per-entity domain the worksite uses, so a derived session
/// seed never correlates with any entity stream of any session.
constexpr std::uint64_t kSessionSeedDomain = 0x464C454554ULL;
}  // namespace

FleetService::FleetService(FleetServiceConfig config) : config_(config) {
  telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  obs::Registry& reg = telemetry_->registry();
  c_created_ = &reg.counter("fleet.sessions_created");
  c_destroyed_ = &reg.counter("fleet.sessions_destroyed");
  c_session_steps_ = &reg.counter("fleet.session_steps");
  g_active_ = &reg.gauge("fleet.sessions_active");
  // "wall." prefix: timing histogram, full artifact (/metrics) only —
  // excluded from the deterministic view like the worksite step timer.
  h_batch_wall_ = &reg.histogram("wall.fleet_batch_us", 0.0, 100000.0, 20);
  ph_batch_ = telemetry_->tracer().phase("fleet.step_batch");

  if (config_.threads != 1) {
    pool_ = std::make_unique<core::ThreadPool>(config_.threads);
    // Observation-only busy-time tap into per-shard tracer lanes, so the
    // concurrent callbacks never share an accumulator.
    pool_->set_shard_observer([this](std::size_t shard, std::uint64_t busy_ns) {
      telemetry_->tracer().add_shard_busy(shard, busy_ns);
    });
  }
  telemetry_->tracer().ensure_shards(shard_count());
}

FleetService::~FleetService() = default;

std::size_t FleetService::shard_count() const {
  return pool_ ? pool_->shard_count() : 1;
}

std::uint64_t FleetService::derive_session_seed(std::uint64_t fleet_seed,
                                                std::uint64_t key) {
  return core::Rng::fork_stream(fleet_seed, kSessionSeedDomain, key).next_u64();
}

SessionId FleetService::insert_session(integration::SecuredWorksiteConfig config) {
  // Its SecuredWorksite allocates its own telemetry from
  // config.telemetry, so sessions share nothing observable — that
  // isolation is the determinism contract.
  config.worksite.telemetry = nullptr;

  const std::lock_guard<std::mutex> lock(mu_);
  const SessionId id = next_id_++;
  auto session = std::make_unique<Session>();
  session->id = id;
  session->site = std::make_unique<integration::SecuredWorksite>(std::move(config));
  sessions_.emplace(id, std::move(session));

  c_created_->add();
  g_active_->set(static_cast<double>(sessions_.size()));
  telemetry_->recorder().record(0, "fleet", "session-created", id);
  return id;
}

SessionId FleetService::create_session(integration::SecuredWorksiteConfig config) {
  return insert_session(std::move(config));
}

SessionId FleetService::create_session_keyed(
    integration::SecuredWorksiteConfig config, std::uint64_t key) {
  config.seed = derive_session_seed(config_.fleet_seed, key);
  return insert_session(std::move(config));
}

bool FleetService::destroy_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  retired_steps_ += it->second->steps;
  sessions_.erase(it);
  c_destroyed_->add();
  g_active_->set(static_cast<double>(sessions_.size()));
  telemetry_->recorder().record(0, "fleet", "session-destroyed", id);
  return true;
}

void FleetService::step_all(std::uint64_t steps) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (paused_.load(std::memory_order_relaxed)) return;
  step_batch_locked(steps);
}

void FleetService::step_batch_locked(std::uint64_t steps) {
  if (steps == 0 || sessions_.empty()) return;
  const std::uint64_t batch_start_ns = obs::Tracer::now_ns();
  batch_.clear();
  for (auto& [id, session] : sessions_) batch_.push_back(session.get());

  obs::Tracer::Span span{telemetry_->tracer(), ph_batch_};
  const auto body = [this, steps](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      Session& session = *batch_[i];
      // The whole session steps on this shard: no other thread touches
      // any of its state for the duration of the batch.
      for (std::uint64_t s = 0; s < steps; ++s) session.site->step();
      session.steps += steps;
    }
  };
  if (pool_) {
    pool_->parallel_for(batch_.size(), body);
  } else {
    body(0, batch_.size(), 0);
  }
  // Serial again: the service registry has one writer.
  c_session_steps_->add(steps * batch_.size());
  h_batch_wall_->add(
      static_cast<double>(obs::Tracer::now_ns() - batch_start_ns) / 1000.0);
}

bool FleetService::step_session(SessionId id, std::uint64_t steps) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  if (paused_.load(std::memory_order_relaxed)) return true;
  Session& session = *it->second;
  for (std::uint64_t s = 0; s < steps; ++s) session.site->step();
  session.steps += steps;
  c_session_steps_->add(steps);
  return true;
}

std::size_t FleetService::session_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<SessionId> FleetService::session_ids() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

integration::SecuredWorksite* FleetService::session(SessionId id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second->site.get();
}

const integration::SecuredWorksite* FleetService::session(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second->site.get();
}

std::uint64_t FleetService::session_steps(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second->steps;
}

std::uint64_t FleetService::total_session_steps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = retired_steps_;
  for (const auto& [id, session] : sessions_) total += session->steps;
  return total;
}

integration::SecurityMetrics FleetService::aggregate_security_metrics() const {
  const std::lock_guard<std::mutex> lock(mu_);
  integration::SecurityMetrics total;
  for (const auto& [id, session] : sessions_) {
    const integration::SecurityMetrics m = session->site->security_metrics();
    total.detection_reports_sent += m.detection_reports_sent;
    total.detection_reports_accepted += m.detection_reports_accepted;
    total.detection_reports_rejected += m.detection_reports_rejected;
    total.spoofed_messages_accepted += m.spoofed_messages_accepted;
    total.estops_from_ids += m.estops_from_ids;
  }
  return total;
}

std::string FleetService::session_deterministic_json(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second->site->telemetry().deterministic_json();
}

// --- operations-console control plane --------------------------------------

void FleetService::pause() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!paused_.exchange(true, std::memory_order_relaxed)) {
    telemetry_->recorder().record(0, "fleet", "paused");
  }
}

void FleetService::resume() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (paused_.exchange(false, std::memory_order_relaxed)) {
    telemetry_->recorder().record(0, "fleet", "resumed");
  }
}

std::size_t FleetService::control_step(std::uint64_t steps) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t stepped = sessions_.size();
  step_batch_locked(steps);
  return stepped;
}

bool FleetService::inject_attack(SessionId id, double x, double y, int level) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second->site->add_attacker({x, y}, level);
  telemetry_->recorder().record(0, "fleet", "attack-injected", id,
                                static_cast<std::uint64_t>(level));
  return true;
}

std::string FleetService::metrics_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return telemetry_->to_json();
}

std::string FleetService::sessions_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"paused\":";
  out += paused_.load(std::memory_order_relaxed) ? "true" : "false";
  out += ",\"session_count\":" + std::to_string(sessions_.size());
  std::uint64_t total = retired_steps_;
  out += ",\"sessions\":[";
  bool first = true;
  for (const auto& [id, session] : sessions_) {
    total += session->steps;
    const integration::SecurityMetrics m = session->site->security_metrics();
    if (!first) out.push_back(',');
    first = false;
    out += "{\"id\":" + std::to_string(id);
    out += ",\"steps\":" + std::to_string(session->steps);
    out += ",\"forwarders\":" + std::to_string(session->site->forwarder_count());
    out += ",\"reports_accepted\":" + std::to_string(m.detection_reports_accepted);
    out += ",\"reports_rejected\":" + std::to_string(m.detection_reports_rejected);
    out += ",\"estops_from_ids\":" + std::to_string(m.estops_from_ids);
    out.push_back('}');
  }
  out += "],\"total_session_steps\":" + std::to_string(total);
  out.push_back('}');
  return out;
}

std::string FleetService::utilization_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const obs::Tracer& tracer = telemetry_->tracer();
  std::string out = "{\"shards\":[";
  for (std::size_t shard = 0; shard < tracer.shard_count(); ++shard) {
    if (shard != 0) out.push_back(',');
    out += "{\"shard\":" + std::to_string(shard);
    out += ",\"busy_ns\":" + std::to_string(tracer.shard_busy_ns(shard));
    out.push_back('}');
  }
  out += "]}";
  return out;
}

namespace {

/// Renders newline-terminated JSONL event lines as a JSON array body.
void append_jsonl_as_array(std::string& out, const std::string& jsonl) {
  out.push_back('[');
  std::size_t pos = 0;
  bool first = true;
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

FleetService::FlightChunk FleetService::flight_read(SessionId id,
                                                    std::uint64_t cursor,
                                                    std::size_t max_events) const {
  const std::lock_guard<std::mutex> lock(mu_);
  FlightChunk chunk;
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return chunk;
  const obs::FlightRecorder& recorder = it->second->site->telemetry().recorder();
  const auto result = recorder.read_since(cursor, max_events, chunk.jsonl);
  chunk.ok = true;
  chunk.events = result.events;
  chunk.dropped = result.dropped;
  chunk.next_cursor = result.next_cursor;
  chunk.first_seq = result.next_cursor - result.events;
  chunk.total_recorded = recorder.total_recorded();
  return chunk;
}

std::string FleetService::flight_since_json(SessionId id, std::uint64_t cursor,
                                            std::size_t max_events) const {
  const FlightChunk chunk = flight_read(id, cursor, max_events);
  if (!chunk.ok) return {};
  std::string out = "{\"session\":" + std::to_string(id);
  out += ",\"total_recorded\":" + std::to_string(chunk.total_recorded);
  out += ",\"dropped\":" + std::to_string(chunk.dropped);
  out += ",\"next_cursor\":" + std::to_string(chunk.next_cursor);
  out += ",\"events\":";
  append_jsonl_as_array(out, chunk.jsonl);
  out += "}";
  return out;
}

std::string FleetService::flight_tail_json(SessionId id,
                                           std::size_t max_events) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  const obs::FlightRecorder& recorder = it->second->site->telemetry().recorder();
  // Tail = a cursor read starting max_events before the newest event; the
  // lines come from the same serializer as the polled JSONL export.
  const std::uint64_t total = recorder.total_recorded();
  const std::uint64_t start =
      total > max_events ? total - max_events : 0;
  std::string jsonl;
  const auto result = recorder.read_since(start, max_events, jsonl);
  std::string out = "{\"session\":" + std::to_string(id);
  out += ",\"total_recorded\":" + std::to_string(total);
  out += ",\"next_cursor\":" + std::to_string(result.next_cursor);
  out += ",\"events\":";
  append_jsonl_as_array(out, jsonl);
  out += "}";
  return out;
}

std::string FleetService::export_session_json(SessionId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second->site->telemetry().deterministic_json();
}

}  // namespace agrarsec::service
