#include "sim/worksite.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace agrarsec::sim {

namespace {
std::string_view task_name(ForwarderTask task) {
  switch (task) {
    case ForwarderTask::kIdle: return "idle";
    case ForwarderTask::kToPile: return "to-pile";
    case ForwarderTask::kLoading: return "loading";
    case ForwarderTask::kToLanding: return "to-landing";
    case ForwarderTask::kUnloading: return "unloading";
  }
  return "?";
}

/// Piles below this volume are exhausted: invisible to dispatch and
/// compacted out of piles_ at the end of the step.
constexpr double kPileExhaustedM3 = 0.5;

/// Volume of one harvester pile: the harvester drops a new pile each time
/// it has produced this much.
constexpr double kPileCapacityM3 = 7.0;

/// A forwarder closer than this to the landing area unloads there.
constexpr double kLandingRadiusM = 15.0;

/// Radius of the no-go disc one windthrow event blocks in the planner.
constexpr double kWindthrowRadiusM = 12.0;

/// Planning clearance = machine body radius + this margin. The default
/// MachineConfig (body 1.8 m) lands exactly on the default
/// PlannerConfig::clearance_m of 2.0 m.
constexpr double kClearanceMarginM = 0.2;

/// fork_stream domains for the per-entity streams: machines, humans and
/// the weather-hazard stream must never collide even for equal ids.
constexpr std::uint64_t kMachineStreamDomain = 0x4D41434821ULL;
constexpr std::uint64_t kHumanStreamDomain = 0x48554D414EULL;
constexpr std::uint64_t kWeatherStreamDomain = 0x57454154ULL;

/// Calls fn(human, distance) for every human within `radius` of `center`
/// (exact Euclidean, boundary inclusive), in ascending id order (humans
/// are append-only). A human farther than `radius` along either axis is
/// skipped before the distance is taken; that is exact, because
/// hypot(dx, dy) >= max(|dx|, |dy|).
template <typename Fn>
void for_each_human_within(const std::vector<std::unique_ptr<Human>>& humans,
                           core::Vec2 center, double radius, Fn&& fn) {
  for (const auto& h : humans) {
    const core::Vec2 p = h->position();
    if (std::abs(p.x - center.x) > radius || std::abs(p.y - center.y) > radius) {
      continue;
    }
    const double d = core::distance(center, p);
    if (d <= radius) fn(*h, d);
  }
}
}  // namespace

std::string_view weather_name(Weather weather) {
  switch (weather) {
    case Weather::kClear: return "clear";
    case Weather::kRain: return "rain";
    case Weather::kFog: return "fog";
    case Weather::kSnow: return "snow";
  }
  return "?";
}

double windthrow_weather_factor(Weather weather) {
  switch (weather) {
    case Weather::kClear: return 0.25;
    case Weather::kRain: return 1.0;
    case Weather::kFog: return 0.5;
    case Weather::kSnow: return 1.5;
  }
  return 1.0;
}

Worksite::Worksite(WorksiteConfig config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      rng_(seed),
      hazard_rng_(core::Rng::fork_stream(seed, kWeatherStreamDomain, 0)),
      clock_(kWorksiteStep) {
  // Telemetry first: the planner hangs off it.
  if (config_.telemetry != nullptr) {
    telemetry_ = config_.telemetry;
  } else {
    owned_telemetry_ = std::make_unique<obs::Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  obs::Registry& reg = telemetry_->registry();
  c_steps_ = &reg.counter("worksite.steps");
  c_route_reuses_ = &reg.counter("worksite.route_reuses");
  c_windthrow_ = &reg.counter("worksite.windthrow_events");
  c_cycles_ = &reg.counter("worksite.completed_cycles");
  c_sep_queries_ = &reg.counter("worksite.separation_queries");
  g_delivered_ = &reg.gauge("worksite.delivered_m3");
  // The one separation store, exported with every session; the step
  // wall-time histogram is excluded from the deterministic export by its
  // "wall." prefix.
  h_separation_ = &reg.histogram("worksite.separation_m", 0.0, kSeparationTrackingM, 25);
  h_step_wall_ = &reg.histogram("wall.worksite_step_us", 0.0, 100000.0, 20);
  obs::Tracer& tracer = telemetry_->tracer();
  ph_step_ = tracer.phase("worksite.step");
  ph_weather_ = tracer.phase("worksite.weather");
  ph_decide_ = tracer.phase("worksite.decide");
  ph_drain_ = tracer.phase("worksite.drain");
  ph_integrate_ = tracer.phase("worksite.integrate");
  ph_separation_ = tracer.phase("worksite.separation");
  obs::wire_event_bus(bus_, *telemetry_);

  core::Rng terrain_rng = rng_.fork(0x7e44a1);
  terrain_ = std::make_unique<Terrain>(Terrain::generate(config_.forest, terrain_rng));

  planner_ = std::make_unique<PathPlanner>(*terrain_);
  planner_->set_telemetry(telemetry_);
}

void Worksite::block_region(core::Vec2 center, double radius, bool blocked) {
  planner_->set_region_blocked(center, radius, blocked);
}

std::deque<core::Vec2> Worksite::plan_route(core::Vec2 from, core::Vec2 to) const {
  if (auto path = planner_->plan(from, to)) {
    return std::deque<core::Vec2>(path->begin(), path->end());
  }
  return {to};
}

void Worksite::route_machine(Machine& machine, core::Vec2 goal) {
  // Serial context (effect drain / setup), so flight-recorder writes are
  // ordered and deterministic here.
  PathPlanner& planner = *planner_;
  if (machine.try_reuse_route(goal, planner)) {
    c_route_reuses_->add();
    telemetry_->recorder().record(clock_.now(), "planner", "route-reuse",
                                  machine.id().value());
    return;
  }
  const PlannerStats before = planner.stats();
  std::deque<core::Vec2> route;
  if (auto path = planner.plan(machine.position(), goal)) {
    route.assign(path->begin(), path->end());
  } else {
    route = {goal};
  }
  const PlannerStats& after = planner.stats();
  telemetry_->recorder().record(
      clock_.now(), "planner",
      after.cache_hits > before.cache_hits ? "cache-hit" : "cache-miss",
      machine.id().value(), after.jps_expansions - before.jps_expansions);
  machine.set_route(std::move(route), goal, planner.generation());
}

void Worksite::route_machine(MachineId id, core::Vec2 goal) {
  if (Machine* m = machine(id)) route_machine(*m, goal);
}

MachineId Worksite::register_machine(std::unique_ptr<Machine> machine) {
  const MachineId id = machine->id();
  const std::size_t slot = machines_.size();
  if (machine_slot_by_id_.size() <= id.value()) {
    machine_slot_by_id_.resize(id.value() + 1, kNoSlot);
  }
  machine_slot_by_id_[id.value()] = slot;
  machines_.push_back(std::move(machine));
  effects_.resize(machines_.size());
  return id;
}

MachineId Worksite::add_forwarder(const std::string& name, core::Vec2 position,
                                  MachineConfig config) {
  if (config.body_radius_m + kClearanceMarginM > planner_->config().clearance_m) {
    throw std::invalid_argument("forwarder '" + name +
                                "': body too wide for the planner's clearance");
  }
  const MachineId id = machine_ids_.next();
  forwarder_states_[id.value()] = ForwarderState{};
  return register_machine(std::make_unique<Machine>(
      id, MachineKind::kForwarder, name, position, config,
      core::Rng::fork_stream(seed_, kMachineStreamDomain, id.value())));
}

MachineId Worksite::add_harvester(const std::string& name, core::Vec2 position) {
  const MachineId id = machine_ids_.next();
  MachineConfig config;
  config.max_speed_mps = 1.5;  // harvesters crawl while working
  harvester_accum_m3_[id.value()] = 0.0;
  return register_machine(std::make_unique<Machine>(
      id, MachineKind::kHarvester, name, position, config,
      core::Rng::fork_stream(seed_, kMachineStreamDomain, id.value())));
}

MachineId Worksite::add_drone(const std::string& name, core::Vec2 position,
                              double altitude_m) {
  const MachineId id = machine_ids_.next();
  MachineConfig config;
  config.max_speed_mps = 12.0;
  config.turn_rate_rps = 2.5;
  config.altitude_m = altitude_m;
  config.body_radius_m = 0.4;
  return register_machine(std::make_unique<Machine>(
      id, MachineKind::kDrone, name, position, config,
      core::Rng::fork_stream(seed_, kMachineStreamDomain, id.value())));
}

HumanId Worksite::add_worker(const std::string& name, core::Vec2 position,
                             core::Vec2 work_anchor, HumanConfig config) {
  const HumanId id = human_ids_.next();
  if (human_slot_by_id_.size() <= id.value()) {
    human_slot_by_id_.resize(id.value() + 1, kNoSlot);
  }
  human_slot_by_id_[id.value()] = humans_.size();
  humans_.push_back(std::make_unique<Human>(
      id, name, position, work_anchor, config,
      core::Rng::fork_stream(seed_, kHumanStreamDomain, id.value())));
  return id;
}

std::vector<Machine*> Worksite::machines() {
  std::vector<Machine*> out;
  out.reserve(machines_.size());
  for (auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<const Machine*> Worksite::machines() const {
  std::vector<const Machine*> out;
  out.reserve(machines_.size());
  for (const auto& m : machines_) out.push_back(m.get());
  return out;
}

Machine* Worksite::machine(MachineId id) {
  if (id.value() >= machine_slot_by_id_.size()) return nullptr;
  const std::size_t slot = machine_slot_by_id_[id.value()];
  return slot == kNoSlot ? nullptr : machines_[slot].get();
}

const Machine* Worksite::machine(MachineId id) const {
  if (id.value() >= machine_slot_by_id_.size()) return nullptr;
  const std::size_t slot = machine_slot_by_id_[id.value()];
  return slot == kNoSlot ? nullptr : machines_[slot].get();
}

std::vector<Human*> Worksite::humans() {
  std::vector<Human*> out;
  out.reserve(humans_.size());
  for (auto& h : humans_) out.push_back(h.get());
  return out;
}

std::vector<const Human*> Worksite::humans() const {
  std::vector<const Human*> out;
  out.reserve(humans_.size());
  for (const auto& h : humans_) out.push_back(h.get());
  return out;
}

const Human* Worksite::human(HumanId id) const {
  if (id.value() >= human_slot_by_id_.size()) return nullptr;
  const std::size_t slot = human_slot_by_id_[id.value()];
  return slot == kNoSlot ? nullptr : humans_[slot].get();
}

void Worksite::humans_within(core::Vec2 center, double radius,
                             std::vector<const Human*>& out) const {
  out.clear();
  for_each_human_within(humans_, center, radius,
                        [&out](const Human& h, double) { out.push_back(&h); });
}

ForwarderTask Worksite::task(MachineId id) const {
  const auto it = forwarder_states_.find(id.value());
  return it == forwarder_states_.end() ? ForwarderTask::kIdle : it->second.task;
}

void Worksite::set_drone_orbit(MachineId drone, MachineId anchor, double radius) {
  drone_orbits_[drone.value()] = DroneOrbit{anchor, radius, 0.0};
}

std::optional<std::uint64_t> Worksite::nearest_pile(core::Vec2 from) const {
  // piles_ is in no particular order after compaction, so ties on
  // distance go to the smaller id explicitly.
  const LogPile* best = nullptr;
  double best_dist = 0.0;
  for (const LogPile& pile : piles_) {
    if (pile.volume_m3 < kPileExhaustedM3) continue;
    const double d = core::distance(pile.position, from);
    if (best == nullptr || d < best_dist || (d == best_dist && pile.id < best->id)) {
      best = &pile;
      best_dist = d;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id;
}

LogPile* Worksite::pile_by_id(std::uint64_t pile_id) {
  const auto it = pile_slots_.find(pile_id);
  return it == pile_slots_.end() ? nullptr : &piles_[it->second];
}

const LogPile* Worksite::pile_by_id(std::uint64_t pile_id) const {
  const auto it = pile_slots_.find(pile_id);
  return it == pile_slots_.end() ? nullptr : &piles_[it->second];
}

void Worksite::compact_piles() {
  for (std::size_t i = 0; i < piles_.size();) {
    if (piles_[i].volume_m3 >= kPileExhaustedM3) {
      ++i;
      continue;
    }
    pile_slots_.erase(piles_[i].id);
    piles_[i] = piles_.back();
    piles_.pop_back();
    if (i < piles_.size()) pile_slots_[piles_[i].id] = i;
  }
}

void Worksite::step_weather_hazards() {
  if (config_.windthrow_rate_per_hour > 0.0) {
    const double step_hours =
        static_cast<double>(kWorksiteStep) / static_cast<double>(core::kHour);
    const double p = config_.windthrow_rate_per_hour *
                     windthrow_weather_factor(config_.weather) * step_hours;
    if (hazard_rng_.chance(p)) {
      const core::Aabb& bounds = terrain_->bounds();
      const core::Vec2 center{hazard_rng_.uniform(bounds.min.x, bounds.max.x),
                              hazard_rng_.uniform(bounds.min.y, bounds.max.y)};
      const double radius = kWindthrowRadiusM;
      block_region(center, radius, true);
      c_windthrow_->add();
      telemetry_->recorder().record(clock_.now(), "worksite", "windthrow", 0,
                                    static_cast<std::uint64_t>(radius));
      if (config_.windthrow_duration > 0) {
        hazards_.push_back({center, radius, clock_.now() + config_.windthrow_duration});
      }
      bus_.publish({"worksite/windthrow",
                    "x=" + std::to_string(center.x) + ";y=" + std::to_string(center.y) +
                        ";r=" + std::to_string(radius),
                    0, clock_.now()});
    }
  }
  while (!hazards_.empty() && hazards_.front().until <= clock_.now()) {
    const ActiveHazard hazard = hazards_.front();
    hazards_.pop_front();
    // Freeing re-derives terrain-blocked cells, so clearing debris never
    // opens cells the forest itself blocks.
    block_region(hazard.center, hazard.radius, false);
    bus_.publish({"worksite/windthrow-cleared",
                  "x=" + std::to_string(hazard.center.x) +
                      ";y=" + std::to_string(hazard.center.y),
                  0, clock_.now()});
  }
}

void Worksite::decide_harvester(Machine& harvester, MachineEffects& fx) {
  // The harvester fells and processes continuously; every
  // kPileCapacityM3 produced, a new pile appears beside it.
  const double per_step = config_.harvester_output_m3_per_min *
                          static_cast<double>(kWorksiteStep) / core::kMinute;
  double& accum = harvester_accum_m3_.find(harvester.id().value())->second;
  accum += per_step;
  if (accum >= kPileCapacityM3) {
    accum -= kPileCapacityM3;
    const double angle = harvester.rng().uniform(0.0, 2.0 * std::numbers::pi);
    LogPile pile;  // id assigned by the drain (serial allocation)
    pile.position = harvester.position() +
                    core::Vec2{std::cos(angle), std::sin(angle)} * 6.0;
    pile.position = terrain_->bounds().clamp(pile.position);
    pile.volume_m3 = kPileCapacityM3;
    fx.spawn = pile;
  }

  // Slowly advance the harvester through the stand.
  if (harvester.idle()) {
    const core::Vec2 target{
        harvester.rng().uniform(terrain_->bounds().min.x + 20,
                                terrain_->bounds().max.x - 20),
        harvester.rng().uniform(terrain_->bounds().min.y + 20,
                                terrain_->bounds().max.y - 20)};
    harvester.push_waypoint(target);
  }
}

void Worksite::decide_forwarder(Machine& forwarder, ForwarderState& state,
                                MachineEffects& fx) {
  // Decisions read the worksite as of the start of the step (piles are
  // frozen during the decide phase); shared effects are buffered and
  // committed by the drain. A pile another forwarder
  // exhausts this very step can therefore still be dispatched to — the
  // kToPile re-check next step resolves it, the same way the serial code
  // already handled a pile dying mid-wait.
  switch (state.task) {
    case ForwarderTask::kIdle: {
      const auto pile = nearest_pile(forwarder.position());
      if (pile) {
        state.pile_id = pile;
        state.task = ForwarderTask::kToPile;
        fx.action = MachineEffects::Action::kDispatch;
        fx.route_goal = pile_by_id(*pile)->position;
      }
      break;
    }
    case ForwarderTask::kToPile: {
      const LogPile* pile = state.pile_id ? pile_by_id(*state.pile_id) : nullptr;
      if (pile == nullptr || pile->volume_m3 < kPileExhaustedM3) {
        state.task = ForwarderTask::kIdle;
        break;
      }
      const core::Vec2 pile_pos = pile->position;
      const double pile_dist = core::distance(forwarder.position(), pile_pos);
      if (pile_dist < 4.0) {
        state.task = ForwarderTask::kLoading;
        state.action_remaining = config_.load_time;
      } else if (forwarder.idle()) {
        // Piles drop next to the harvester, frequently inside planner-
        // blocked cells; once close, crawl the final approach straight
        // (the machine threads between stems at walking pace in reality).
        fx.action = pile_dist < 25.0 ? MachineEffects::Action::kRouteDirect
                                     : MachineEffects::Action::kRoutePlanned;
        fx.route_goal = pile_pos;
      }
      break;
    }
    case ForwarderTask::kLoading: {
      if (forwarder.stopped()) break;  // e-stop pauses work
      state.action_remaining -= kWorksiteStep;
      if (state.action_remaining <= 0) {
        // The take amount and the follow-on dispatch depend on the live
        // pile state, which other forwarders mutate this step — commit
        // runs in the drain, in slot order, exactly like the serial loop.
        fx.action = MachineEffects::Action::kLoadCommit;
      }
      break;
    }
    case ForwarderTask::kToLanding: {
      const double landing_dist =
          core::distance(forwarder.position(), config_.landing_area);
      if (landing_dist < kLandingRadiusM) {
        state.task = ForwarderTask::kUnloading;
        state.action_remaining = config_.unload_time;
      } else if (forwarder.idle()) {
        fx.action = landing_dist < kLandingRadiusM + 20.0
                        ? MachineEffects::Action::kRouteDirect
                        : MachineEffects::Action::kRoutePlanned;
        fx.route_goal = config_.landing_area;
      }
      break;
    }
    case ForwarderTask::kUnloading: {
      if (forwarder.stopped()) break;
      state.action_remaining -= kWorksiteStep;
      if (state.action_remaining <= 0) {
        fx.unloaded_m3 = forwarder.unload_logs();
        state.task = ForwarderTask::kIdle;
        fx.action = MachineEffects::Action::kCycleCommit;
      }
      break;
    }
  }
}

void Worksite::decide_drone(Machine& drone) {
  const auto it = drone_orbits_.find(drone.id().value());
  if (it == drone_orbits_.end()) return;
  DroneOrbit& orbit = it->second;
  const Machine* anchor = machine(orbit.anchor);
  if (anchor == nullptr) return;

  // This reads the anchor's start-of-step pose: machine kinematics all
  // advance in the integrate phase after decide — a one-step lag on a
  // 100 ms orbit update, not observable beyond the orbit tolerance.
  orbit.phase += 0.35 * static_cast<double>(kWorksiteStep) / core::kSecond;
  const core::Vec2 target =
      anchor->position() +
      core::Vec2{std::cos(orbit.phase), std::sin(orbit.phase)} * orbit.radius;
  drone.head_to(target);
}

void Worksite::decide_machine(std::size_t slot) {
  Machine& m = *machines_[slot];
  MachineEffects& fx = effects_[slot];
  fx = MachineEffects{};
  switch (m.kind()) {
    case MachineKind::kHarvester:
      decide_harvester(m, fx);
      break;
    case MachineKind::kForwarder:
      decide_forwarder(m, forwarder_states_.find(m.id().value())->second, fx);
      break;
    case MachineKind::kDrone:
      decide_drone(m);
      break;
  }
}

void Worksite::commit_load(Machine& forwarder, ForwarderState& state) {
  LogPile* pile = state.pile_id ? pile_by_id(*state.pile_id) : nullptr;
  if (pile == nullptr) {  // another forwarder exhausted it mid-wait
    state.task = ForwarderTask::kIdle;
    return;
  }
  const double take = std::min(
      pile->volume_m3, kLoadCapacityM3 - forwarder.load_m3());
  // A pile left below kPileExhaustedM3 is invisible to nearest_pile at
  // once and compacted away at the end of the step.
  pile->volume_m3 -= take;
  forwarder.load_logs(take);
  if (forwarder.full() || !nearest_pile(forwarder.position())) {
    state.task = ForwarderTask::kToLanding;
    route_machine(forwarder, config_.landing_area);
  } else {
    state.task = ForwarderTask::kIdle;
  }
}

void Worksite::drain_machine_effects() {
  for (std::size_t slot = 0; slot < machines_.size(); ++slot) {
    Machine& m = *machines_[slot];
    MachineEffects& fx = effects_[slot];

    if (fx.spawn) {
      LogPile pile = *fx.spawn;
      pile.id = next_pile_id_++;
      pile_slots_[pile.id] = piles_.size();
      piles_.push_back(pile);
      bus_.publish({"worksite/pile", "volume=" + std::to_string(pile.volume_m3),
                    m.id().value(), clock_.now()});
    }

    switch (fx.action) {
      case MachineEffects::Action::kNone:
        break;
      case MachineEffects::Action::kDispatch: {
        ForwarderState& state = forwarder_states_.find(m.id().value())->second;
        route_machine(m, fx.route_goal);
        bus_.publish({"forwarder/task",
                      std::string("task=") + std::string(task_name(state.task)),
                      m.id().value(), clock_.now()});
        break;
      }
      case MachineEffects::Action::kRoutePlanned:
        route_machine(m, fx.route_goal);
        break;
      case MachineEffects::Action::kRouteDirect:
        m.set_route({fx.route_goal}, fx.route_goal, planner_->generation());
        break;
      case MachineEffects::Action::kLoadCommit:
        commit_load(m, forwarder_states_.find(m.id().value())->second);
        break;
      case MachineEffects::Action::kCycleCommit:
        g_delivered_->add(fx.unloaded_m3);
        c_cycles_->add();
        bus_.publish({"forwarder/cycle",
                      "delivered=" + std::to_string(g_delivered_->value()),
                      m.id().value(), clock_.now()});
        break;
    }
  }
}

Worksite::Metrics Worksite::metrics() const {
  Metrics m;
  m.delivered_m3 = g_delivered_->value();
  m.completed_cycles = c_cycles_->value();
  m.min_human_separation = min_human_separation();
  m.separation_samples = h_separation_->count();
  m.route_reuses = c_route_reuses_->value();
  m.windthrow_events = c_windthrow_->value();
  m.planner = planner_->stats();
  return m;
}

void Worksite::step() {
  // Phase spans are observation-only wall-clock taps (obs::Tracer); no
  // value read here ever feeds back into sim state.
  obs::Tracer& tracer = telemetry_->tracer();
  const std::uint64_t step_start_ns = obs::Tracer::now_ns();
  obs::Tracer::Span step_span = tracer.scoped(ph_step_);
  c_steps_->add();
  clock_.tick();

  {
    // Pre-phase: weather hazards mutate the planner's blocked grid (and
    // publish), so they must land before decide.
    obs::Tracer::Span span = tracer.scoped(ph_weather_);
    step_weather_hazards();
  }

  {
    // Decide: per-machine FSMs against the start-of-step shared state.
    // Planner routing mutates route caches and records flight events, so
    // it is buffered here and runs in the drain.
    obs::Tracer::Span span = tracer.scoped(ph_decide_);
    for (std::size_t slot = 0; slot < machines_.size(); ++slot) decide_machine(slot);
  }

  {
    // Drain (ascending slot = id order): pile spawns and takes, planner
    // routing, event publishes, delivery accounting. This pass alone
    // orders every shared mutation.
    obs::Tracer::Span span = tracer.scoped(ph_drain_);
    drain_machine_effects();
  }

  {
    // Integrate: machine kinematics, then human walks; each entity
    // touches only itself (humans draw from their own streams).
    obs::Tracer::Span span = tracer.scoped(ph_integrate_);
    for (const auto& m : machines_) m->step(kWorksiteStep);
    for (const auto& h : humans_) h->step(kWorksiteStep);
  }

  // Every decision of the step is made: drop the exhausted piles.
  compact_piles();

  {
    // Separation sampling: moving forwarders against nearby humans, read
    // from the entities' post-step poses. Samples fold into the histogram
    // in slot order, then ascending human id order, which fixes its sum's
    // floating-point accumulation order.
    obs::Tracer::Span span = tracer.scoped(ph_separation_);
    const double radius = kSeparationTrackingM;
    for (const auto& m : machines_) {
      if (m->kind() != MachineKind::kForwarder) continue;
      if (m->speed() < 0.3) continue;
      c_sep_queries_->add();
      for_each_human_within(humans_, m->position(), radius,
                            [this](const Human&, double d) { h_separation_->add(d); });
    }
  }

  h_step_wall_->add(
      static_cast<double>(obs::Tracer::now_ns() - step_start_ns) / 1000.0);
}

}  // namespace agrarsec::sim
