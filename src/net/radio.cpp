#include "net/radio.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace agrarsec::net {

namespace {
/// Path loss starts growing past this distance.
constexpr double kReferenceRangeM = 150.0;
/// Terrain-dependent path-loss growth: (d / kReferenceRangeM)^kLossExponent.
constexpr double kLossExponent = 2.2;
}  // namespace

std::string_view delivery_outcome_name(DeliveryOutcome outcome) {
  switch (outcome) {
    case DeliveryOutcome::kDelivered: return "delivered";
    case DeliveryOutcome::kOutOfRange: return "out-of-range";
    case DeliveryOutcome::kPathLoss: return "path-loss";
    case DeliveryOutcome::kCollision: return "collision";
    case DeliveryOutcome::kJammed: return "jammed";
    case DeliveryOutcome::kDropped: return "dropped";
  }
  return "?";
}

RadioMedium::RadioMedium(core::Rng rng, RadioConfig config, obs::Telemetry* telemetry)
    : rng_(rng), config_(config) {
  if (telemetry != nullptr) {
    telemetry_ = telemetry;
  } else {
    owned_telemetry_ = std::make_unique<obs::Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  obs::Registry& reg = telemetry_->registry();
  c_sent_ = &reg.counter("radio.sent");
  // Indexed by DeliveryOutcome; names mirror delivery_outcome_name with
  // '-' swapped for '_' (metric-name convention).
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kDelivered)] =
      &reg.counter("radio.outcome.delivered");
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kOutOfRange)] =
      &reg.counter("radio.outcome.out_of_range");
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kPathLoss)] =
      &reg.counter("radio.outcome.path_loss");
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kCollision)] =
      &reg.counter("radio.outcome.collision");
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kJammed)] =
      &reg.counter("radio.outcome.jammed");
  c_outcomes_[static_cast<std::size_t>(DeliveryOutcome::kDropped)] =
      &reg.counter("radio.outcome.dropped");
}

void RadioMedium::attach(NodeId node, PositionFn position, ReceiveFn receive) {
  if (endpoints_.find(node) == endpoints_.end()) {
    sorted_ids_.insert(
        std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), node), node);
  }
  endpoints_[node] = Endpoint{std::move(position), std::move(receive)};
}

void RadioMedium::detach(NodeId node) {
  if (endpoints_.erase(node) > 0) {
    const auto it =
        std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), node);
    if (it != sorted_ids_.end() && *it == node) sorted_ids_.erase(it);
  }
}

void RadioMedium::send(Frame frame, core::SimTime now) {
  c_sent_->add();
  frame.sent_at = now;
  for (const auto& sniffer : sniffers_) sniffer(frame);
  const core::SimDuration latency =
      config_.base_latency +
      static_cast<core::SimDuration>(rng_.next_below(
          static_cast<std::uint64_t>(config_.latency_jitter) + 1));
  queue_.push_back(Pending{std::move(frame), now + latency, send_seq_++});
  std::push_heap(queue_.begin(), queue_.end(), LaterDelivery{});
}

bool RadioMedium::jammed_at(const core::Vec2& pos, std::uint32_t channel) {
  for (const Jammer& j : jammers_) {
    if (!j.active) continue;
    if (j.channel && *j.channel != channel) continue;
    if (core::distance(j.position, pos) <= j.radius_m && rng_.chance(j.effectiveness)) {
      return true;
    }
  }
  return false;
}

bool RadioMedium::dropped(const Frame& frame) {
  for (const DropRule& r : drop_rules_) {
    if ((frame.src == r.victim || frame.dst == r.victim) && rng_.chance(r.probability)) {
      return true;
    }
  }
  return false;
}

void RadioMedium::build_broadcast_snapshot() {
  // Constant-position-within-step assumption: node poses are sampled ONCE
  // here, at the top of RadioMedium::step(), and every broadcast delivered
  // during the step — whatever its deliver_at time within the step window —
  // ranges against these frozen positions. That matches the simulator's
  // kinematics (machines integrate once per 100 ms step, so positions
  // genuinely do not change between step boundaries) and samples each
  // position callback once per step instead of once per frame. If sub-step
  // mobility is ever modelled (continuous integration, faster platforms),
  // delivery must re-sample poses per deliver_at instead of reusing this
  // snapshot.
  bcast_nodes_.clear();
  for (const NodeId id : sorted_ids_) {
    bcast_nodes_.push_back(BcastNode{id, endpoints_.find(id)->second.position()});
  }
}

DeliveryOutcome RadioMedium::judge(const Frame& frame, const core::Vec2& src_pos,
                                   const core::Vec2& dst_pos, bool collided) {
  const double d = core::distance(src_pos, dst_pos);
  if (d > config_.max_range_m) return DeliveryOutcome::kOutOfRange;
  if (dropped(frame)) return DeliveryOutcome::kDropped;
  if (jammed_at(dst_pos, frame.channel) || jammed_at(src_pos, frame.channel)) {
    return DeliveryOutcome::kJammed;
  }
  if (collided && rng_.chance(config_.collision_probability)) {
    return DeliveryOutcome::kCollision;
  }

  // Log-distance style loss: base below reference range, growing with
  // (d/ref)^exponent above it, saturating at 1.
  double loss = config_.base_loss;
  if (d > kReferenceRangeM) {
    const double ratio = d / kReferenceRangeM;
    loss = std::min(1.0, config_.base_loss * std::pow(ratio, kLossExponent));
  }
  if (rng_.chance(loss)) return DeliveryOutcome::kPathLoss;
  return DeliveryOutcome::kDelivered;
}

void RadioMedium::step(core::SimTime now) {
  // Collect due frames in (deliver_at, send-order) order. The heap means
  // an in-flight frame with a large jitter draw cannot block already-due
  // frames queued behind it (head-of-line blocking of the old FIFO).
  due_.clear();
  while (!queue_.empty() && queue_.front().deliver_at <= now) {
    std::pop_heap(queue_.begin(), queue_.end(), LaterDelivery{});
    due_.push_back(std::move(queue_.back()));
    queue_.pop_back();
  }
  if (due_.empty()) return;

  // Collision detection: two due frames on the same channel whose send
  // times fall within the collision window interfere (simplified CSMA
  // failure model; the window is small relative to the sim step). One
  // sort on (channel, sent_at) lets each frame's forward sweep stop at the
  // first frame on another channel or past the window. The pair predicate
  // is symmetric, so the marked set does not depend on how ties sort.
  collided_.assign(due_.size(), false);
  order_.resize(due_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const Frame& fa = due_[a].frame;
    const Frame& fb = due_[b].frame;
    if (fa.channel != fb.channel) return fa.channel < fb.channel;
    return fa.sent_at < fb.sent_at;
  });
  for (std::size_t u = 0; u < order_.size(); ++u) {
    const Frame& first = due_[order_[u]].frame;
    for (std::size_t v = u + 1; v < order_.size(); ++v) {
      const Frame& second = due_[order_[v]].frame;
      if (second.channel != first.channel) break;
      const double gap = static_cast<double>(second.sent_at - first.sent_at);
      if (gap > kCollisionWindowMs) break;  // sorted: no later hit
      if (second.src == first.src) continue;
      collided_[order_[u]] = collided_[order_[v]] = true;
    }
  }

  // Broadcast fan-out ranges against one per-step position snapshot
  // (positions do not change within a sim step).
  const bool any_broadcast =
      std::any_of(due_.begin(), due_.end(),
                  [](const Pending& p) { return !p.frame.dst.valid(); });
  if (any_broadcast) build_broadcast_snapshot();

  for (std::size_t i = 0; i < due_.size(); ++i) {
    const Frame& frame = due_[i].frame;
    const auto src_it = endpoints_.find(frame.src);
    if (src_it == endpoints_.end()) continue;  // sender vanished mid-flight
    const core::Vec2 src_pos = src_it->second.position();

    auto deliver_to = [&](NodeId dst, core::Vec2 dst_pos) {
      // Re-found at delivery time: an earlier receive callback this step
      // may have detached the destination (or attached a node, rehashing
      // endpoints_), so the broadcast snapshot carries ids, not pointers.
      const auto dst_it = endpoints_.find(dst);
      if (dst_it == endpoints_.end()) return;  // receiver vanished mid-step
      const DeliveryOutcome outcome = judge(frame, src_pos, dst_pos, collided_[i]);
      c_outcomes_[static_cast<std::size_t>(outcome)]->add();
      if (outcome != DeliveryOutcome::kDelivered &&
          outcome != DeliveryOutcome::kOutOfRange) {
        // Adversarial/channel losses go to the flight recorder (step() is
        // serial, so the order is deterministic); out-of-range is ambient
        // geometry, not an incident.
        telemetry_->recorder().record(now, "radio", delivery_outcome_name(outcome),
                                      dst.value(), frame.src.value(), frame.channel);
      }
      if (outcome == DeliveryOutcome::kDelivered) {
        // Copy the handler: receive() may detach its own node re-entrantly,
        // which would destroy the stored std::function mid-call.
        const ReceiveFn receive = dst_it->second.receive;
        receive(frame, now);
      }
    };

    if (frame.dst.valid()) {
      const auto dst_it = endpoints_.find(frame.dst);
      if (dst_it == endpoints_.end()) continue;
      deliver_to(frame.dst, dst_it->second.position());
    } else {
      // Every other snapshot node is judged, in ascending id order.
      for (const BcastNode& node : bcast_nodes_) {
        if (node.id != frame.src) deliver_to(node.id, node.pos);
      }
    }
  }
  due_.clear();  // frees the payloads before the next step's sends
}

std::size_t RadioMedium::add_jammer(Jammer jammer) {
  jammers_.push_back(jammer);
  return jammers_.size() - 1;
}

void RadioMedium::set_jammer_active(std::size_t index, bool active) {
  jammers_.at(index).active = active;
}

std::size_t RadioMedium::add_drop_rule(DropRule rule) {
  drop_rules_.push_back(rule);
  return drop_rules_.size() - 1;
}

std::uint64_t RadioMedium::count(DeliveryOutcome outcome) const {
  return c_outcomes_[static_cast<std::size_t>(outcome)]->value();
}

void RadioMedium::add_sniffer(std::function<void(const Frame&)> sniffer) {
  sniffers_.push_back(std::move(sniffer));
}

}  // namespace agrarsec::net
