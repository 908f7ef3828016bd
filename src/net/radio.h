// Simulated wireless medium for the forestry worksite. Models the channel
// properties the paper's §IV-C identifies as the dominant cybersecurity
// surface for autonomous haulage/forestry machines: distance-dependent
// loss, interference between co-channel transmitters, jamming, and
// de-authentication/drop attacks. There is no roadside infrastructure —
// all traffic is machine-to-machine within the site (Table I: remote and
// isolated locations).
//
// A broadcast judges every other attached node, in ascending id order,
// against one per-step position snapshot; co-channel collisions are found
// by one sort of the step's due frames on (channel, sent_at) (DESIGN.md
// §19). Receivers are handed the queued frame itself, as it was sent
// (DESIGN.md §22). A frame's payload is the only allocation it costs the
// medium: the queue and step()'s due, collision and sort lists are
// members whose capacity is reused from step to step (DESIGN.md §25).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bytes.h"
#include "core/geometry.h"
#include "core/rng.h"
#include "core/time.h"
#include "core/types.h"
#include "obs/telemetry.h"

namespace agrarsec::net {

/// A frame on the air. Payload is opaque to the medium (the secure channel
/// encrypts above this layer).
struct Frame {
  NodeId src;
  NodeId dst;            ///< NodeId::invalid() == broadcast
  std::uint32_t channel = 0;
  core::Bytes payload;
  core::SimTime sent_at = 0;
};

/// Delivery outcome, recorded per frame for the experiment harnesses.
enum class DeliveryOutcome : std::uint8_t {
  kDelivered,
  kOutOfRange,
  kPathLoss,      ///< random loss from the distance/terrain model
  kCollision,     ///< co-channel interference
  kJammed,        ///< active jammer overpowered the link
  kDropped,       ///< targeted drop (de-auth style attack)
};

[[nodiscard]] std::string_view delivery_outcome_name(DeliveryOutcome outcome);

/// Two same-channel frames from different senders whose send times lie
/// within this window (ms) may collide.
inline constexpr double kCollisionWindowMs = 5.0;

/// Physical-layer parameters.
struct RadioConfig {
  double max_range_m = 600.0;        ///< hard connectivity limit
  double base_loss = 0.01;           ///< frame loss probability at close range
  /// Probability that two overlapping same-channel frames actually destroy
  /// each other (CSMA/CA resolves most overlaps in practice).
  double collision_probability = 0.25;
  core::SimDuration base_latency = 2;     ///< ms, propagation + MAC
  core::SimDuration latency_jitter = 3;   ///< ms, uniform extra
};

/// An active jammer: position, power radius and the channels it covers.
struct Jammer {
  core::Vec2 position;
  double radius_m = 200.0;
  std::optional<std::uint32_t> channel;  ///< nullopt = wideband
  double effectiveness = 0.95;           ///< P(frame killed inside radius)
  bool active = false;
};

/// A targeted drop rule (models Wi-Fi de-auth flooding against one victim:
/// frames to/from the victim are destroyed with given probability).
struct DropRule {
  NodeId victim;
  double probability = 1.0;
};

/// The shared medium. Nodes register with a position provider so mobility
/// is reflected per transmission.
class RadioMedium {
 public:
  using PositionFn = std::function<core::Vec2()>;
  /// Receives the frame as sent: `dst` is the receiver's id on a unicast
  /// and NodeId::invalid() on a broadcast.
  using ReceiveFn = std::function<void(const Frame&, core::SimTime now)>;

  /// With no `telemetry` the medium owns a private obs::Telemetry; inject
  /// a shared one to merge radio counters/flight events into a stack-wide
  /// export. Either way the outcome counters are registry instruments
  /// ("radio.sent", "radio.outcome.*") and count()/total_sent() are thin
  /// adapters over them.
  RadioMedium(core::Rng rng, RadioConfig config = {},
              obs::Telemetry* telemetry = nullptr);

  /// Registers a node. `position` is sampled at send/deliver time.
  void attach(NodeId node, PositionFn position, ReceiveFn receive);
  void detach(NodeId node);

  /// Queues a frame for transmission at `now`; delivery happens on the
  /// next step() whose time exceeds the frame latency.
  void send(Frame frame, core::SimTime now);

  /// Delivers all due frames; applies loss, collision, jamming, drops.
  /// Not re-entrant: a receive callback may send(), attach() or
  /// detach(), but must not call step().
  void step(core::SimTime now);

  // --- Attack surface controls (driven by attacker models / benches) ---
  std::size_t add_jammer(Jammer jammer);
  void set_jammer_active(std::size_t index, bool active);
  std::size_t add_drop_rule(DropRule rule);

  /// Counters per outcome since construction (registry-backed views).
  [[nodiscard]] std::uint64_t count(DeliveryOutcome outcome) const;
  [[nodiscard]] std::uint64_t total_sent() const { return c_sent_->value(); }

  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return *telemetry_; }

  /// Adds a tap seeing every frame *before* channel effects (promiscuous
  /// attacker / IDS sensor view). Multiple taps may coexist.
  void add_sniffer(std::function<void(const Frame&)> sniffer);

  [[nodiscard]] const RadioConfig& config() const { return config_; }

 private:
  struct Endpoint {
    PositionFn position;
    ReceiveFn receive;
  };
  struct Pending {
    Frame frame;
    core::SimTime deliver_at;
    std::uint64_t seq = 0;  ///< send order; tie-break for equal deliver_at
  };
  /// Heap predicate: the frame delivering *later* sorts first under
  /// std::push_heap's max-heap convention, making queue_ a min-heap on
  /// (deliver_at, seq). The seq tie-break keeps equal-latency traffic in
  /// send order, so jitter-free configs behave exactly like the old FIFO.
  struct LaterDelivery {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  /// Per-destination outcome decision.
  DeliveryOutcome judge(const Frame& frame, const core::Vec2& src_pos,
                        const core::Vec2& dst_pos, bool collided);

  [[nodiscard]] bool jammed_at(const core::Vec2& pos, std::uint32_t channel);
  [[nodiscard]] bool dropped(const Frame& frame);

  /// Node snapshot for one step's broadcast fan-outs: id and position
  /// sampled once at step time. Deliberately no Endpoint pointer: receive
  /// callbacks may attach/detach re-entrantly, so the endpoint is re-found
  /// by id at delivery time (and skipped if it vanished mid-step).
  struct BcastNode {
    NodeId id;
    core::Vec2 pos;
  };
  /// Rebuilds bcast_nodes_ (ascending id) for the current step.
  void build_broadcast_snapshot();

  core::Rng rng_;
  RadioConfig config_;
  std::unordered_map<NodeId, Endpoint> endpoints_;
  /// Attached node ids in ascending order: drives broadcast fan-out so
  /// delivery (and therefore RNG consumption) order is deterministic
  /// instead of following unordered_map iteration order.
  std::vector<NodeId> sorted_ids_;
  /// Per-step broadcast snapshot, reused across steps. Every broadcast
  /// judges every other node in it; judge() returns kOutOfRange before
  /// drawing any randomness, so distant nodes cost a distance check.
  std::vector<BcastNode> bcast_nodes_;
  /// Min-heap on (deliver_at, seq) via LaterDelivery. A plain FIFO deque
  /// here once caused head-of-line blocking: latency jitter makes
  /// deliver_at non-monotone in send order, and a front frame with a high
  /// jitter draw stalled every already-due frame behind it.
  std::vector<Pending> queue_;
  std::uint64_t send_seq_ = 0;
  /// step()'s scratch: the due frames in (deliver_at, seq) order, their
  /// collision marks, and their (channel, sent_at) sort order.
  std::vector<Pending> due_;
  std::vector<bool> collided_;
  std::vector<std::size_t> order_;
  std::vector<Jammer> jammers_;
  std::vector<DropRule> drop_rules_;
  std::vector<std::function<void(const Frame&)>> sniffers_;

  // Telemetry: injected or owned (see constructor); outcome counters are
  // registry instruments, resolved once. step() runs serially, so flight
  // events for adversarial outcomes (collision/jam/drop/path-loss) are
  // recorded in a deterministic order.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  std::array<obs::Counter*, 6> c_outcomes_{};
  obs::Counter* c_sent_ = nullptr;
};

}  // namespace agrarsec::net
