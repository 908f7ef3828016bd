// People-perception sensors (LiDAR / camera) mounted on machines. The
// model captures the properties the paper's Figure 2 experiment turns on:
//   - occlusion: detection requires 3D line of sight through the terrain,
//     so a ground-level forwarder mast is blocked by boulders/brush/stems
//     while a drone at altitude sees over them;
//   - range/weather: per-modality effective range shrinks in rain/fog/snow
//     (Hasirlioglu & Riener-style degradation, paper ref [19]);
//   - attacks: camera blinding and LiDAR ghost injection (Petit et al.,
//     paper ref [28]).
#pragma once

#include <optional>
#include <vector>

#include "core/rng.h"
#include "sensors/detection.h"
#include "sim/machine.h"
#include "sim/terrain.h"
#include "sim/weather.h"
#include "sim/worksite.h"

namespace agrarsec::sensors {

enum class Modality : std::uint8_t { kLidar = 0, kCamera = 1 };

[[nodiscard]] std::string_view modality_name(Modality modality);

/// Per-modality weather degradation.
[[nodiscard]] sim::WeatherEffect weather_effect(Modality modality, sim::Weather weather);

struct PerceptionConfig {
  Modality modality = Modality::kLidar;
  double range_m = 40.0;
  double fov_rad = 6.283185307179586;  ///< full circle for spinning lidar
  double base_detect_prob = 0.97;      ///< per frame, close range, clear LOS
  double position_noise_m = 0.35;
};

/// Active attack state against one sensor.
struct SensorAttack {
  bool blind = false;           ///< camera dazzle / lidar saturation
  std::uint32_t ghosts = 0;     ///< spoofed returns per frame
  double ghost_radius_m = 25.0; ///< ghosts appear within this radius
};

class PerceptionSensor {
 public:
  PerceptionSensor(SensorId id, PerceptionConfig config);

  [[nodiscard]] SensorId id() const { return id_; }
  [[nodiscard]] const PerceptionConfig& config() const { return config_; }

  void set_attack(SensorAttack attack) { attack_ = attack; }
  [[nodiscard]] const SensorAttack& attack() const { return attack_; }

  /// One sensing frame from `carrier`'s pose at `now`. Humans are
  /// detectable when: within weather-adjusted range, inside the FOV, and
  /// with 3D line of sight from the sensor origin. Each visible human is
  /// detected with a distance-decaying probability.
  ///
  /// One loop over Worksite::humans_within (ascending human id): the
  /// range, FOV and line-of-sight checks draw no randomness, so the
  /// detection rolls consume the stream in ascending-id order. Uses
  /// mutable candidate scratch, so a sensor instance is not thread-safe
  /// (matches the rest of the simulation core).
  ///
  /// Clears `out` and fills it with the frame's detections, so a caller
  /// that keeps `out` senses without allocating once it has grown.
  void sense_into(const sim::Worksite& site, const sim::Machine& carrier,
                  core::SimTime now, core::Rng& rng, std::vector<Detection>& out) const;
  /// sense_into into a fresh vector (same detections, same draws).
  [[nodiscard]] std::vector<Detection> sense(const sim::Worksite& site,
                                             const sim::Machine& carrier,
                                             core::SimTime now, core::Rng& rng) const;

 private:
  SensorId id_;
  PerceptionConfig config_;
  SensorAttack attack_;
  /// Range-query scratch (allocation-free after warmup).
  mutable std::vector<const sim::Human*> candidates_;
};

}  // namespace agrarsec::sensors
