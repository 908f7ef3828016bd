#include "sensors/perception.h"

#include <cmath>
#include <numbers>

namespace agrarsec::sensors {

namespace {
/// Lowest confidence a genuine detection reports, however far or
/// weather-degraded.
constexpr double kConfidenceFloor = 0.55;
}  // namespace

std::string_view modality_name(Modality modality) {
  switch (modality) {
    case Modality::kLidar: return "lidar";
    case Modality::kCamera: return "camera";
  }
  return "?";
}

sim::WeatherEffect weather_effect(Modality modality, sim::Weather weather) {
  using sim::Weather;
  if (modality == Modality::kLidar) {
    switch (weather) {
      case Weather::kClear: return {1.0, 0.0};
      case Weather::kRain: return {0.85, 0.03};
      case Weather::kFog: return {0.70, 0.06};
      case Weather::kSnow: return {0.60, 0.10};
    }
  } else {
    switch (weather) {
      case Weather::kClear: return {1.0, 0.0};
      case Weather::kRain: return {0.75, 0.05};
      case Weather::kFog: return {0.45, 0.15};
      case Weather::kSnow: return {0.65, 0.08};
    }
  }
  return {1.0, 0.0};
}

PerceptionSensor::PerceptionSensor(SensorId id, PerceptionConfig config)
    : id_(id), config_(config) {}

std::vector<Detection> PerceptionSensor::sense(const sim::Worksite& site,
                                               const sim::Machine& carrier,
                                               core::SimTime now,
                                               core::Rng& rng) const {
  std::vector<Detection> out;
  sense_into(site, carrier, now, rng, out);
  return out;
}

void PerceptionSensor::sense_into(const sim::Worksite& site, const sim::Machine& carrier,
                                  core::SimTime now, core::Rng& rng,
                                  std::vector<Detection>& out) const {
  out.clear();
  if (attack_.blind) {
    // A blinded sensor produces nothing (plus any injected ghosts below —
    // saturation attacks can coexist with spoofed returns).
  }

  const sim::WeatherEffect wx = weather_effect(config_.modality, site.weather());
  const double effective_range = config_.range_m * wx.range_factor;
  const core::Vec2 origin = carrier.position();
  const double origin_agl = carrier.sensor_agl();

  if (!attack_.blind) {
    site.humans_within(origin, effective_range, candidates_);
    const bool fov_limited = config_.fov_rad < 2.0 * std::numbers::pi - 1e-6;
    for (const sim::Human* human : candidates_) {
      const core::Vec2 hpos = human->position();
      if (fov_limited) {
        // FOV check (forward-looking cameras; spinning lidar is 2*pi).
        const core::Vec2 delta = hpos - origin;
        const double bearing = std::atan2(delta.y, delta.x);
        if (core::angular_distance(bearing, carrier.heading()) > config_.fov_rad / 2.0) {
          continue;
        }
      }
      // Sight line to the human's torso height.
      if (!site.terrain().line_of_sight(origin, origin_agl, hpos,
                                        human->height() * 0.7)) {
        continue;
      }

      // Distance-decaying per-frame detection probability.
      const double range_frac = core::distance(origin, hpos) / effective_range;
      double p = config_.base_detect_prob * (1.0 - 0.5 * range_frac * range_frac);
      p -= wx.extra_miss_probability;
      if (!rng.chance(std::max(0.0, p))) continue;

      Detection d;
      d.target = human->id();
      d.position = hpos + core::Vec2{rng.normal(0, config_.position_noise_m),
                                     rng.normal(0, config_.position_noise_m)};
      d.confidence = std::max(kConfidenceFloor, 1.0 - 0.4 * range_frac -
                                                    wx.extra_miss_probability * 2.0);
      d.source = id_;
      d.time = now;
      out.push_back(d);
    }
  }

  // Spoofed ghost returns (LiDAR relay / camera adversarial patch).
  for (std::uint32_t g = 0; g < attack_.ghosts; ++g) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double radius = rng.uniform(2.0, attack_.ghost_radius_m);
    Detection d;
    d.target = HumanId::invalid();
    d.position = origin + core::Vec2{std::cos(angle), std::sin(angle)} * radius;
    d.confidence = rng.uniform(0.6, 0.95);
    d.source = id_;
    d.time = now;
    d.ghost = true;
    out.push_back(d);
  }
}

}  // namespace agrarsec::sensors
