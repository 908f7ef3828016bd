#include "obs/metrics.h"

#include <algorithm>

#include "core/json.h"

namespace agrarsec::obs {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins == 0 ? 1 : bins), counts_(bins_, 0) {}

void Histogram::add(double x) {
  ++count_;
  sum_ += x;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) * static_cast<double>(bins_));
  if (bin >= bins_) bin = bins_ - 1;
  ++counts_[bin];
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(lo, hi, bins)))
             .first;
  }
  return *it->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

std::string Registry::to_json(std::string_view exclude_prefix) const {
  const auto excluded = [&exclude_prefix](std::string_view name) {
    return !exclude_prefix.empty() && name.size() >= exclude_prefix.size() &&
           name.substr(0, exclude_prefix.size()) == exclude_prefix;
  };
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out.push_back(':');
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out.push_back(':');
    core::append_json_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    core::append_json_string(out, name);
    out += ":{\"lo\":";
    core::append_json_number(out, h->lo());
    out += ",\"hi\":";
    core::append_json_number(out, h->hi());
    out += ",\"bins\":[";
    for (std::size_t i = 0; i < h->bins(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(h->bin_count(i));
    }
    out += "],\"underflow\":" + std::to_string(h->underflow());
    out += ",\"overflow\":" + std::to_string(h->overflow());
    out += ",\"count\":" + std::to_string(h->count());
    if (h->count() > 0) {
      out += ",\"sum\":";
      core::append_json_number(out, h->sum());
      out += ",\"min\":";
      core::append_json_number(out, h->min());
      out += ",\"max\":";
      core::append_json_number(out, h->max());
    }
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace agrarsec::obs
