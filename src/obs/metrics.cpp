#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace agrarsec::obs {

namespace {

/// Shortest round-trip formatting for doubles (%.17g is always exact; try
/// shorter forms first so gauges like 12.5 print as "12.5").
std::string format_double(double v) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

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

}  // namespace

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
    append_json_string(out, name);
    out.push_back(':');
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out.push_back(':');
    out += format_double(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (excluded(name)) continue;
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out += ":{\"lo\":" + format_double(h->lo()) + ",\"hi\":" + format_double(h->hi());
    out += ",\"bins\":[";
    for (std::size_t i = 0; i < h->bins(); ++i) {
      if (i != 0) out.push_back(',');
      out += std::to_string(h->bin_count(i));
    }
    out += "],\"underflow\":" + std::to_string(h->underflow());
    out += ",\"overflow\":" + std::to_string(h->overflow());
    out += ",\"count\":" + std::to_string(h->count());
    if (h->count() > 0) {
      out += ",\"sum\":" + format_double(h->sum());
      out += ",\"min\":" + format_double(h->min());
      out += ",\"max\":" + format_double(h->max());
    }
    out.push_back('}');
  }
  out += "}}";
  return out;
}

}  // namespace agrarsec::obs
