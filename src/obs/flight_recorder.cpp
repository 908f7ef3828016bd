#include "obs/flight_recorder.h"

#include "core/json.h"
#include "obs/trace.h"

namespace agrarsec::obs {

namespace {

/// The one serializer for a flight event line — to_jsonl() and
/// read_since() both render through it, so streamed payloads are
/// byte-identical to the polled export by construction.
void append_event_line(std::string& out, const FlightEvent& e) {
  out += "{\"seq\":" + std::to_string(e.seq);
  out += ",\"t\":" + std::to_string(e.time);
  out += ",\"cat\":";
  core::append_json_string(out, e.category);
  out += ",\"code\":";
  core::append_json_string(out, e.code);
  out += ",\"subject\":" + std::to_string(e.subject);
  if (e.a != 0) out += ",\"a\":" + std::to_string(e.a);
  if (e.b != 0) out += ",\"b\":" + std::to_string(e.b);
  if (!e.detail.empty()) {
    out += ",\"detail\":";
    core::append_json_string(out, e.detail);
  }
  out += "}\n";
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_ < 64 ? capacity_ : 64);
}

std::size_t FlightRecorder::size() const { return ring_.size(); }

const FlightEvent& FlightRecorder::at_oldest(std::size_t i) const {
  // Before wraparound head_ is 0 and the ring is in order; afterwards the
  // oldest element sits at head_ (the next slot to be overwritten).
  return ring_[(head_ + i) % ring_.size()];
}

void FlightRecorder::record(core::SimTime time, std::string_view category,
                            std::string_view code, std::uint64_t subject, std::uint64_t a,
                            std::uint64_t b, std::string_view detail) {
  FlightEvent* slot;
  if (ring_.size() < capacity_) {
    slot = &ring_.emplace_back();
  } else {
    slot = &ring_[head_];
    head_ = (head_ + 1) % capacity_;
  }
  slot->seq = next_seq_++;
  slot->time = time;
  slot->category.assign(category);
  slot->code.assign(code);
  slot->subject = subject;
  slot->a = a;
  slot->b = b;
  slot->detail.assign(detail);
  slot->wall_ns = Tracer::now_ns();
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  for_each([&out](const FlightEvent& e) { append_event_line(out, e); });
  return out;
}

FlightRecorder::ReadResult FlightRecorder::read_since(std::uint64_t cursor,
                                                      std::size_t max_events,
                                                      std::string& out) const {
  ReadResult result;
  const std::uint64_t oldest = next_seq_ - size();
  if (cursor < oldest) {
    result.dropped = oldest - cursor;
    cursor = oldest;
  }
  result.next_cursor = cursor;
  if (cursor >= next_seq_) return result;  // caught up
  std::size_t index = static_cast<std::size_t>(cursor - oldest);
  const std::size_t held = size();
  while (index < held && result.events < max_events) {
    append_event_line(out, at_oldest(index));
    ++index;
    ++result.events;
  }
  result.next_cursor = cursor + result.events;
  return result;
}

std::string FlightRecorder::wall_annex_jsonl() const {
  std::string out;
  for_each([&out](const FlightEvent& e) {
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"wall_ns\":" + std::to_string(e.wall_ns);
    out += "}\n";
  });
  return out;
}

}  // namespace agrarsec::obs
