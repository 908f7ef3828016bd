#include "net/message.h"

#include <algorithm>
#include <cstring>

namespace agrarsec::net {

namespace {
void write_double(std::uint8_t* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  core::store_le64(out, bits);
}

double read_double(const std::uint8_t* p) {
  const std::uint64_t bits = core::load_le64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}
}  // namespace

std::string_view message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kHeartbeat: return "heartbeat";
    case MessageType::kTelemetry: return "telemetry";
    case MessageType::kDetectionReport: return "detection-report";
    case MessageType::kEstopCommand: return "estop-command";
    case MessageType::kEstopAck: return "estop-ack";
    case MessageType::kMissionCommand: return "mission-command";
    case MessageType::kHandshake: return "handshake";
    case MessageType::kSecureRecord: return "secure-record";
    case MessageType::kFirmwareChunk: return "firmware-chunk";
    case MessageType::kGnssCorrection: return "gnss-correction";
    case MessageType::kCrlUpdate: return "crl-update";
  }
  return "?";
}

void write_message_header(std::uint8_t* out, MessageType type, std::uint64_t sender,
                          std::uint64_t sequence, core::SimTime timestamp,
                          std::size_t body_size) {
  out[0] = static_cast<std::uint8_t>(type);
  core::store_le64(out + 1, sender);
  core::store_le64(out + 9, sequence);
  core::store_le64(out + 17, static_cast<std::uint64_t>(timestamp));
  core::store_be32(out + 25, static_cast<std::uint32_t>(body_size));
}

core::Bytes Message::encode() const {
  core::Bytes out(kMessageHeaderSize + body.size());
  write_message_header(out.data(), type, sender, sequence, timestamp, body.size());
  std::copy(body.begin(), body.end(), out.begin() + kMessageHeaderSize);
  return out;
}

std::optional<Message> Message::decode(std::span<const std::uint8_t> data) {
  const auto view = MessageView::decode(data);
  if (!view) return std::nullopt;
  return Message{view->type, view->sender, view->sequence, view->timestamp,
                 core::Bytes(view->body.begin(), view->body.end())};
}

std::optional<MessageView> MessageView::decode(std::span<const std::uint8_t> data) {
  if (data.size() < kMessageHeaderSize) return std::nullopt;
  if (data[0] > static_cast<std::uint8_t>(MessageType::kCrlUpdate)) return std::nullopt;
  const std::uint32_t body_len = core::load_be32(data.data() + 25);
  if (data.size() != kMessageHeaderSize + body_len) return std::nullopt;
  MessageView m;
  m.type = static_cast<MessageType>(data[0]);
  m.sender = core::load_le64(data.data() + 1);
  m.sequence = core::load_le64(data.data() + 9);
  m.timestamp = static_cast<core::SimTime>(core::load_le64(data.data() + 17));
  m.body = data.subspan(kMessageHeaderSize);
  return m;
}

void DetectionBody::encode_into(std::uint8_t* out) const {
  write_double(out, x);
  write_double(out + 8, y);
  write_double(out + 16, confidence);
  core::store_be32(out + 24, track_id);
}

core::Bytes DetectionBody::encode() const {
  core::Bytes out(kSize);
  encode_into(out.data());
  return out;
}

std::optional<DetectionBody> DetectionBody::decode(std::span<const std::uint8_t> data) {
  if (data.size() != kSize) return std::nullopt;
  DetectionBody b;
  b.x = read_double(data.data());
  b.y = read_double(data.data() + 8);
  b.confidence = read_double(data.data() + 16);
  b.track_id = core::load_be32(data.data() + 24);
  return b;
}

void TelemetryBody::encode_into(std::uint8_t* out) const {
  write_double(out, x);
  write_double(out + 8, y);
  write_double(out + 16, heading);
  write_double(out + 24, speed);
}

core::Bytes TelemetryBody::encode() const {
  core::Bytes out(kSize);
  encode_into(out.data());
  return out;
}

std::optional<TelemetryBody> TelemetryBody::decode(std::span<const std::uint8_t> data) {
  if (data.size() != kSize) return std::nullopt;
  TelemetryBody b;
  b.x = read_double(data.data());
  b.y = read_double(data.data() + 8);
  b.heading = read_double(data.data() + 16);
  b.speed = read_double(data.data() + 24);
  return b;
}

core::Bytes EstopBody::encode() const {
  core::Bytes out;
  core::append_be32(out, reason);
  core::append_le64(out, target);
  return out;
}

std::optional<EstopBody> EstopBody::decode(std::span<const std::uint8_t> data) {
  if (data.size() != 12) return std::nullopt;
  EstopBody b;
  b.reason = core::load_be32(data.data());
  b.target = core::load_le64(data.data() + 4);
  return b;
}

}  // namespace agrarsec::net
