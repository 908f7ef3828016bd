// Application-level message format carried in radio frames. This is the
// *insecure* baseline wire format (plaintext, unauthenticated) — exactly
// what the attacker models exploit; the secure channel in src/secure wraps
// these messages in authenticated records, and the benches compare the
// two configurations.
//
// Wire layout: a kMessageHeaderSize-byte header (type, le64 sender, le64
// sequence, le64 timestamp, be32 body length), then the body. The hot
// paths write headers with write_message_header and bodies with
// encode_into, and parse with MessageView, all in caller-owned bytes
// (DESIGN.md §25). Message and the bodies' encode()/decode() are owned
// adapters over those for the attacker models, the tests and the benches.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/bytes.h"
#include "core/time.h"
#include "core/types.h"

namespace agrarsec::net {

enum class MessageType : std::uint8_t {
  kHeartbeat = 0,
  kTelemetry = 1,         ///< position/speed/heading report
  kDetectionReport = 2,   ///< people-detection result (drone -> forwarder)
  kEstopCommand = 3,      ///< emergency stop request
  kEstopAck = 4,
  kMissionCommand = 5,    ///< route/task assignment (operator -> machine)
  kHandshake = 6,         ///< secure-channel handshake payload
  kSecureRecord = 7,      ///< AEAD record (payload is an encrypted Message)
  kFirmwareChunk = 8,
  kGnssCorrection = 9,
  kCrlUpdate = 10,
};

[[nodiscard]] std::string_view message_type_name(MessageType type);

/// Wire size of a message header.
inline constexpr std::size_t kMessageHeaderSize = 1 + 8 + 8 + 8 + 4;

/// Writes the header of a message with a `body_size`-byte body to
/// `out[0, kMessageHeaderSize)`. The one header writer.
void write_message_header(std::uint8_t* out, MessageType type, std::uint64_t sender,
                          std::uint64_t sequence, core::SimTime timestamp,
                          std::size_t body_size);

struct Message {
  MessageType type = MessageType::kHeartbeat;
  std::uint64_t sender = 0;    ///< claimed sender id (spoofable in plaintext!)
  std::uint64_t sequence = 0;
  core::SimTime timestamp = 0;
  core::Bytes body;            ///< type-specific payload

  [[nodiscard]] core::Bytes encode() const;
  /// Copies out of MessageView::decode.
  static std::optional<Message> decode(std::span<const std::uint8_t> data);
};

/// A message parsed in place: `body` views the decoded bytes, so it lives
/// only as long as they do. The one message parser.
struct MessageView {
  MessageType type = MessageType::kHeartbeat;
  std::uint64_t sender = 0;
  std::uint64_t sequence = 0;
  core::SimTime timestamp = 0;
  std::span<const std::uint8_t> body;

  static std::optional<MessageView> decode(std::span<const std::uint8_t> data);
};

/// Body codec for detection reports (drone/forwarder people detection).
struct DetectionBody {
  static constexpr std::size_t kSize = 28;

  double x = 0.0;
  double y = 0.0;
  double confidence = 0.0;
  std::uint32_t track_id = 0;

  /// Writes the kSize-byte encoding to `out`.
  void encode_into(std::uint8_t* out) const;
  [[nodiscard]] core::Bytes encode() const;
  static std::optional<DetectionBody> decode(std::span<const std::uint8_t> data);
};

/// Body codec for telemetry.
struct TelemetryBody {
  static constexpr std::size_t kSize = 32;

  double x = 0.0;
  double y = 0.0;
  double heading = 0.0;
  double speed = 0.0;

  /// Writes the kSize-byte encoding to `out`.
  void encode_into(std::uint8_t* out) const;
  [[nodiscard]] core::Bytes encode() const;
  static std::optional<TelemetryBody> decode(std::span<const std::uint8_t> data);
};

/// Body codec for e-stop commands.
struct EstopBody {
  std::uint32_t reason = 0;  ///< stable reason codes (safety::EstopReason)
  std::uint64_t target = 0;  ///< machine id value, 0 = all

  [[nodiscard]] core::Bytes encode() const;
  static std::optional<EstopBody> decode(std::span<const std::uint8_t> data);
};

}  // namespace agrarsec::net
