// The in-place record path (DESIGN.md §25): append-sealing matches the
// owned encoding byte for byte, a rejected open changes nothing but its
// own counter, and the in-place decoders (net::MessageView,
// secure::RecordView) accept exactly what the owned decoders and a kept
// reference parser accept, under a seeded mutation loop.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/bytes.h"
#include "crypto/aead.h"
#include "crypto/random.h"
#include "net/message.h"
#include "secure/session.h"

namespace agrarsec::secure {
namespace {

/// The console's record AAD (service::kConsoleAad).
const core::Bytes kConsoleAad = core::from_string("agrarsec-console-v1");

SessionKeys make_keys(crypto::Drbg& drbg) {
  SessionKeys keys;
  keys.send_key = drbg.generate32();
  keys.recv_key = drbg.generate32();
  return keys;
}

/// The receiving end of a session sealed with `keys`.
SessionKeys reversed(const SessionKeys& keys) {
  SessionKeys r;
  r.send_key = keys.recv_key;
  r.recv_key = keys.send_key;
  return r;
}

std::uint32_t next_u32(crypto::Drbg& drbg) {
  return core::load_le32(drbg.generate(4).data());
}

TEST(RecordPath, SealAppendEqualsEncodedSeal) {
  crypto::Drbg drbg{25, "record-path"};
  const SessionKeys keys = make_keys(drbg);
  for (const bool with_aad : {false, true}) {
    const std::span<const std::uint8_t> aad =
        with_aad ? std::span<const std::uint8_t>(kConsoleAad) : std::span<const std::uint8_t>{};
    Session appender{keys, "peer"};
    Session owned{keys, "peer"};
    Session receiver{reversed(keys), "peer"};
    for (const std::size_t size : {0, 1, 15, 16, 17, 29, 57, 63, 64, 65, 200}) {
      const core::Bytes plaintext = drbg.generate(size);
      // Appended behind a header, as the drone appends behind the outer
      // message header, into a buffer that already has the capacity.
      core::Bytes out(net::kMessageHeaderSize, 0xEE);
      out.reserve(net::kMessageHeaderSize + kRecordHeaderSize + size + crypto::kAeadTagSize);
      const std::uint8_t* before = out.data();
      appender.seal_append(plaintext, out, aad);
      EXPECT_EQ(out.data(), before) << "seal_append reallocated a reserved buffer";

      core::Bytes expected(net::kMessageHeaderSize, 0xEE);
      const core::Bytes record = owned.seal(plaintext, aad).encode();
      expected.insert(expected.end(), record.begin(), record.end());
      ASSERT_EQ(core::to_hex(out), core::to_hex(expected)) << "size " << size;

      const auto view =
          RecordView::decode(std::span(out).subspan(net::kMessageHeaderSize));
      ASSERT_TRUE(view.has_value());
      core::Bytes scratch(view->ciphertext.size());
      const auto opened = receiver.open_into(*view, scratch, aad);
      ASSERT_TRUE(opened.ok()) << opened.error().to_string();
      EXPECT_EQ(core::Bytes(opened.value().begin(), opened.value().end()), plaintext);
      EXPECT_EQ(opened.value().data(), scratch.data());
    }
    EXPECT_EQ(appender.sent_count(), owned.sent_count());
  }
}

struct Counters {
  std::uint64_t sent, replay, too_old, out_of_order, auth;
  explicit Counters(const Session& s)
      : sent(s.sent_count()),
        replay(s.replay_rejections()),
        too_old(s.too_old_rejections()),
        out_of_order(s.out_of_order_accepted()),
        auth(s.auth_failures()) {}
  bool operator==(const Counters&) const = default;
};

TEST(RecordPath, FailedOpenLeavesWindowCountersAndPlaintextUntouched) {
  crypto::Drbg drbg{26, "record-path"};
  const SessionKeys keys = make_keys(drbg);
  Session sender{keys, "peer"};
  Session receiver{reversed(keys), "peer"};
  std::vector<core::Bytes> wire;  // record i + 1 at index i
  for (int i = 0; i < 80; ++i) wire.push_back(sender.seal(drbg.generate(57)).encode());
  auto view_of = [&](std::size_t seq) { return *RecordView::decode(wire.at(seq - 1)); };

  // Accept 70 and 72: the window then holds 70 and 72, 71 is unseen, and
  // everything at or below 72 - 64 = 8 is too old.
  core::Bytes scratch(128, 0);
  ASSERT_TRUE(receiver.open_into(view_of(70), scratch).ok());
  ASSERT_TRUE(receiver.open_into(view_of(72), scratch).ok());
  const core::Bytes sentinel(128, 0xA5);

  auto expect_rejected = [&](const RecordView& record, const std::string& code,
                             std::uint64_t Counters::*bumped) {
    core::Bytes plaintext = sentinel;
    Counters expected{receiver};
    ++(expected.*bumped);
    const auto opened = receiver.open_into(record, plaintext);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error().code, code);
    EXPECT_EQ(Counters{receiver}, expected) << code;
    EXPECT_EQ(plaintext, sentinel) << code;
  };

  // A forged tag on the unseen in-window sequence 71, and on a sequence
  // ahead of the window.
  core::Bytes forged = wire[70];
  forged.back() ^= 1;
  expect_rejected(*RecordView::decode(forged), "bad_record", &Counters::auth);
  core::Bytes forged_ahead = wire[75];
  forged_ahead[20] ^= 0x40;
  expect_rejected(*RecordView::decode(forged_ahead), "bad_record", &Counters::auth);
  // A replay of an accepted sequence, and a genuine record that is too old.
  expect_rejected(view_of(70), "replay", &Counters::replay);
  expect_rejected(view_of(8), "too_old", &Counters::too_old);

  // The window did not move: 71 still opens (out of order), 72 is still a
  // replay, and 9 is still inside the window.
  ASSERT_TRUE(receiver.open_into(view_of(71), scratch).ok());
  EXPECT_EQ(receiver.out_of_order_accepted(), 1u);
  EXPECT_EQ(receiver.open_into(view_of(72), scratch).error().code, "replay");
  EXPECT_TRUE(receiver.open_into(view_of(9), scratch).ok());
}

// The owned decoders as they stood before the views, kept as an
// independent reference: the views must accept exactly these inputs.
struct RefMessage {
  std::uint8_t type;
  std::uint64_t sender, sequence;
  core::SimTime timestamp;
  core::Bytes body;
};

std::optional<RefMessage> reference_message_decode(std::span<const std::uint8_t> data) {
  constexpr std::size_t kHeader = 1 + 8 + 8 + 8 + 4;
  if (data.size() < kHeader) return std::nullopt;
  if (data[0] > static_cast<std::uint8_t>(net::MessageType::kCrlUpdate)) return std::nullopt;
  const std::uint32_t body_len = core::load_be32(data.data() + 25);
  if (data.size() != kHeader + body_len) return std::nullopt;
  return RefMessage{data[0], core::load_le64(data.data() + 1),
                    core::load_le64(data.data() + 9),
                    static_cast<core::SimTime>(core::load_le64(data.data() + 17)),
                    core::Bytes(data.begin() + kHeader, data.end())};
}

std::optional<Record> reference_record_decode(std::span<const std::uint8_t> data) {
  if (data.size() < 12) return std::nullopt;
  const std::uint32_t len = core::load_be32(data.data() + 8);
  if (data.size() != 12 + static_cast<std::size_t>(len)) return std::nullopt;
  return Record{core::load_le64(data.data()), core::Bytes(data.begin() + 12, data.end())};
}

bool views_into(std::span<const std::uint8_t> part, std::span<const std::uint8_t> whole) {
  return part.data() + part.size() == whole.data() + whole.size();
}

/// Valid encodings: plain messages of every body shape, sealed records,
/// and kSecureRecord frames carrying them, as the drone builds them.
std::vector<core::Bytes> corpus(crypto::Drbg& drbg) {
  std::vector<core::Bytes> out;
  Session session{make_keys(drbg), "peer"};
  net::Message m;
  m.sender = 2;
  m.timestamp = 123400;
  for (const auto type : {net::MessageType::kHeartbeat, net::MessageType::kTelemetry,
                          net::MessageType::kDetectionReport,
                          net::MessageType::kEstopCommand, net::MessageType::kCrlUpdate}) {
    m.type = type;
    ++m.sequence;
    m.body.clear();
    if (type == net::MessageType::kTelemetry) m.body = net::TelemetryBody{1, 2, 3, 4}.encode();
    if (type == net::MessageType::kDetectionReport) {
      m.body = net::DetectionBody{10.5, -3.25, 0.9, 7}.encode();
    }
    if (type == net::MessageType::kEstopCommand) m.body = net::EstopBody{1, 0}.encode();
    if (type == net::MessageType::kCrlUpdate) m.body = drbg.generate(40);
    const core::Bytes inner = m.encode();
    out.push_back(inner);

    const core::Bytes record = session.seal(inner).encode();
    out.push_back(record);
    core::Bytes frame(net::kMessageHeaderSize);
    net::write_message_header(frame.data(), net::MessageType::kSecureRecord, 2, m.sequence,
                              m.timestamp, record.size());
    frame.insert(frame.end(), record.begin(), record.end());
    out.push_back(frame);
  }
  out.push_back(session.seal({}).encode());
  return out;
}

TEST(RecordPath, ViewDecodersMatchOwnedAndReferenceUnderMutation) {
  crypto::Drbg drbg{27, "view-mutation"};
  const std::vector<core::Bytes> seeds = corpus(drbg);
  std::size_t message_accepts = 0, record_accepts = 0, rejects_both = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    core::Bytes input = seeds[next_u32(drbg) % seeds.size()];
    const std::uint32_t pick = next_u32(drbg);
    const std::uint32_t arg = next_u32(drbg);
    switch (pick % 5) {
      case 0:  // truncate
        input.resize(arg % (input.size() + 1));
        break;
      case 1: {  // extend with 1-8 random bytes
        const core::Bytes tail = drbg.generate(1 + arg % 8);
        input.insert(input.end(), tail.begin(), tail.end());
        break;
      }
      case 2:  // flip one byte
        if (!input.empty()) input[arg % input.size()] ^= static_cast<std::uint8_t>(1 + (arg >> 8) % 255);
        break;
      case 3:    // rewrite the message length field (bytes 25-28)
      case 4: {  // rewrite the record length field (bytes 8-11)
        const std::size_t at = pick % 5 == 3 ? 25 : 8;
        if (input.size() < at + 4) break;
        const std::uint32_t current = core::load_be32(input.data() + at);
        // Half off by a little (-4..+3), half any value.
        const std::uint32_t value =
            (arg & 1) ? current + ((arg >> 1) % 8) - 4 : arg >> 1;
        core::store_be32(input.data() + at, value);
        break;
      }
    }

    const auto view = net::MessageView::decode(input);
    const auto owned = net::Message::decode(input);
    const auto ref = reference_message_decode(input);
    ASSERT_EQ(view.has_value(), ref.has_value()) << "iteration " << iteration;
    ASSERT_EQ(owned.has_value(), ref.has_value()) << "iteration " << iteration;
    if (ref) {
      ++message_accepts;
      EXPECT_EQ(static_cast<std::uint8_t>(view->type), ref->type);
      EXPECT_EQ(view->sender, ref->sender);
      EXPECT_EQ(view->sequence, ref->sequence);
      EXPECT_EQ(view->timestamp, ref->timestamp);
      EXPECT_EQ(core::Bytes(view->body.begin(), view->body.end()), ref->body);
      EXPECT_TRUE(views_into(view->body, input));
      EXPECT_EQ(static_cast<std::uint8_t>(owned->type), ref->type);
      EXPECT_EQ(owned->sender, ref->sender);
      EXPECT_EQ(owned->sequence, ref->sequence);
      EXPECT_EQ(owned->timestamp, ref->timestamp);
      EXPECT_EQ(owned->body, ref->body);
    }

    const auto record_view = RecordView::decode(input);
    const auto record_owned = Record::decode(input);
    const auto record_ref = reference_record_decode(input);
    ASSERT_EQ(record_view.has_value(), record_ref.has_value()) << "iteration " << iteration;
    ASSERT_EQ(record_owned.has_value(), record_ref.has_value()) << "iteration " << iteration;
    if (record_ref) {
      ++record_accepts;
      EXPECT_EQ(record_view->sequence, record_ref->sequence);
      EXPECT_EQ(core::Bytes(record_view->ciphertext.begin(), record_view->ciphertext.end()),
                record_ref->ciphertext);
      EXPECT_TRUE(views_into(record_view->ciphertext, input));
      EXPECT_EQ(record_owned->sequence, record_ref->sequence);
      EXPECT_EQ(record_owned->ciphertext, record_ref->ciphertext);
    }
    if (!ref && !record_ref) ++rejects_both;
  }
  // The loop exercised both outcomes of both decoders.
  EXPECT_GT(message_accepts, 500u);
  EXPECT_GT(record_accepts, 500u);
  EXPECT_GT(rejects_both, 500u);
}

}  // namespace
}  // namespace agrarsec::secure
