#include "secure/session.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "crypto/aead.h"

namespace agrarsec::secure {

namespace {

std::array<std::uint8_t, 12> nonce_for(std::uint64_t sequence) {
  std::array<std::uint8_t, 12> nonce{};
  core::store_le64(nonce.data() + 4, sequence);
  return nonce;
}

void write_record_header(std::uint8_t* out, std::uint64_t sequence,
                         std::size_t sealed_size) {
  core::store_le64(out, sequence);
  core::store_be32(out + 8, static_cast<std::uint32_t>(sealed_size));
}

void require_aad_fits(std::span<const std::uint8_t> aad) {
  if (aad.size() > Session::kMaxAadSize) {
    throw std::invalid_argument("secure::Session: aad longer than kMaxAadSize");
  }
}

/// le64(sequence) || aad, the AEAD's associated data, built on the stack.
class RecordAad {
 public:
  RecordAad(std::uint64_t sequence, std::span<const std::uint8_t> aad)
      : size_(8 + aad.size()) {
    require_aad_fits(aad);
    core::store_le64(bytes_.data(), sequence);
    std::copy(aad.begin(), aad.end(), bytes_.begin() + 8);
  }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return {bytes_.data(), size_}; }

 private:
  std::array<std::uint8_t, 8 + Session::kMaxAadSize> bytes_;
  std::size_t size_;
};

}  // namespace

core::Bytes Record::encode() const {
  core::Bytes out(kRecordHeaderSize + ciphertext.size());
  write_record_header(out.data(), sequence, ciphertext.size());
  std::copy(ciphertext.begin(), ciphertext.end(), out.begin() + kRecordHeaderSize);
  return out;
}

std::optional<Record> Record::decode(std::span<const std::uint8_t> data) {
  const auto view = RecordView::decode(data);
  if (!view) return std::nullopt;
  return Record{view->sequence, core::Bytes(view->ciphertext.begin(), view->ciphertext.end())};
}

std::optional<RecordView> RecordView::decode(std::span<const std::uint8_t> data) {
  if (data.size() < kRecordHeaderSize) return std::nullopt;
  const std::uint32_t len = core::load_be32(data.data() + 8);
  if (data.size() != kRecordHeaderSize + len) return std::nullopt;
  return RecordView{core::load_le64(data.data()), data.subspan(kRecordHeaderSize)};
}

Session::Session(SessionKeys keys, std::string peer_subject)
    : keys_(keys), peer_subject_(std::move(peer_subject)) {}

std::uint64_t Session::seal_next(std::span<const std::uint8_t> aad,
                                 std::span<std::uint8_t> sealed) {
  const RecordAad full{send_sequence_ + 1, aad};
  const std::uint64_t seq = ++send_sequence_;
  crypto::aead_seal_in_place(keys_.send_key, nonce_for(seq), full.view(), sealed);
  return seq;
}

void Session::seal_append(std::span<const std::uint8_t> plaintext, core::Bytes& out,
                          std::span<const std::uint8_t> aad) {
  require_aad_fits(aad);
  const std::size_t start = out.size();
  const std::size_t sealed_size = plaintext.size() + crypto::kAeadTagSize;
  out.resize(start + kRecordHeaderSize + sealed_size);
  const auto sealed = std::span(out).subspan(start + kRecordHeaderSize);
  std::copy(plaintext.begin(), plaintext.end(), sealed.begin());
  write_record_header(out.data() + start, seal_next(aad, sealed), sealed_size);
}

Record Session::seal(std::span<const std::uint8_t> plaintext,
                     std::span<const std::uint8_t> aad) {
  Record r;
  r.ciphertext.resize(plaintext.size() + crypto::kAeadTagSize);
  std::copy(plaintext.begin(), plaintext.end(), r.ciphertext.begin());
  r.sequence = seal_next(aad, r.ciphertext);
  return r;
}

Session::WindowSlot Session::classify(std::uint64_t seq) const {
  if (!any_received_ || seq > highest_received_) return WindowSlot::kAhead;
  const std::uint64_t age = highest_received_ - seq;
  if (age >= kReplayWindow) return WindowSlot::kTooOld;
  if ((window_bits_ >> age) & 1U) return WindowSlot::kReplay;
  return WindowSlot::kUnseen;
}

void Session::advance(std::uint64_t seq, WindowSlot slot) {
  if (slot == WindowSlot::kUnseen) {
    window_bits_ |= 1ULL << (highest_received_ - seq);
    ++out_of_order_accepted_;
    return;
  }
  const std::uint64_t shift = any_received_ ? seq - highest_received_ : 0;
  window_bits_ = shift >= kReplayWindow ? 0 : window_bits_ << shift;
  window_bits_ |= 1U;  // bit 0 = the new highest itself
  highest_received_ = seq;
  any_received_ = true;
}

core::Result<std::span<const std::uint8_t>> Session::open_into(
    const RecordView& record, std::span<std::uint8_t> plaintext,
    std::span<const std::uint8_t> aad) {
  // Classify against the sliding window first: duplicate and too-old
  // rejections are cheap and never touch the AEAD. The window advances
  // only after authentication succeeds, so a forged sequence number can
  // neither mark a slot seen nor advance the high-water mark.
  const std::uint64_t seq = record.sequence;
  const RecordAad full{seq, aad};
  const WindowSlot slot = classify(seq);
  if (slot == WindowSlot::kTooOld) {
    ++too_old_rejections_;
    return core::make_error("too_old", "record sequence " + std::to_string(seq) +
                                           " fell behind the replay window");
  }
  if (slot == WindowSlot::kReplay) {
    ++replay_rejections_;
    return core::make_error("replay", "record sequence " + std::to_string(seq) +
                                          " already accepted");
  }

  if (!crypto::aead_open_into(keys_.recv_key, nonce_for(seq), full.view(),
                              record.ciphertext, plaintext)
           .ok()) {
    ++auth_failures_;
    return core::make_error("bad_record", "record failed authentication");
  }
  advance(seq, slot);
  return std::span<const std::uint8_t>{
      plaintext.first(record.ciphertext.size() - crypto::kAeadTagSize)};
}

core::Result<core::Bytes> Session::open(const Record& record,
                                        std::span<const std::uint8_t> aad) {
  const std::size_t sealed_size = record.ciphertext.size();
  core::Bytes plaintext(sealed_size >= crypto::kAeadTagSize
                            ? sealed_size - crypto::kAeadTagSize
                            : 0);
  const auto opened = open_into(RecordView{record.sequence, record.ciphertext}, plaintext, aad);
  if (!opened.ok()) return opened.error();
  return plaintext;
}

}  // namespace agrarsec::secure
