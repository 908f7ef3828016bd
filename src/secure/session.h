// Authenticated record layer over an established session: per-direction
// ChaCha20-Poly1305 keys, sequence-number nonces, and an RFC 4303-style
// sliding-bitmap anti-replay window. This is what turns the plaintext
// net::Message baseline into an integrity- and confidentiality-protected
// link.
//
// Two shapes of the same record path (DESIGN.md §25). The hot path seals
// by appending the record's wire bytes to a caller's buffer
// (seal_append) and opens a RecordView, parsed in place, into a caller's
// scratch span (open_into); neither allocates once the caller's buffers
// have the capacity. seal() and open() are owned-buffer adapters over
// them for the console, the benches and the tests.
//
// Anti-replay design: the lossy RadioMedium delivers frames from a
// min-heap keyed on (deliver_at, seq), so two records sealed in order can
// legitimately arrive swapped whenever their propagation jitter differs.
// A strict high-water-mark check (the original implementation) drops the
// late-but-genuine record of every such swap. Instead we keep the highest
// authenticated sequence plus a kReplayWindow-entry bitmap of the
// sequences just below it: unseen in-window records are accepted out of
// order, exact duplicates are rejected as replays, and records older than
// the window are rejected as too old (an attacker holding a record back
// longer than the window gains nothing; application-level freshness
// covers the rest). The window only advances after AEAD authentication
// succeeds, so forged sequence numbers cannot poison the window state.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/bytes.h"
#include "core/result.h"

namespace agrarsec::secure {

/// Directional key material.
struct SessionKeys {
  std::array<std::uint8_t, 32> send_key{};
  std::array<std::uint8_t, 32> recv_key{};
};

/// Wire size of a record header: le64 sequence, then the be32 length of
/// the AEAD output that follows it.
inline constexpr std::size_t kRecordHeaderSize = 12;

/// A sealed record: sequence number + AEAD ciphertext. The sequence is
/// bound into both the nonce and the AAD.
struct Record {
  std::uint64_t sequence = 0;
  core::Bytes ciphertext;  ///< AEAD output (ct || tag)

  [[nodiscard]] core::Bytes encode() const;
  /// Copies out of RecordView::decode.
  static std::optional<Record> decode(std::span<const std::uint8_t> data);
};

/// A record parsed in place: `ciphertext` views the decoded bytes, so it
/// lives only as long as they do. The one record parser.
struct RecordView {
  std::uint64_t sequence = 0;
  std::span<const std::uint8_t> ciphertext;  ///< AEAD output (ct || tag)

  static std::optional<RecordView> decode(std::span<const std::uint8_t> data);
};

class Session {
 public:
  /// Sliding anti-replay window size (highest accepted sequence plus the
  /// kReplayWindow-1 sequences below it are tracked). 64 matches the
  /// RFC 4303 minimum and comfortably covers the radio medium's
  /// reordering depth (propagation jitter is bounded by a few steps).
  static constexpr std::uint64_t kReplayWindow = 64;

  /// Longest link AAD a record binds. The AEAD's AAD, le64(sequence) ||
  /// aad, is built on the stack; a longer `aad` throws
  /// std::invalid_argument.
  static constexpr std::size_t kMaxAadSize = 56;

  Session(SessionKeys keys, std::string peer_subject);

  /// Seals `plaintext` under the next sequence and appends the record's
  /// wire bytes, exactly Record::encode() of the equivalent seal(), to
  /// `out`: header, ciphertext, tag. Allocates only when `out` lacks the
  /// capacity. `plaintext` must not view `out`.
  void seal_append(std::span<const std::uint8_t> plaintext, core::Bytes& out,
                   std::span<const std::uint8_t> aad = {});

  /// Opens `record` into the front of `plaintext`, which must hold at least
  /// record.ciphertext.size() - 16 bytes, and returns that front part.
  /// Rejects authentication failures ("bad_record"), duplicates of
  /// already-accepted sequences ("replay") and records older than the
  /// sliding window ("too_old"); unseen sequences inside the window are
  /// accepted even when they arrive out of order. A rejection bumps its
  /// own counter and changes nothing else: not the window, not the other
  /// counters, not `plaintext`.
  [[nodiscard]] core::Result<std::span<const std::uint8_t>> open_into(
      const RecordView& record, std::span<std::uint8_t> plaintext,
      std::span<const std::uint8_t> aad = {});

  /// Owned adapter over seal_append's sealing: one allocation, the
  /// ciphertext. `aad` binds link metadata (e.g. message type).
  [[nodiscard]] Record seal(std::span<const std::uint8_t> plaintext,
                            std::span<const std::uint8_t> aad = {});

  /// Owned adapter over open_into: same checks and errors, plaintext
  /// returned in a new buffer.
  [[nodiscard]] core::Result<core::Bytes> open(const Record& record,
                                               std::span<const std::uint8_t> aad = {});

  [[nodiscard]] const std::string& peer_subject() const { return peer_subject_; }
  [[nodiscard]] std::uint64_t sent_count() const { return send_sequence_; }
  /// Records rejected as true duplicates (sequence already accepted).
  [[nodiscard]] std::uint64_t replay_rejections() const { return replay_rejections_; }
  /// Records rejected because they fell behind the sliding window.
  [[nodiscard]] std::uint64_t too_old_rejections() const { return too_old_rejections_; }
  /// Genuine records accepted below the high-water mark (reordered
  /// delivery the strict pre-window check would have dropped).
  [[nodiscard]] std::uint64_t out_of_order_accepted() const {
    return out_of_order_accepted_;
  }
  [[nodiscard]] std::uint64_t auth_failures() const { return auth_failures_; }

 private:
  /// Where a received sequence falls against the window.
  enum class WindowSlot : std::uint8_t {
    kAhead,   ///< above the high-water mark (or the first record)
    kUnseen,  ///< inside the window, not yet accepted
    kReplay,  ///< inside the window, already accepted
    kTooOld,  ///< behind the window
  };
  [[nodiscard]] WindowSlot classify(std::uint64_t seq) const;
  /// Marks an authenticated `seq` of class kAhead or kUnseen accepted.
  void advance(std::uint64_t seq, WindowSlot slot);
  /// Seals `sealed` (plaintext, then tag room) under the next sequence
  /// and returns that sequence. An oversized `aad` throws before anything
  /// changes.
  std::uint64_t seal_next(std::span<const std::uint8_t> aad,
                          std::span<std::uint8_t> sealed);

  SessionKeys keys_;
  std::string peer_subject_;
  std::uint64_t send_sequence_ = 0;
  /// Highest sequence that passed authentication; bit i of window_bits_
  /// set means sequence (highest_received_ - i) was accepted.
  std::uint64_t highest_received_ = 0;
  std::uint64_t window_bits_ = 0;
  bool any_received_ = false;
  std::uint64_t replay_rejections_ = 0;
  std::uint64_t too_old_rejections_ = 0;
  std::uint64_t out_of_order_accepted_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace agrarsec::secure
