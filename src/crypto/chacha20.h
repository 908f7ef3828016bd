// ChaCha20 stream cipher (RFC 8439 §2.4). Verified against the RFC test
// vectors in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/bytes.h"

namespace agrarsec::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kBlockSize = 64;

  ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
           std::uint32_t initial_counter = 0);

  /// XORs the keystream into `data` in place (encrypt == decrypt). Calls
  /// continue one stream: a call ending inside a block leaves the rest of
  /// that block to the next call. Whole blocks are XORed a word at a time
  /// straight from the block function.
  void apply(std::span<std::uint8_t> data);

  /// One-shot encrypt/decrypt returning a new buffer.
  static core::Bytes crypt(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> nonce, std::uint32_t counter,
                           std::span<const std::uint8_t> data);

 private:
  /// Buffers the block at the current counter and advances the counter.
  void refill();

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, kBlockSize> keystream_;
  std::size_t keystream_used_ = kBlockSize;
};

}  // namespace agrarsec::crypto
