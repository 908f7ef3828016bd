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
  /// continue one stream: the keystream is made two blocks (128 bytes) at
  /// a time, and a call that ends inside them leaves the rest to the next
  /// call. The XOR runs eight bytes at a time.
  void apply(std::span<std::uint8_t> data);

  /// One-shot encrypt/decrypt returning a new buffer.
  static core::Bytes crypt(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> nonce, std::uint32_t counter,
                           std::span<const std::uint8_t> data);

 private:
  /// Buffers the two blocks at the current counter and advances the
  /// counter past them.
  void refill();

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 2 * kBlockSize> keystream_;
  std::size_t keystream_used_ = 2 * kBlockSize;
};

}  // namespace agrarsec::crypto
