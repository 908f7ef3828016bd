// Poly1305 one-time authenticator (RFC 8439 §2.5), in the
// poly1305-donna-64 shape: the accumulator h and the clamped key half r
// are three limbs of 44, 44 and 42 bits, and each 16-byte block costs nine
// 64x64->128-bit products (unsigned __int128) and a carry chain. Nothing
// branches on or indexes by the key or the message: carries are shifts and
// masks, and the final reduction mod 2^130 - 5 is a masked select.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace agrarsec::crypto {

class Poly1305 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kTagSize = 16;
  using Tag = std::array<std::uint8_t, kTagSize>;

  explicit Poly1305(std::span<const std::uint8_t> key);

  void update(std::span<const std::uint8_t> data);
  [[nodiscard]] Tag finish();

  static Tag mac(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data);

 private:
  /// Absorbs the whole 16-byte blocks of `m[0, n)`. `hibit` is the block's
  /// 2^128 term in the top limb: set for full blocks, 0 for the final
  /// partial block, whose 0x01 terminator is already in its bytes.
  void blocks(const std::uint8_t* m, std::size_t n, std::uint64_t hibit);

  std::uint64_t r_[3];
  std::uint64_t h_[3];
  std::uint64_t pad_[2];
  std::array<std::uint8_t, 16> buffer_;
  std::size_t buffered_ = 0;
};

}  // namespace agrarsec::crypto
