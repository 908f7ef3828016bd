#include "crypto/aead.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/chacha20.h"
#include "crypto/poly1305.h"

namespace agrarsec::crypto {

namespace {

using Block = std::array<std::uint8_t, ChaCha20::kBlockSize>;

/// Runs `cipher` (counter 0) over block 0, whose first 32 bytes are the
/// one-time Poly1305 key; the cipher is left at block 1 for the text.
Block poly_key_block(ChaCha20& cipher) {
  Block block0{};
  cipher.apply(block0);
  return block0;
}

Poly1305::Tag compute_tag(const Block& block0, std::span<const std::uint8_t> aad,
                          std::span<const std::uint8_t> ciphertext) {
  Poly1305 mac{std::span(block0.data(), 32)};

  static constexpr std::uint8_t kZeros[16] = {0};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update({kZeros, 16 - aad.size() % 16});
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0) mac.update({kZeros, 16 - ciphertext.size() % 16});

  std::uint8_t lengths[16];
  core::store_le64(lengths, aad.size());
  core::store_le64(lengths + 8, ciphertext.size());
  mac.update(lengths);
  return mac.finish();
}

}  // namespace

void aead_seal_in_place(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> nonce,
                        std::span<const std::uint8_t> aad,
                        std::span<std::uint8_t> sealed) {
  if (key.size() != kAeadKeySize) throw std::invalid_argument("aead_seal: bad key size");
  if (nonce.size() != kAeadNonceSize) throw std::invalid_argument("aead_seal: bad nonce size");
  if (sealed.size() < kAeadTagSize) {
    throw std::invalid_argument("aead_seal: buffer shorter than the tag");
  }
  const auto text = sealed.first(sealed.size() - kAeadTagSize);

  ChaCha20 cipher{key, nonce, 0};
  const Block block0 = poly_key_block(cipher);
  cipher.apply(text);
  const auto tag = compute_tag(block0, aad, text);
  std::copy(tag.begin(), tag.end(), sealed.begin() + static_cast<std::ptrdiff_t>(text.size()));
}

core::Status aead_open_into(std::span<const std::uint8_t> key,
                            std::span<const std::uint8_t> nonce,
                            std::span<const std::uint8_t> aad,
                            std::span<const std::uint8_t> sealed,
                            std::span<std::uint8_t> plaintext) {
  if (key.size() != kAeadKeySize) return core::make_error("bad_key", "aead_open: bad key size");
  if (nonce.size() != kAeadNonceSize) {
    return core::make_error("bad_nonce", "aead_open: bad nonce size");
  }
  if (sealed.size() < kAeadTagSize) {
    return core::make_error("bad_length", "aead_open: input shorter than tag");
  }
  const auto ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const auto tag = sealed.last(kAeadTagSize);
  if (plaintext.size() < ciphertext.size()) {
    throw std::invalid_argument("aead_open: plaintext span shorter than the ciphertext");
  }

  ChaCha20 cipher{key, nonce, 0};
  const Block block0 = poly_key_block(cipher);
  const auto expected = compute_tag(block0, aad, ciphertext);
  if (!core::constant_time_equal(expected, tag)) {
    return core::make_error("bad_mac", "aead_open: authentication failed");
  }
  const auto out = plaintext.first(ciphertext.size());
  std::copy(ciphertext.begin(), ciphertext.end(), out.begin());
  cipher.apply(out);
  return {};
}

core::Bytes aead_seal(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> nonce,
                      std::span<const std::uint8_t> aad,
                      std::span<const std::uint8_t> plaintext) {
  core::Bytes out(plaintext.size() + kAeadTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  aead_seal_in_place(key, nonce, aad, out);
  return out;
}

core::Result<core::Bytes> aead_open(std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> nonce,
                                    std::span<const std::uint8_t> aad,
                                    std::span<const std::uint8_t> sealed) {
  core::Bytes out(sealed.size() >= kAeadTagSize ? sealed.size() - kAeadTagSize : 0);
  if (auto status = aead_open_into(key, nonce, aad, sealed, out); !status.ok()) {
    return status.error();
  }
  return out;
}

}  // namespace agrarsec::crypto
