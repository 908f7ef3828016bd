// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8), used by the secure-channel
// record layer. One ChaCha20 state serves each call: block 0 keys
// Poly1305 and blocks 1... encrypt. The cipher makes two blocks at a
// time, so a text of up to 64 bytes costs one block-function call. The
// in-place pair is the implementation; aead_seal and aead_open are
// owned-buffer adapters over it for callers that want a fresh vector.
#pragma once

#include <cstdint>
#include <span>

#include "core/bytes.h"
#include "core/result.h"

namespace agrarsec::crypto {

inline constexpr std::size_t kAeadKeySize = 32;
inline constexpr std::size_t kAeadNonceSize = 12;
inline constexpr std::size_t kAeadTagSize = 16;

/// Seals in place. On entry `sealed` holds the plaintext followed by
/// kAeadTagSize bytes of room; on return, the ciphertext followed by the
/// tag. Throws std::invalid_argument on a bad key or nonce size or a span
/// shorter than the tag.
void aead_seal_in_place(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> nonce,
                        std::span<const std::uint8_t> aad,
                        std::span<std::uint8_t> sealed);

/// Authenticates `sealed` (ciphertext || tag) and only then decrypts the
/// ciphertext into the front of `plaintext`, which must hold at least
/// sealed.size() - kAeadTagSize bytes (std::invalid_argument otherwise).
/// On any error ("bad_mac" when authentication fails) nothing is written.
[[nodiscard]] core::Status aead_open_into(std::span<const std::uint8_t> key,
                                          std::span<const std::uint8_t> nonce,
                                          std::span<const std::uint8_t> aad,
                                          std::span<const std::uint8_t> sealed,
                                          std::span<std::uint8_t> plaintext);

/// Encrypts `plaintext`; returns ciphertext || 16-byte tag.
[[nodiscard]] core::Bytes aead_seal(std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> nonce,
                                    std::span<const std::uint8_t> aad,
                                    std::span<const std::uint8_t> plaintext);

/// Decrypts and authenticates ciphertext || tag. Returns an error Result
/// ("bad_mac") when authentication fails — callers must not inspect any
/// plaintext in that case (none is returned).
[[nodiscard]] core::Result<core::Bytes> aead_open(std::span<const std::uint8_t> key,
                                                  std::span<const std::uint8_t> nonce,
                                                  std::span<const std::uint8_t> aad,
                                                  std::span<const std::uint8_t> sealed);

}  // namespace agrarsec::crypto
