// X25519 Diffie–Hellman (RFC 7748). Shared secrets run the constant-time
// Montgomery ladder; public keys come from the constant-time Ed25519
// base-point table through the birational map (DESIGN.md §28). Verified
// against the RFC 7748 test vectors (including the 1k-iteration vector)
// in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace agrarsec::crypto {

inline constexpr std::size_t kX25519KeySize = 32;

using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// scalar * u-coordinate. `scalar` is clamped per RFC 7748.
[[nodiscard]] X25519Key x25519(std::span<const std::uint8_t> scalar,
                               std::span<const std::uint8_t> u);

/// Public key derivation: scalar * base point (u = 9), equal to
/// x25519(scalar, 9). Throws std::invalid_argument unless the scalar is
/// 32 bytes.
[[nodiscard]] X25519Key x25519_base(std::span<const std::uint8_t> scalar);

/// Shared secret; returns false (and zeros `out`) when the result is the
/// all-zero value (low-order point contribution), which callers MUST treat
/// as a handshake failure.
bool x25519_shared(std::span<const std::uint8_t> private_key,
                   std::span<const std::uint8_t> peer_public, X25519Key& out);

}  // namespace agrarsec::crypto
