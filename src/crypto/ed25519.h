// Ed25519 signatures (RFC 8032). Used for firmware/image signing (secure
// boot), certificate signatures in the PKI, and handshake authentication.
// Verified against the RFC 8032 §7.1 test vectors in tests/crypto.
//
// Timing: ed25519_public_key, ed25519_keypair and ed25519_sign (and
// x25519_base, which shares the base-point multiplication) handle the
// secret scalars in constant time. Base-point multiplication reads a
// fixed-window table (signed radix-16 digits) with masked selects, so every
// scalar runs the same point operations and the same table reads; scalar
// reduction and multiply-add mod L run on fixed-width limbs with no
// data-dependent branch. SHA-512 time depends on the (public) message length
// only. ed25519_verify is variable-time (sliding-window digits over odd
// multiples of the key and of B): every input to it is public.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace agrarsec::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

/// Key pair. The seed is the RFC 8032 32-byte private key.
struct Ed25519KeyPair {
  Ed25519Seed seed;
  Ed25519PublicKey public_key;
};

/// Derives the public key from a 32-byte seed.
[[nodiscard]] Ed25519PublicKey ed25519_public_key(std::span<const std::uint8_t> seed);

/// Builds a key pair from a seed. Throws std::invalid_argument unless the
/// seed is 32 bytes.
[[nodiscard]] Ed25519KeyPair ed25519_keypair(std::span<const std::uint8_t> seed);

/// Signs `message` (deterministic, per RFC 8032).
[[nodiscard]] Ed25519Signature ed25519_sign(const Ed25519KeyPair& keypair,
                                            std::span<const std::uint8_t> message);

/// Verifies a signature. Rejects non-canonical S (S >= L) and undecodable
/// points.
[[nodiscard]] bool ed25519_verify(std::span<const std::uint8_t> public_key,
                                  std::span<const std::uint8_t> message,
                                  std::span<const std::uint8_t> signature);

namespace detail {

/// Edwards point additions and doublings run on this thread (including the
/// one-time base-table build on whichever thread triggers it). A test hook
/// for the secret-independence check; not API.
struct PointOpCount {
  std::uint64_t adds = 0;
  std::uint64_t doubles = 0;
};
extern thread_local PointOpCount ed25519_point_ops;

}  // namespace detail

}  // namespace agrarsec::crypto
