#include "crypto/x25519.h"

#include <cstring>
#include <stdexcept>

#include "crypto/field25519.h"

namespace agrarsec::crypto {

using detail::Fe;

namespace {

/// The RFC 7748 clamped copy of a 32-byte scalar.
void clamp(std::uint8_t e[32], std::span<const std::uint8_t> scalar) {
  std::memcpy(e, scalar.data(), 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;
}

}  // namespace

X25519Key x25519(std::span<const std::uint8_t> scalar, std::span<const std::uint8_t> u) {
  if (scalar.size() != 32 || u.size() != 32) {
    throw std::invalid_argument("x25519: scalar and u must be 32 bytes");
  }
  std::uint8_t e[32];
  clamp(e, scalar);

  Fe x1;
  detail::fe_frombytes(x1, u.data());

  Fe x2 = detail::fe_one();
  Fe z2 = detail::fe_zero();
  Fe x3 = x1;
  Fe z3 = detail::fe_one();

  std::uint64_t swap = 0;
  for (int pos = 254; pos >= 0; --pos) {
    const std::uint64_t bit = (e[pos / 8] >> (pos & 7)) & 1;
    swap ^= bit;
    detail::fe_cswap(x2, x3, swap);
    detail::fe_cswap(z2, z3, swap);
    swap = bit;

    Fe a, aa, b, bb, eo, c, d, da, cb, t;
    detail::fe_add(a, x2, z2);
    detail::fe_carry(a);
    detail::fe_sq(aa, a);
    detail::fe_sub(b, x2, z2);
    detail::fe_carry(b);
    detail::fe_sq(bb, b);
    detail::fe_sub(eo, aa, bb);
    detail::fe_carry(eo);
    detail::fe_add(c, x3, z3);
    detail::fe_carry(c);
    detail::fe_sub(d, x3, z3);
    detail::fe_carry(d);
    detail::fe_mul(da, d, a);
    detail::fe_mul(cb, c, b);

    detail::fe_add(t, da, cb);
    detail::fe_carry(t);
    detail::fe_sq(x3, t);
    detail::fe_sub(t, da, cb);
    detail::fe_carry(t);
    detail::fe_sq(t, t);
    detail::fe_mul(z3, t, x1);
    detail::fe_mul(x2, aa, bb);
    detail::fe_mul_small(t, eo, 121665);
    detail::fe_add(t, t, aa);
    detail::fe_carry(t);
    detail::fe_mul(z2, eo, t);
  }
  detail::fe_cswap(x2, x3, swap);
  detail::fe_cswap(z2, z3, swap);

  Fe inv_z2, out_fe;
  detail::fe_invert(inv_z2, z2);
  detail::fe_mul(out_fe, x2, inv_z2);

  X25519Key out{};
  detail::fe_tobytes(out.data(), out_fe);
  return out;
}

X25519Key x25519_base(std::span<const std::uint8_t> scalar) {
  if (scalar.size() != 32) throw std::invalid_argument("x25519: scalar must be 32 bytes");
  std::uint8_t e[32];
  clamp(e, scalar);
  X25519Key out{};
  detail::x25519_base_u(out.data(), e);
  return out;
}

bool x25519_shared(std::span<const std::uint8_t> private_key,
                   std::span<const std::uint8_t> peer_public, X25519Key& out) {
  out = x25519(private_key, peer_public);
  std::uint8_t acc = 0;
  for (std::uint8_t b : out) acc |= b;
  if (acc == 0) {
    out.fill(0);
    return false;
  }
  return true;
}

}  // namespace agrarsec::crypto
