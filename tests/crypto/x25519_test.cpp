// X25519 against RFC 7748 §5.2 and §6.1 test vectors.
#include <gtest/gtest.h>

#include "core/bytes.h"
#include "crypto/random.h"
#include "crypto/x25519.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::to_hex;

TEST(X25519, Rfc7748Vector1) {
  const auto scalar =
      from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto u =
      from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const auto out = x25519(scalar, u);
  EXPECT_EQ(to_hex(out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar =
      from_hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto u =
      from_hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const auto out = x25519(scalar, u);
  EXPECT_EQ(to_hex(out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748IteratedOnce) {
  // §5.2 iteration vector, 1 iteration.
  auto k = from_hex("0900000000000000000000000000000000000000000000000000000000000000");
  auto u = k;
  const auto result = x25519(k, u);
  EXPECT_EQ(to_hex(result),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748Iterated1000) {
  auto k = from_hex("0900000000000000000000000000000000000000000000000000000000000000");
  auto u = k;
  for (int i = 0; i < 1000; ++i) {
    const auto r = x25519(k, u);
    u = core::Bytes(k.begin(), k.end());
    k = core::Bytes(r.begin(), r.end());
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // §6.1: Alice/Bob key agreement.
  const auto alice_priv =
      from_hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv =
      from_hex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  const auto alice_pub = x25519_base(alice_priv);
  EXPECT_EQ(to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  X25519Key k1{}, k2{};
  ASSERT_TRUE(x25519_shared(alice_priv, bob_pub, k1));
  ASSERT_TRUE(x25519_shared(bob_priv, alice_pub, k2));
  EXPECT_EQ(to_hex(k1), to_hex(k2));
  EXPECT_EQ(to_hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, SharedRejectsAllZeroOutput) {
  // A low-order point (u = 0) forces the all-zero shared secret.
  const auto priv =
      from_hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const core::Bytes zero_point(32, 0);
  X25519Key out{};
  EXPECT_FALSE(x25519_shared(priv, zero_point, out));
  for (std::uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(X25519, RejectsBadInputSizes) {
  const core::Bytes short_scalar(16, 0);
  const core::Bytes u(32, 0);
  EXPECT_THROW((void)x25519(short_scalar, u), std::invalid_argument);
  const core::Bytes scalar(32, 0);
  const core::Bytes short_u(31, 0);
  EXPECT_THROW((void)x25519(scalar, short_u), std::invalid_argument);
  const core::Bytes long_scalar(33, 0);
  EXPECT_THROW((void)x25519_base(short_scalar), std::invalid_argument);
  EXPECT_THROW((void)x25519_base(long_scalar), std::invalid_argument);
}

// x25519_base maps [k]B on the Edwards curve to its Montgomery u; the
// ladder on u = 9 is the oracle it must match byte for byte.
TEST(X25519, BaseMatchesLadderOnU9) {
  X25519Key nine{};
  nine[0] = 9;
  for (const char* hex : {"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
                          "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"}) {
    const auto scalar = from_hex(hex);
    EXPECT_EQ(to_hex(x25519_base(scalar)), to_hex(x25519(scalar, nine))) << hex;
  }
  Drbg drbg{20261019, "x25519-base-vs-ladder"};
  for (int i = 0; i < 10000; ++i) {
    const auto scalar = drbg.generate32();
    ASSERT_EQ(x25519_base(scalar), x25519(scalar, nine)) << to_hex(scalar);
  }
}

TEST(X25519, ClampingIgnoresForbiddenScalarBits) {
  // Scalars differing only in clamped bits give the same result.
  auto s1 = from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto s2 = s1;
  s2[0] |= 0x07;   // low bits are cleared by clamping
  s2[31] |= 0x80;  // top bit cleared
  const auto u =
      from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(to_hex(x25519(s1, u)), to_hex(x25519(s2, u)));
}

TEST(X25519, PublicKeysDifferForDifferentPrivates) {
  core::Bytes p1(32, 0x11), p2(32, 0x22);
  EXPECT_NE(to_hex(x25519_base(p1)), to_hex(x25519_base(p2)));
}

}  // namespace
}  // namespace agrarsec::crypto
