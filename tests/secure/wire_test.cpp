// Byte-level wire formats: certificate and handshake-flight decoding, and
// a complete handshake run purely over encoded bytes (as it would cross
// the radio).
#include <gtest/gtest.h>

#include "crypto/random.h"
#include "pki/identity.h"
#include "pki/trust_store.h"
#include "secure/handshake.h"

namespace agrarsec::secure {
namespace {

struct Fixture {
  crypto::Drbg drbg{17, "wire-test"};
  pki::CertificateAuthority root = pki::CertificateAuthority::create_root(
      "root", drbg.generate32(), 0, 1000 * core::kHour);
  pki::TrustStore trust;
  pki::Identity a = make("machine-a");
  pki::Identity b = make("machine-b");

  pki::Identity make(const std::string& name) {
    auto id = pki::enroll(root, drbg, name, pki::CertRole::kMachine, 0,
                          1000 * core::kHour);
    EXPECT_TRUE(id.ok());
    return std::move(id).take();
  }
  Fixture() { EXPECT_TRUE(trust.add_root(root.certificate()).ok()); }
};

TEST(Wire, CertificateRoundTrip) {
  Fixture f;
  const pki::Certificate& original = f.a.leaf();
  const auto decoded = pki::Certificate::decode(original.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->body.subject, original.body.subject);
  EXPECT_EQ(decoded->body.issuer, original.body.issuer);
  EXPECT_EQ(decoded->body.serial, original.body.serial);
  EXPECT_EQ(decoded->body.role, original.body.role);
  EXPECT_EQ(decoded->body.not_after, original.body.not_after);
  EXPECT_EQ(decoded->body.usage.encode(), original.body.usage.encode());
  EXPECT_EQ(core::to_hex(decoded->signature), core::to_hex(original.signature));
  // And the decoded certificate still verifies + re-encodes identically.
  EXPECT_TRUE(decoded->verify_signature(f.root.certificate().body.signing_key));
  EXPECT_EQ(core::to_hex(decoded->encode()), core::to_hex(original.encode()));
}

TEST(Wire, CertificateDecodeRejectsDamage) {
  Fixture f;
  const auto bytes = f.a.leaf().encode();
  // Truncations at every prefix length must fail cleanly.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(pki::Certificate::decode(std::span(bytes.data(), len)).has_value())
        << "prefix " << len;
  }
  // Trailing garbage.
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(pki::Certificate::decode(extended).has_value());
  // Wrong magic.
  auto wrong = bytes;
  wrong[0] ^= 1;
  EXPECT_FALSE(pki::Certificate::decode(wrong).has_value());
}

TEST(Wire, CertificateDecodeRejectsBadEnums) {
  Fixture f;
  auto bytes = f.a.leaf().encode();
  // Role byte follows magic(16) + serial(8) + framed subject + framed
  // issuer + issuer serial(8). Corrupt it via a targeted rebuild instead:
  pki::Certificate cert = f.a.leaf();
  cert.body.role = static_cast<pki::CertRole>(250);
  EXPECT_FALSE(pki::Certificate::decode(cert.encode()).has_value());
  (void)bytes;
}

TEST(Wire, Msg1RoundTrip) {
  Fixture f;
  Handshake hs{f.a, f.trust, 10, ""};
  const HandshakeMsg1 m1 = hs.start(f.drbg);
  const auto decoded = HandshakeMsg1::decode(m1.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(core::to_hex(decoded->ephemeral), core::to_hex(m1.ephemeral));
  EXPECT_FALSE(HandshakeMsg1::decode(core::from_string("junk")).has_value());
}

TEST(Wire, Msg2RoundTrip) {
  Fixture f;
  Handshake init{f.a, f.trust, 10, ""};
  Handshake resp{f.b, f.trust, 10, ""};
  const HandshakeMsg1 m1 = init.start(f.drbg);
  auto m2 = resp.respond(m1, f.drbg);
  ASSERT_TRUE(m2.ok());

  const auto decoded = HandshakeMsg2::decode(m2.value().encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->chain.size(), m2.value().chain.size());
  EXPECT_EQ(decoded->chain[0].body.subject, "machine-b");
  EXPECT_EQ(core::to_hex(decoded->signature), core::to_hex(m2.value().signature));
}

TEST(Wire, Msg2DecodeRejectsTruncation) {
  Fixture f;
  Handshake init{f.a, f.trust, 10, ""};
  Handshake resp{f.b, f.trust, 10, ""};
  auto m2 = resp.respond(init.start(f.drbg), f.drbg);
  ASSERT_TRUE(m2.ok());
  const auto bytes = m2.value().encode();
  for (std::size_t len = 0; len < bytes.size(); len += 13) {
    EXPECT_FALSE(HandshakeMsg2::decode(std::span(bytes.data(), len)).has_value());
  }
}

TEST(Wire, Msg2DecodeRejectsOversizedChainCount) {
  // A forged header claiming 2^31 certificates must not allocate/loop.
  core::Bytes bytes = core::from_string("hs2");
  bytes.resize(3 + 32, 0);
  core::append_be32(bytes, 0x7fffffff);
  EXPECT_FALSE(HandshakeMsg2::decode(bytes).has_value());
}

TEST(Wire, FullHandshakeOverBytes) {
  // Every flight crosses as encoded bytes, as over the radio.
  Fixture f;
  Handshake init{f.a, f.trust, 10, "machine-b"};
  Handshake resp{f.b, f.trust, 10, "machine-a"};

  const core::Bytes wire1 = init.start(f.drbg).encode();
  const auto m1 = HandshakeMsg1::decode(wire1);
  ASSERT_TRUE(m1.has_value());

  auto m2 = resp.respond(*m1, f.drbg);
  ASSERT_TRUE(m2.ok());
  const core::Bytes wire2 = m2.value().encode();
  const auto m2d = HandshakeMsg2::decode(wire2);
  ASSERT_TRUE(m2d.has_value());

  auto m3 = init.consume_msg2(*m2d);
  ASSERT_TRUE(m3.ok()) << m3.error().to_string();
  const core::Bytes wire3 = m3.value().encode();
  const auto m3d = HandshakeMsg3::decode(wire3);
  ASSERT_TRUE(m3d.has_value());

  ASSERT_TRUE(resp.finish(*m3d).ok());

  Session sa = init.take_session();
  Session sb = resp.take_session();
  const Record r = sa.seal(core::from_string("over-the-air"));
  const auto opened = sb.open(Record::decode(r.encode()).value());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), core::from_string("over-the-air"));
}

TEST(Wire, TamperedWireMsg2FailsHandshake) {
  Fixture f;
  Handshake init{f.a, f.trust, 10, ""};
  Handshake resp{f.b, f.trust, 10, ""};
  auto m2 = resp.respond(init.start(f.drbg), f.drbg);
  ASSERT_TRUE(m2.ok());
  auto wire = m2.value().encode();
  wire[40] ^= 1;  // inside the certificate chain region
  const auto decoded = HandshakeMsg2::decode(wire);
  if (decoded) {
    // Structure may survive a bit flip, but the handshake must not.
    EXPECT_FALSE(init.consume_msg2(*decoded).ok());
  }
}

/// A seeded single-byte mutant of `wire`: a DRBG-chosen position XORed
/// with a DRBG-chosen non-zero byte.
core::Bytes mutate(const core::Bytes& wire, crypto::Drbg& drbg) {
  const auto r = drbg.generate(5);
  auto out = wire;
  out[core::load_le32(r.data()) % out.size()] ^= r[4] == 0 ? std::uint8_t{1} : r[4];
  return out;
}

// Handshake flights under seeded single-byte mutation (ROADMAP item 4).
// Both signed flights round-trip through their encodings, a mutant that
// still decodes re-encodes to exactly its own bytes, and every such mutant
// is rejected by the side that consumes it. Each endpoint is copied in the
// state that consumes the flight, so every mutant meets a fresh one. The
// flights carry a certificate chain and a transcript signature, so this
// drives chain validation and Ed25519 verification with hostile input.
TEST(WireMutation, DecodableHandshakeMutantsAreRejected) {
  Fixture f;
  Handshake init{f.a, f.trust, 10, ""};
  Handshake resp{f.b, f.trust, 10, ""};
  const HandshakeMsg1 m1 = init.start(f.drbg);
  auto m2 = resp.respond(m1, f.drbg);
  ASSERT_TRUE(m2.ok());
  const Handshake init_at_msg2 = init;
  auto m3 = init.consume_msg2(m2.value());
  ASSERT_TRUE(m3.ok()) << m3.error().to_string();
  const Handshake resp_at_msg3 = resp;
  ASSERT_TRUE(resp.finish(m3.value()).ok());

  const core::Bytes wire2 = m2.value().encode();
  const core::Bytes wire3 = m3.value().encode();
  ASSERT_EQ(HandshakeMsg2::decode(wire2)->encode(), wire2);
  ASSERT_EQ(HandshakeMsg3::decode(wire3)->encode(), wire3);

  crypto::Drbg mutations{20261019, "handshake-mutation"};
  std::size_t decoded2 = 0;
  std::size_t decoded3 = 0;
  for (int i = 0; i < 256; ++i) {
    const core::Bytes bad2 = mutate(wire2, mutations);
    if (const auto msg = HandshakeMsg2::decode(bad2)) {
      ++decoded2;
      EXPECT_EQ(msg->encode(), bad2) << "msg2 mutant " << i;
      Handshake hs = init_at_msg2;
      EXPECT_FALSE(hs.consume_msg2(*msg).ok()) << "msg2 mutant " << i;
    }
    const core::Bytes bad3 = mutate(wire3, mutations);
    if (const auto msg = HandshakeMsg3::decode(bad3)) {
      ++decoded3;
      EXPECT_EQ(msg->encode(), bad3) << "msg3 mutant " << i;
      Handshake hs = resp_at_msg3;
      EXPECT_FALSE(hs.finish(*msg).ok()) << "msg3 mutant " << i;
    }
  }
  // Most bytes are keys, signatures and certificate fields, so most
  // mutants decode and reach the consumer.
  EXPECT_GT(decoded2, 128u);
  EXPECT_GT(decoded3, 128u);
}

}  // namespace
}  // namespace agrarsec::secure
