// Certificate, CA, CRL and chain-validation behaviour.
#include <gtest/gtest.h>

#include "crypto/random.h"
#include "pki/authority.h"
#include "pki/identity.h"
#include "pki/trust_store.h"

namespace agrarsec::pki {
namespace {

struct Fixture {
  crypto::Drbg drbg{42, "pki-test"};
  CertificateAuthority root = CertificateAuthority::create_root(
      "site-root-ca", seed_of(), 0, 365 * 24 * core::kHour);
  TrustStore trust;

  crypto::Ed25519Seed seed_of() {
    return drbg.generate32();
  }

  Fixture() { EXPECT_TRUE(trust.add_root(root.certificate()).ok()); }

  Identity enroll_machine(const std::string& name) {
    auto id = enroll(root, drbg, name, CertRole::kMachine, 0, 24 * core::kHour);
    EXPECT_TRUE(id.ok());
    return std::move(id).take();
  }
};

TEST(Certificate, SelfSignedRootVerifies) {
  crypto::Drbg drbg{1, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  EXPECT_TRUE(root.certificate().verify_signature(root.certificate().body.signing_key));
  EXPECT_EQ(root.certificate().body.subject, root.certificate().body.issuer);
  EXPECT_TRUE(root.certificate().body.usage.can_issue);
}

TEST(Certificate, ValidityWindow) {
  crypto::Drbg drbg{1, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 100, 200);
  EXPECT_FALSE(root.certificate().valid_at(99));
  EXPECT_TRUE(root.certificate().valid_at(100));
  EXPECT_TRUE(root.certificate().valid_at(200));
  EXPECT_FALSE(root.certificate().valid_at(201));
}

TEST(Certificate, TamperedBodyFailsVerification) {
  crypto::Drbg drbg{1, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  IssueRequest req;
  req.subject = "machine-1";
  req.signing_key = crypto::ed25519_keypair(drbg.generate32()).public_key;
  req.not_after = 1000;
  auto cert = root.issue(req);
  ASSERT_TRUE(cert.ok());
  Certificate tampered = cert.value();
  tampered.body.subject = "machine-2";  // rename attack
  EXPECT_FALSE(tampered.verify_signature(root.certificate().body.signing_key));
}

TEST(Certificate, FingerprintStableAndDistinct) {
  crypto::Drbg drbg{1, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  IssueRequest req;
  req.subject = "m";
  req.not_after = 1;
  auto c1 = root.issue(req);
  req.subject = "n";
  auto c2 = root.issue(req);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1.value().fingerprint(), c1.value().fingerprint());
  EXPECT_NE(c1.value().fingerprint(), c2.value().fingerprint());
}

TEST(Authority, SerialsIncrease) {
  crypto::Drbg drbg{2, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  IssueRequest req;
  req.subject = "a";
  req.not_after = 10;
  const auto c1 = root.issue(req);
  const auto c2 = root.issue(req);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_LT(c1.value().body.serial.value(), c2.value().body.serial.value());
  EXPECT_EQ(root.issued_count(), 2u);
}

TEST(Authority, RejectsInvertedValidity) {
  crypto::Drbg drbg{2, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  IssueRequest req;
  req.subject = "a";
  req.not_before = 100;
  req.not_after = 50;
  const auto r = root.issue(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "bad_validity");
}

TEST(Authority, RejectsIssuingRightsOnNonCaRole) {
  crypto::Drbg drbg{2, "x"};
  auto root = CertificateAuthority::create_root("root", drbg.generate32(), 0, 1000);
  IssueRequest req;
  req.subject = "sneaky-machine";
  req.role = CertRole::kMachine;
  req.usage.can_issue = true;
  req.not_after = 10;
  const auto r = root.issue(req);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "role_mismatch");
}

TEST(Authority, IntermediateChainValidates) {
  Fixture f;
  auto intermediate = CertificateAuthority::create_intermediate(
      f.root, "site-intermediate", f.seed_of(), 0, 1000);
  ASSERT_TRUE(intermediate.ok());

  crypto::Drbg drbg2{7, "y"};
  auto leaf = enroll(intermediate.value(), drbg2, "machine-x", CertRole::kMachine, 0,
                     1000, {intermediate.value().certificate()});
  ASSERT_TRUE(leaf.ok());
  const auto validated = f.trust.validate(leaf.value().chain, 10);
  ASSERT_TRUE(validated.ok()) << validated.error().to_string();
  EXPECT_EQ(validated.value().body.subject, "machine-x");
}

TEST(Authority, IntermediatePathLengthExhausts) {
  Fixture f;
  auto i1 = CertificateAuthority::create_intermediate(f.root, "i1", f.seed_of(), 0, 1000);
  ASSERT_TRUE(i1.ok());
  auto i2 = CertificateAuthority::create_intermediate(i1.value(), "i2", f.seed_of(), 0, 1000);
  ASSERT_TRUE(i2.ok());
  // Root path_length=2: i2 has path_length 0 and must refuse further CAs.
  auto i3 = CertificateAuthority::create_intermediate(i2.value(), "i3", f.seed_of(), 0, 1000);
  ASSERT_FALSE(i3.ok());
  EXPECT_EQ(i3.error().code, "path_length");
}

TEST(Crl, CoversRevokedSerials) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  f.root.revoke(m.leaf().body.serial);
  const Crl crl = f.root.current_crl(50);
  EXPECT_TRUE(crl.covers(m.leaf().body.serial));
  EXPECT_FALSE(crl.covers(CertSerial{999999}));
  EXPECT_TRUE(crl.verify_signature(f.root.certificate().body.signing_key));
}

TEST(TrustStore, RejectsNonSelfSignedRoot) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  TrustStore store;
  const auto status = store.add_root(m.leaf());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "not_self_signed");
}

TEST(TrustStore, ValidatesDirectlyIssuedLeaf) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  const auto r = f.trust.validate(m.chain, 10);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().body.subject, "machine-1");
}

TEST(TrustStore, RejectsEmptyChain) {
  Fixture f;
  const auto r = f.trust.validate({}, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "empty_chain");
}

TEST(TrustStore, RejectsExpiredLeaf) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  const auto r = f.trust.validate(m.chain, 25 * core::kHour);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "expired");
}

TEST(TrustStore, RejectsUnknownIssuer) {
  Fixture f;
  crypto::Drbg other_drbg{99, "other"};
  auto other_root =
      CertificateAuthority::create_root("other-root", other_drbg.generate32(), 0, 1000);
  auto foreign = enroll(other_root, other_drbg, "foreign-machine", CertRole::kMachine,
                        0, 1000);
  ASSERT_TRUE(foreign.ok());
  const auto r = f.trust.validate(foreign.value().chain, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "untrusted_root");
}

TEST(TrustStore, RejectsRevokedLeaf) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  f.root.revoke(m.leaf().body.serial);
  ASSERT_TRUE(f.trust.add_crl(f.root.current_crl(5), f.root.certificate()).ok());
  const auto r = f.trust.validate(m.chain, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "revoked");
}

TEST(TrustStore, RejectsStaleCrlInstall) {
  Fixture f;
  const Crl newer = f.root.current_crl(100);
  const Crl older = f.root.current_crl(50);
  ASSERT_TRUE(f.trust.add_crl(newer, f.root.certificate()).ok());
  const auto status = f.trust.add_crl(older, f.root.certificate());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "stale_crl");
}

TEST(TrustStore, RejectsCrlWithWrongIssuerCert) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  const Crl crl = f.root.current_crl(5);
  const auto status = f.trust.add_crl(crl, m.leaf());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "issuer_mismatch");
}

TEST(TrustStore, RejectsCaPresentedAsLeaf) {
  Fixture f;
  auto intermediate = CertificateAuthority::create_intermediate(
      f.root, "interm", f.seed_of(), 0, 1000);
  ASSERT_TRUE(intermediate.ok());
  const auto r = f.trust.validate({intermediate.value().certificate()}, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "ca_as_leaf");
  // ...unless explicitly allowed.
  EXPECT_TRUE(f.trust.validate({intermediate.value().certificate()}, 10, true).ok());
}

TEST(TrustStore, RejectsForgedSignature) {
  Fixture f;
  Identity m = f.enroll_machine("machine-1");
  m.chain.front().signature[0] ^= 1;
  const auto r = f.trust.validate(m.chain, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "bad_signature");
}

TEST(TrustStore, RevocationOfIntermediateKillsSubtree) {
  Fixture f;
  auto intermediate = CertificateAuthority::create_intermediate(
      f.root, "interm", f.seed_of(), 0, 1000);
  ASSERT_TRUE(intermediate.ok());
  crypto::Drbg drbg2{5, "z"};
  auto leaf = enroll(intermediate.value(), drbg2, "m", CertRole::kMachine, 0, 1000,
                     {intermediate.value().certificate()});
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(f.trust.validate(leaf.value().chain, 10).ok());

  f.root.revoke(intermediate.value().certificate().body.serial);
  ASSERT_TRUE(f.trust.add_crl(f.root.current_crl(5), f.root.certificate()).ok());
  const auto r = f.trust.validate(leaf.value().chain, 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "revoked");
}

// Certificates under seeded single-byte mutation (ROADMAP item 4): the
// encoding round-trips, a mutant that still decodes re-encodes to exactly
// its own bytes, and TrustStore::validate refuses every such mutant, which
// feeds the Ed25519 verify of the issuer's signature hostile input.
TEST(CertificateMutation, DecodableMutantsFailValidation) {
  Fixture f;
  const Identity id = f.enroll_machine("forwarder-07");
  const core::Bytes wire = id.leaf().encode();
  ASSERT_EQ(Certificate::decode(wire)->encode(), wire);
  ASSERT_TRUE(f.trust.validate({id.leaf()}, 10).ok());

  crypto::Drbg mutations{20261019, "certificate-mutation"};
  std::size_t decoded = 0;
  for (int i = 0; i < 512; ++i) {
    const auto r = mutations.generate(5);
    core::Bytes bad = wire;
    bad[core::load_le32(r.data()) % bad.size()] ^= r[4] == 0 ? std::uint8_t{1} : r[4];
    if (const auto cert = Certificate::decode(bad)) {
      ++decoded;
      EXPECT_EQ(cert->encode(), bad) << "mutant " << i;
      EXPECT_FALSE(f.trust.validate({*cert}, 10).ok()) << "mutant " << i;
    }
  }
  EXPECT_GT(decoded, 256u);
}

TEST(Identity, EnrollProducesUsableKeys) {
  Fixture f;
  const Identity m = f.enroll_machine("machine-1");
  EXPECT_EQ(m.subject(), "machine-1");
  EXPECT_TRUE(m.leaf().body.usage.can_sign);
  EXPECT_TRUE(m.leaf().body.usage.can_key_agree);
  // Signing key in the certificate matches the private key.
  const auto sig = crypto::ed25519_sign(m.signing, core::from_string("test"));
  EXPECT_TRUE(crypto::ed25519_verify(m.leaf().body.signing_key,
                                     core::from_string("test"), sig));
  // Agreement key matches.
  EXPECT_EQ(core::to_hex(m.leaf().body.agreement_key), core::to_hex(m.agreement_public));
}

}  // namespace
}  // namespace agrarsec::pki
