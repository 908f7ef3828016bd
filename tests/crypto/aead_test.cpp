// ChaCha20-Poly1305 AEAD against the RFC 8439 §2.8.2 test vector.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bytes.h"
#include "crypto/aead.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

struct Rfc8439Vector {
  core::Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  core::Bytes nonce = from_hex("070000004041424344454647");
  core::Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  core::Bytes plaintext = from_string(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");
};

TEST(Aead, Rfc8439SealVector) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  ASSERT_EQ(sealed.size(), v.plaintext.size() + kAeadTagSize);
  const std::string expected_ct =
      "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
      "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
      "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
      "3ff4def08e4b7a9de576d26586cec64b6116";
  const std::string expected_tag = "1ae10b594f09e26a7e902ecbd0600691";
  EXPECT_EQ(to_hex(std::span(sealed.data(), sealed.size() - 16)), expected_ct);
  EXPECT_EQ(to_hex(std::span(sealed.data() + sealed.size() - 16, 16)), expected_tag);
}

TEST(Aead, OpenRoundTrip) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  const auto opened = aead_open(v.key, v.nonce, v.aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), v.plaintext);
}

TEST(Aead, OpenRejectsTamperedCiphertext) {
  const Rfc8439Vector v;
  auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  sealed[3] ^= 0x01;
  const auto opened = aead_open(v.key, v.nonce, v.aad, sealed);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, "bad_mac");
}

TEST(Aead, OpenRejectsTamperedTag) {
  const Rfc8439Vector v;
  auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  sealed.back() ^= 0x80;
  EXPECT_FALSE(aead_open(v.key, v.nonce, v.aad, sealed).ok());
}

TEST(Aead, OpenRejectsTamperedAad) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  auto bad_aad = v.aad;
  bad_aad[0] ^= 0xff;
  EXPECT_FALSE(aead_open(v.key, v.nonce, bad_aad, sealed).ok());
}

TEST(Aead, OpenRejectsWrongNonce) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  auto wrong = v.nonce;
  wrong[0] ^= 1;
  EXPECT_FALSE(aead_open(v.key, wrong, v.aad, sealed).ok());
}

TEST(Aead, OpenRejectsWrongKey) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  auto wrong = v.key;
  wrong[31] ^= 1;
  EXPECT_FALSE(aead_open(wrong, v.nonce, v.aad, sealed).ok());
}

TEST(Aead, OpenRejectsTruncatedInput) {
  const Rfc8439Vector v;
  const core::Bytes too_short(8, 0);
  const auto r = aead_open(v.key, v.nonce, v.aad, too_short);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "bad_length");
}

TEST(Aead, EmptyPlaintextAndAad) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(v.key, v.nonce, {}, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST(Aead, AadAlignedTo16DoesNotPad) {
  // aad length exactly 16: padding branch skipped; round trip must work.
  const Rfc8439Vector v;
  const core::Bytes aad16(16, 0xab);
  const auto sealed = aead_seal(v.key, v.nonce, aad16, v.plaintext);
  EXPECT_TRUE(aead_open(v.key, v.nonce, aad16, sealed).ok());
}

TEST(Aead, SealRejectsBadKeySize) {
  const core::Bytes key(16, 0);
  const core::Bytes nonce(12, 0);
  EXPECT_THROW(aead_seal(key, nonce, {}, {}), std::invalid_argument);
}

TEST(Aead, DistinctNoncesDistinctCiphertexts) {
  const Rfc8439Vector v;
  auto n2 = v.nonce;
  n2[11] ^= 1;
  const auto s1 = aead_seal(v.key, v.nonce, {}, v.plaintext);
  const auto s2 = aead_seal(v.key, n2, {}, v.plaintext);
  EXPECT_NE(to_hex(s1), to_hex(s2));
}

// The in-place pair is the implementation; the owned forms adapt it.
TEST(Aead, SealInPlaceMatchesOwnedSeal) {
  const Rfc8439Vector v;
  core::Bytes buffer = v.plaintext;
  buffer.resize(v.plaintext.size() + kAeadTagSize);
  aead_seal_in_place(v.key, v.nonce, v.aad, buffer);
  EXPECT_EQ(to_hex(buffer), to_hex(aead_seal(v.key, v.nonce, v.aad, v.plaintext)));
}

TEST(Aead, OpenIntoRoundTripAndLeavesTheRestOfTheSpan) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  core::Bytes out(v.plaintext.size() + 5, 0xA5);
  ASSERT_TRUE(aead_open_into(v.key, v.nonce, v.aad, sealed, out).ok());
  EXPECT_TRUE(std::equal(v.plaintext.begin(), v.plaintext.end(), out.begin()));
  EXPECT_EQ(to_hex(std::span(out).last(5)), "a5a5a5a5a5");
}

TEST(Aead, OpenIntoWritesNothingBeforeTheTagVerifies) {
  const Rfc8439Vector v;
  const auto sealed = aead_seal(v.key, v.nonce, v.aad, v.plaintext);
  const core::Bytes sentinel(v.plaintext.size(), 0xA5);
  // Every single-bit flip, in the ciphertext and in the tag.
  for (std::size_t pos = 0; pos < sealed.size(); ++pos) {
    auto damaged = sealed;
    damaged[pos] ^= 0x10;
    core::Bytes out = sentinel;
    const auto status = aead_open_into(v.key, v.nonce, v.aad, damaged, out);
    ASSERT_FALSE(status.ok()) << "pos=" << pos;
    EXPECT_EQ(status.error().code, "bad_mac");
    ASSERT_EQ(out, sentinel) << "pos=" << pos;
  }
  // Wrong AAD, wrong key and a truncated input write nothing either.
  core::Bytes out = sentinel;
  EXPECT_FALSE(aead_open_into(v.key, v.nonce, {}, sealed, out).ok());
  auto wrong_key = v.key;
  wrong_key[0] ^= 1;
  EXPECT_FALSE(aead_open_into(wrong_key, v.nonce, v.aad, sealed, out).ok());
  EXPECT_FALSE(
      aead_open_into(v.key, v.nonce, v.aad, std::span(sealed).first(kAeadTagSize - 1), out)
          .ok());
  EXPECT_EQ(out, sentinel);
}

// Byte-identity pin for the record layer's cipher and MAC: one digest over
// every sealed output for texts of 0..300 bytes under AADs of 0, 8, 13 and
// 56 bytes, captured from the one-block scalar ChaCha20. Any rewrite of
// the cipher, the MAC or the AEAD's use of them must reproduce it exactly.
TEST(Aead, SealInPlaceDigestPinnedAtParent) {
  Drbg drbg{20261019, "aead-pinned-sweep"};
  const auto key = drbg.generate32();
  const auto nonce = drbg.generate(kAeadNonceSize);
  const auto text = drbg.generate(300);
  const auto aad = drbg.generate(56);
  Sha256 transcript;
  for (std::size_t len = 0; len <= text.size(); ++len) {
    for (std::size_t aad_len : {0u, 8u, 13u, 56u}) {
      core::Bytes buffer(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(len));
      buffer.resize(len + kAeadTagSize);
      aead_seal_in_place(key, nonce, std::span(aad).first(aad_len), buffer);
      transcript.update(buffer);
    }
  }
  EXPECT_EQ(to_hex(transcript.finish()),
            "ad5d6e27c425e54514e4ff0bfa838dc61ff06f0ac334afe0c5ca814a5827f1f3");
}

TEST(Aead, InPlaceRejectsUndersizedSpans) {
  const Rfc8439Vector v;
  core::Bytes short_buffer(kAeadTagSize - 1, 0);
  EXPECT_THROW(aead_seal_in_place(v.key, v.nonce, {}, short_buffer), std::invalid_argument);
  const auto sealed = aead_seal(v.key, v.nonce, {}, v.plaintext);
  core::Bytes small(v.plaintext.size() - 1, 0);
  EXPECT_THROW((void)aead_open_into(v.key, v.nonce, {}, sealed, small),
               std::invalid_argument);
}

}  // namespace
}  // namespace agrarsec::crypto
