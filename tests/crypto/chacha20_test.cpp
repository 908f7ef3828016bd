// ChaCha20 against RFC 8439 test vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>

#include "core/bytes.h"
#include "crypto/chacha20.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

TEST(ChaCha20, Rfc8439Section231BlockFunction) {
  const auto key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = from_hex("000000090000004a00000000");
  // The keystream is the block function's output: XOR it into zeros.
  const auto block = ChaCha20::crypt(key, nonce, 1, core::Bytes(64, 0));
  EXPECT_EQ(to_hex(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Section234Encryption) {
  const auto key =
      from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = from_hex("000000000000004a00000000");
  const auto plaintext = from_string(
      "Ladies and Gentlemen of the class of '99: If I could offer you only one "
      "tip for the future, sunscreen would be it.");
  const auto ciphertext = ChaCha20::crypt(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const auto key = from_hex(
      "1111111111111111111111111111111111111111111111111111111111111111");
  const auto nonce = from_hex("000000000000000000000001");
  const auto plaintext = from_string("round trip payload with some length to it");
  const auto ct = ChaCha20::crypt(key, nonce, 7, plaintext);
  EXPECT_NE(to_hex(ct), to_hex(plaintext));
  const auto pt = ChaCha20::crypt(key, nonce, 7, ct);
  EXPECT_EQ(pt, plaintext);
}

TEST(ChaCha20, StreamingMatchesOneShotAcrossBlockBoundaries) {
  const auto key = from_hex(
      "2222222222222222222222222222222222222222222222222222222222222222");
  const auto nonce = from_hex("000000000000000000000002");
  const core::Bytes plaintext(200, 0x5a);

  const auto expected = ChaCha20::crypt(key, nonce, 0, plaintext);

  core::Bytes streaming = plaintext;
  ChaCha20 c{key, nonce, 0};
  // Apply in uneven chunks: 1, 63, 64, 65, 7 bytes.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 7u}) {
    c.apply(std::span(streaming.data() + off, chunk));
    off += chunk;
  }
  ASSERT_EQ(off, plaintext.size());
  EXPECT_EQ(streaming, expected);
}

// apply() splits a call into the rest of a part-used block, whole blocks
// and a tail; every two-call split of 200 bytes must match one call.
TEST(ChaCha20, EveryTwoCallSplitMatchesOneShot) {
  const auto key = from_hex(
      "4444444444444444444444444444444444444444444444444444444444444444");
  const auto nonce = from_hex("000000000000000000000004");
  core::Bytes plaintext(200);
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 7);
  }
  const auto expected = ChaCha20::crypt(key, nonce, 9, plaintext);
  for (std::size_t cut = 0; cut <= plaintext.size(); ++cut) {
    core::Bytes streaming = plaintext;
    ChaCha20 c{key, nonce, 9};
    c.apply(std::span(streaming).first(cut));
    c.apply(std::span(streaming).subspan(cut));
    ASSERT_EQ(streaming, expected) << "cut " << cut;
  }
}

// The one-block scalar block function the two-block vector one replaced,
// kept as its oracle.
std::array<std::uint32_t, 16> reference_block(const std::array<std::uint32_t, 16>& input) {
  const auto quarter_round = [](std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                                std::uint32_t& d) {
    a += b; d ^= a; d = std::rotl(d, 16);
    c += d; b ^= c; b = std::rotl(b, 12);
    a += b; d ^= a; d = std::rotl(d, 8);
    c += d; b ^= c; b = std::rotl(b, 7);
  };
  auto x = input;
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += input[i];
  return x;
}

/// `n` keystream bytes from the reference, one block per counter value;
/// the counter wraps within its word.
core::Bytes reference_keystream(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> nonce, std::uint32_t counter,
                                std::size_t n) {
  std::array<std::uint32_t, 16> state{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) state[4 + i] = core::load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = core::load_le32(nonce.data() + 4 * i);
  core::Bytes out((n + 63) / 64 * 64);
  for (std::size_t block = 0; block < out.size(); block += 64) {
    const auto words = reference_block(state);
    ++state[12];
    for (std::size_t i = 0; i < 16; ++i) core::store_le32(out.data() + block + 4 * i, words[i]);
  }
  out.resize(n);
  return out;
}

// The keystream equals the scalar reference's at the counter's edges (the
// second block of the pair wraps at 2^32 - 1) under every two-call split
// of every length up to 300 bytes.
TEST(ChaCha20, KeystreamMatchesScalarReferenceAtCounterEdges) {
  const auto key = from_hex(
      "5555555555555555555555555555555555555555555555555555555555555555");
  const auto nonce = from_hex("000000090000004a00000005");
  for (const std::uint32_t counter : {0u, 1u, 0xfffffffeu, 0xffffffffu}) {
    const auto expected = reference_keystream(key, nonce, counter, 300);
    for (std::size_t n = 0; n <= expected.size(); ++n) {
      for (std::size_t cut = 0; cut <= n; ++cut) {
        core::Bytes keystream(n, 0);
        ChaCha20 c{key, nonce, counter};
        c.apply(std::span(keystream).first(cut));
        c.apply(std::span(keystream).subspan(cut));
        ASSERT_TRUE(std::equal(keystream.begin(), keystream.end(), expected.begin()))
            << "counter " << counter << " length " << n << " cut " << cut;
      }
    }
  }
}

TEST(ChaCha20, CounterOffsetsDisjointKeystream) {
  const auto key = from_hex(
      "3333333333333333333333333333333333333333333333333333333333333333");
  const auto nonce = from_hex("000000000000000000000003");
  const core::Bytes zeros(64, 0);
  const auto block0 = ChaCha20::crypt(key, nonce, 0, zeros);
  const auto block1 = ChaCha20::crypt(key, nonce, 1, zeros);
  EXPECT_NE(to_hex(block0), to_hex(block1));
  // Counter 1 keystream equals the second block of a counter-0 stream.
  const core::Bytes zeros2(128, 0);
  const auto both = ChaCha20::crypt(key, nonce, 0, zeros2);
  EXPECT_TRUE(std::equal(block1.begin(), block1.end(), both.begin() + 64));
}

TEST(ChaCha20, RejectsBadKeySize) {
  const core::Bytes key(16, 0);
  const core::Bytes nonce(12, 0);
  EXPECT_THROW(ChaCha20(key, nonce), std::invalid_argument);
}

TEST(ChaCha20, RejectsBadNonceSize) {
  const core::Bytes key(32, 0);
  const core::Bytes nonce(8, 0);
  EXPECT_THROW(ChaCha20(key, nonce), std::invalid_argument);
}

TEST(ChaCha20, EmptyInputIsNoop) {
  const core::Bytes key(32, 1);
  const core::Bytes nonce(12, 2);
  EXPECT_TRUE(ChaCha20::crypt(key, nonce, 0, {}).empty());
}

}  // namespace
}  // namespace agrarsec::crypto
