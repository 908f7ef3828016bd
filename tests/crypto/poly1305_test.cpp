// Poly1305 against RFC 8439 test vectors, and differentially against a
// kept 26-bit-limb reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/bytes.h"
#include "crypto/poly1305.h"
#include "crypto/random.h"

namespace agrarsec::crypto {
namespace {

using core::from_hex;
using core::from_string;
using core::to_hex;

TEST(Poly1305, Rfc8439Section253) {
  const auto key =
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto msg = from_string("Cryptographic Forum Research Group");
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), "a8061dc1305136c6c22b8baf0c0127a9");
}

// RFC 8439 Appendix A.3 vectors.
TEST(Poly1305, AppendixA3Vector1ZeroKey) {
  const core::Bytes key(32, 0);
  const core::Bytes msg(64, 0);
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), "00000000000000000000000000000000");
}

TEST(Poly1305, AppendixA3Vector2) {
  const auto key =
      from_hex("0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
  const auto msg = from_string(
      "Any submission to the IETF intended by the Contributor for publication "
      "as all or part of an IETF Internet-Draft or RFC and any statement made "
      "within the context of an IETF activity is considered an \"IETF "
      "Contribution\". Such statements include oral statements in IETF "
      "sessions, as well as written and electronic communications made at any "
      "time or place, which are addressed to");
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), "36e5f6b5c5e06070f0efca96227a863e");
}

TEST(Poly1305, AppendixA3Vector3) {
  const auto key =
      from_hex("36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
  const auto msg = from_string(
      "Any submission to the IETF intended by the Contributor for publication "
      "as all or part of an IETF Internet-Draft or RFC and any statement made "
      "within the context of an IETF activity is considered an \"IETF "
      "Contribution\". Such statements include oral statements in IETF "
      "sessions, as well as written and electronic communications made at any "
      "time or place, which are addressed to");
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), "f3477e7cd95417af89a6b8794c310cf0");
}

// Appendix A.3 #4: the RFC's own example key over a poem.
TEST(Poly1305, AppendixA3Vector4TextOfRfc) {
  const auto key =
      from_hex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  const auto msg = from_string(
      "'Twas brillig, and the slithy toves\nDid gyre and gimble in the "
      "wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.");
  EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), "4541669a7eaaee61e708dc7cbcc5eb62");
}

// Appendix A.3 #5-#11: the reduction edge cases. Each key is r || s.
struct EdgeVector {
  const char* name;
  const char* key;
  const char* msg;
  const char* tag;
};

constexpr EdgeVector kEdgeVectors[] = {
    {"#5 partially reduced result not fully reduced",
     "02000000000000000000000000000000"
     "00000000000000000000000000000000",
     "ffffffffffffffffffffffffffffffff", "03000000000000000000000000000000"},
    {"#6 addition of s overflows 2^128",
     "02000000000000000000000000000000"
     "ffffffffffffffffffffffffffffffff",
     "02000000000000000000000000000000", "03000000000000000000000000000000"},
    {"#7 all-ones limb with a carry from below",
     "01000000000000000000000000000000"
     "00000000000000000000000000000000",
     "ffffffffffffffffffffffffffffffff"
     "f0ffffffffffffffffffffffffffffff"
     "11000000000000000000000000000000",
     "05000000000000000000000000000000"},
    {"#8 polynomial part exactly 2^130 - 5",
     "01000000000000000000000000000000"
     "00000000000000000000000000000000",
     "ffffffffffffffffffffffffffffffff"
     "fbfefefefefefefefefefefefefefefe"
     "01010101010101010101010101010101",
     "00000000000000000000000000000000"},
    {"#9 polynomial part exactly 2^130 - 6",
     "02000000000000000000000000000000"
     "00000000000000000000000000000000",
     "fdffffffffffffffffffffffffffffff", "faffffffffffffffffffffffffffffff"},
    {"#10 5*H+L reduction with a 131-bit intermediate",
     "01000000000000000400000000000000"
     "00000000000000000000000000000000",
     "e33594d7505e43b90000000000000000"
     "3394d7505e4379cd0100000000000000"
     "00000000000000000000000000000000"
     "01000000000000000000000000000000",
     "14000000000000005500000000000000"},
    {"#11 5*H+L reduction with a 131-bit final result",
     "01000000000000000400000000000000"
     "00000000000000000000000000000000",
     "e33594d7505e43b90000000000000000"
     "3394d7505e4379cd0100000000000000"
     "00000000000000000000000000000000",
     "13000000000000000000000000000000"},
};

TEST(Poly1305, AppendixA3EdgeVectors5To11) {
  for (const EdgeVector& v : kEdgeVectors) {
    EXPECT_EQ(to_hex(Poly1305::mac(from_hex(v.key), from_hex(v.msg))), v.tag) << v.name;
  }
}

// The 26-bit-limb Poly1305 (five limbs, 64-bit products) that the 44-bit
// implementation replaced, kept as an independent reference.
class Poly1305Limb26 {
 public:
  explicit Poly1305Limb26(std::span<const std::uint8_t> key) {
    const std::uint32_t t0 = core::load_le32(key.data() + 0);
    const std::uint32_t t1 = core::load_le32(key.data() + 4);
    const std::uint32_t t2 = core::load_le32(key.data() + 8);
    const std::uint32_t t3 = core::load_le32(key.data() + 12);
    r_[0] = t0 & 0x3ffffff;
    r_[1] = ((t0 >> 26) | (t1 << 6)) & 0x3ffff03;
    r_[2] = ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff;
    r_[3] = ((t2 >> 14) | (t3 << 18)) & 0x3f03fff;
    r_[4] = (t3 >> 8) & 0x00fffff;
    for (int i = 0; i < 4; ++i) pad_[i] = core::load_le32(key.data() + 16 + 4 * i);
  }

  void update(std::span<const std::uint8_t> data) {
    for (const std::uint8_t byte : data) {
      buffer_[buffered_++] = byte;
      if (buffered_ == 16) {
        block(buffer_, 1U << 24);
        buffered_ = 0;
      }
    }
  }

  Poly1305::Tag finish() {
    if (buffered_ > 0) {
      std::uint8_t padded[16] = {0};
      std::memcpy(padded, buffer_, buffered_);
      padded[buffered_] = 1;
      block(padded, 0);
    }
    std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    std::uint32_t c = h1 >> 26; h1 &= 0x3ffffff;
    h2 += c; c = h2 >> 26; h2 &= 0x3ffffff;
    h3 += c; c = h3 >> 26; h3 &= 0x3ffffff;
    h4 += c; c = h4 >> 26; h4 &= 0x3ffffff;
    h0 += c * 5; c = h0 >> 26; h0 &= 0x3ffffff;
    h1 += c;

    std::uint32_t g0 = h0 + 5; c = g0 >> 26; g0 &= 0x3ffffff;
    std::uint32_t g1 = h1 + c; c = g1 >> 26; g1 &= 0x3ffffff;
    std::uint32_t g2 = h2 + c; c = g2 >> 26; g2 &= 0x3ffffff;
    std::uint32_t g3 = h3 + c; c = g3 >> 26; g3 &= 0x3ffffff;
    const std::uint32_t g4 = h4 + c - (1 << 26);
    const std::uint32_t mask = (g4 >> 31) - 1;
    h0 = (h0 & ~mask) | (g0 & mask);
    h1 = (h1 & ~mask) | (g1 & mask);
    h2 = (h2 & ~mask) | (g2 & mask);
    h3 = (h3 & ~mask) | (g3 & mask);
    h4 = (h4 & ~mask) | (g4 & mask);

    const std::uint32_t w[4] = {h0 | (h1 << 26), (h1 >> 6) | (h2 << 20),
                                (h2 >> 12) | (h3 << 14), (h3 >> 18) | (h4 << 8)};
    Poly1305::Tag tag{};
    std::uint64_t f = 0;
    for (int i = 0; i < 4; ++i) {
      f = (f >> 32) + static_cast<std::uint64_t>(w[i]) + pad_[i];
      core::store_le32(tag.data() + 4 * i, static_cast<std::uint32_t>(f));
    }
    return tag;
  }

 private:
  void block(const std::uint8_t* p, std::uint32_t hibit) {
    h_[0] += core::load_le32(p + 0) & 0x3ffffff;
    h_[1] += (core::load_le32(p + 3) >> 2) & 0x3ffffff;
    h_[2] += (core::load_le32(p + 6) >> 4) & 0x3ffffff;
    h_[3] += (core::load_le32(p + 9) >> 6) & 0x3ffffff;
    h_[4] += (core::load_le32(p + 12) >> 8) | hibit;

    const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3], r4 = r_[4];
    const std::uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
    const std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
    std::uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
    std::uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
    std::uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
    std::uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
    std::uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

    std::uint64_t c = d0 >> 26; d0 &= 0x3ffffff;
    d1 += c; c = d1 >> 26; d1 &= 0x3ffffff;
    d2 += c; c = d2 >> 26; d2 &= 0x3ffffff;
    d3 += c; c = d3 >> 26; d3 &= 0x3ffffff;
    d4 += c; c = d4 >> 26; d4 &= 0x3ffffff;
    d0 += c * 5; c = d0 >> 26; d0 &= 0x3ffffff;
    d1 += c;
    const std::uint64_t d[5] = {d0, d1, d2, d3, d4};
    for (int i = 0; i < 5; ++i) h_[i] = static_cast<std::uint32_t>(d[i]);
  }

  std::uint32_t r_[5];
  std::uint32_t h_[5] = {0, 0, 0, 0, 0};
  std::uint32_t pad_[4];
  std::uint8_t buffer_[16];
  std::size_t buffered_ = 0;
};

TEST(Poly1305, ReferenceLimb26PassesTheRfcVectors) {
  for (const EdgeVector& v : kEdgeVectors) {
    Poly1305Limb26 ref{from_hex(v.key)};
    ref.update(from_hex(v.msg));
    EXPECT_EQ(to_hex(ref.finish()), v.tag) << v.name;
  }
  Poly1305Limb26 ref{
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")};
  ref.update(from_string("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(ref.finish()), "a8061dc1305136c6c22b8baf0c0127a9");
}

// 2,000 DRBG keys and messages of 0-300 bytes, fed to the 44-bit code in
// random update() splits (empty ones included): every tag must equal the
// 26-bit reference's.
TEST(Poly1305, MatchesLimb26ReferenceOnRandomSplits) {
  crypto::Drbg drbg{1305, "poly1305-differential"};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto key = drbg.generate32();
    const auto shape = drbg.generate(2);
    const std::size_t len = (shape[0] | (shape[1] << 8)) % 301;
    const core::Bytes msg = drbg.generate(len);

    Poly1305Limb26 ref{key};
    ref.update(msg);
    const auto expected = ref.finish();

    Poly1305 mac{key};
    std::size_t off = 0;
    for (const std::uint8_t cut : drbg.generate(16)) {
      const std::size_t take = std::min<std::size_t>(cut % 40, len - off);
      mac.update(std::span(msg.data() + off, take));
      off += take;
    }
    mac.update(std::span(msg.data() + off, len - off));
    ASSERT_EQ(to_hex(mac.finish()), to_hex(expected))
        << "trial " << trial << " len " << len;
  }
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  const auto key =
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto msg = from_string("Cryptographic Forum Research Group");
  Poly1305 p{key};
  p.update(from_string("Cryptographic "));
  p.update(from_string("Forum "));
  p.update(from_string("Research Group"));
  EXPECT_EQ(to_hex(p.finish()), to_hex(Poly1305::mac(key, msg)));
}

TEST(Poly1305, PartialFinalBlock) {
  // 17-byte message: one full block plus one 1-byte partial.
  const auto key =
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const core::Bytes msg(17, 0x42);
  const auto tag1 = Poly1305::mac(key, msg);
  // Same computed incrementally split inside the partial block.
  Poly1305 p{key};
  p.update(std::span(msg.data(), 16));
  p.update(std::span(msg.data() + 16, 1));
  EXPECT_EQ(to_hex(p.finish()), to_hex(tag1));
}

TEST(Poly1305, EmptyMessage) {
  const auto key =
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // MAC of empty message is just the pad s.
  EXPECT_EQ(to_hex(Poly1305::mac(key, {})), "0103808afb0db2fd4abff6af4149f51b");
}

TEST(Poly1305, RejectsBadKeySize) {
  const core::Bytes key(16, 0);
  EXPECT_THROW(Poly1305{key}, std::invalid_argument);
}

TEST(Poly1305, TagChangesWithMessage) {
  const auto key =
      from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto t1 = Poly1305::mac(key, from_string("message-a"));
  const auto t2 = Poly1305::mac(key, from_string("message-b"));
  EXPECT_NE(to_hex(t1), to_hex(t2));
}

}  // namespace
}  // namespace agrarsec::crypto
