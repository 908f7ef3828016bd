#include "crypto/hmac.h"

#include <cstring>

#include "core/bytes.h"

namespace agrarsec::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block_key{};
  if (key.size() > Sha256::kBlockSize) {
    const auto digest = Sha256::hash(key);
    std::memcpy(block_key.data(), digest.data(), digest.size());
  } else if (!key.empty()) {
    // An empty span may carry a null data(); memcpy forbids null even for
    // zero bytes.
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, Sha256::kBlockSize> ipad_key{};
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad_key[i] = block_key[i] ^ 0x36;
    opad_key_[i] = block_key[i] ^ 0x5c;
  }
  inner_.update(ipad_key);
}

void HmacSha256::update(std::span<const std::uint8_t> data) { inner_.update(data); }

HmacSha256::Tag HmacSha256::finish() {
  const auto inner_digest = inner_.finish();
  Sha256 outer;
  outer.update(opad_key_);
  outer.update(inner_digest);
  return outer.finish();
}

HmacSha256::Tag HmacSha256::mac(std::span<const std::uint8_t> key,
                                std::span<const std::uint8_t> data) {
  HmacSha256 h{key};
  h.update(data);
  return h.finish();
}

bool HmacSha256::verify(std::span<const std::uint8_t> key,
                        std::span<const std::uint8_t> data,
                        std::span<const std::uint8_t> tag) {
  const Tag expected = mac(key, data);
  return core::constant_time_equal(expected, tag);
}

}  // namespace agrarsec::crypto
