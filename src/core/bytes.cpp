#include "core/bytes.h"

#include <stdexcept>

namespace agrarsec::core {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) |
                                            hex_nibble(hex[i + 1])));
  }
  return out;
}

Bytes from_string(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

bool constant_time_equal(std::span<const std::uint8_t> a,
                         std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

void append(Bytes& dst, std::span<const std::uint8_t> src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void append_le64(Bytes& dst, std::uint64_t v) {
  std::uint8_t buf[8];
  store_le64(buf, v);
  dst.insert(dst.end(), buf, buf + 8);
}

void append_be32(Bytes& dst, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(buf, v);
  dst.insert(dst.end(), buf, buf + 4);
}

void append_framed(Bytes& dst, std::span<const std::uint8_t> field) {
  append_be32(dst, static_cast<std::uint32_t>(field.size()));
  append(dst, field);
}

}  // namespace agrarsec::core
