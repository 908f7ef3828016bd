// Byte-buffer utilities: hex codecs, constant-time comparison and
// endian-explicit integer load/store used by the crypto and wire-format
// layers. All functions are allocation-minimal and side-effect free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace agrarsec::core {

using Bytes = std::vector<std::uint8_t>;

/// Encodes `data` as lowercase hex.
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> data);

/// Decodes a hex string (upper or lower case, even length). Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// Builds a byte vector from an ASCII string (no terminator).
[[nodiscard]] Bytes from_string(std::string_view text);

/// Constant-time equality: runtime depends only on the lengths, never on
/// the contents, so it is safe for MAC/tag comparison.
[[nodiscard]] bool constant_time_equal(std::span<const std::uint8_t> a,
                                       std::span<const std::uint8_t> b);

// Endian-explicit loads/stores. The simulator targets heterogeneous ECUs,
// so all wire formats pick an explicit byte order. Inline: the cipher and
// MAC inner loops call them once per word.
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

[[nodiscard]] inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

[[nodiscard]] inline std::uint64_t load_be64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(load_be32(p)) << 32) |
         static_cast<std::uint64_t>(load_be32(p + 4));
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

/// Appends `src` to `dst`.
void append(Bytes& dst, std::span<const std::uint8_t> src);

/// Appends a little-endian 64-bit value to `dst`.
void append_le64(Bytes& dst, std::uint64_t v);

/// Appends a big-endian 32-bit value to `dst`.
void append_be32(Bytes& dst, std::uint32_t v);

/// Length-prefixed (be32) field append; the standard TLV-ish framing used
/// by the secure-channel transcripts so concatenations are unambiguous.
void append_framed(Bytes& dst, std::span<const std::uint8_t> field);

}  // namespace agrarsec::core
