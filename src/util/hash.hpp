#pragma once
// Content hashing for the artifact cache: a word-at-a-time 64-bit hash
// over raw bytes plus a small builder for mixing typed fields (option
// structs, id lists) into one key.
//
// hash_bytes is XXH64: four independent 64-bit lanes take one 8-byte
// word each per 32-byte stripe, every word fully mixed by a
// multiply-rotate-multiply round; then the lanes merge, the tail words and
// bytes fold in, and a final avalanche spreads every input bit across the
// digest. A multi-megabyte netlist hashes at memory speed instead of one
// multiply per byte. Words are read in host byte order, so digests match
// the XXH64 reference only on little-endian hosts; keys index an
// in-memory cache and never leave the process, so in-process stability
// is all that matters.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hidap {

namespace hash_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

inline std::uint64_t lane_merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace hash_detail

inline std::uint64_t hash_bytes(const void* data, std::size_t size, std::uint64_t seed = 0) {
  using namespace hash_detail;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t h;
  if (size >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = lane_merge(lane_merge(lane_merge(lane_merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += size;
  for (; end - p >= 8; p += 8) h = std::rotl(h ^ lane_round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

inline std::uint64_t hash_bytes(std::string_view bytes) {
  return hash_bytes(bytes.data(), bytes.size());
}

/// Accumulates typed fields into one key: every field is hashed with the
/// running digest as its seed. Each value is fed as its fixed-width
/// representation, and strings are length-prefixed so ("ab","c") never
/// collides with ("a","bc").
class HashBuilder {
 public:
  explicit HashBuilder(std::uint64_t salt = 0) { u64(salt); }

  HashBuilder& bytes(const void* data, std::size_t size) {
    h_ = hash_bytes(data, size, h_);
    return *this;
  }
  HashBuilder& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  HashBuilder& i32(std::int32_t v) { return i64(v); }
  /// Bit pattern, not value: -0.0 and 0.0 hash differently, NaNs by payload.
  HashBuilder& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  HashBuilder& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0;
};

}  // namespace hidap