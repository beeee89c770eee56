#include "store/key.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace gf::store {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
// Second stream starts from a different basis so the two 64-bit halves are
// not trivially correlated (same trick as double hashing).
constexpr std::uint64_t kFnvOffset2 = 0x6C62272E07BB0142ULL;

// Field-type tags keep the digest injective over field sequences.
enum Tag : std::uint8_t { kTagU64 = 1, kTagF64 = 2, kTagBytes = 3 };

std::uint64_t fold_one(std::uint64_t h, std::uint8_t byte) noexcept {
  return (h ^ byte) * kFnvPrime;
}

// xxHash64's primes.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

template <class T>
T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      r = (r << 8) | ((v >> (8 * i)) & 0xff);
    }
    v = r;
  }
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) noexcept {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) noexcept {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace

std::string ResultKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

KeyBuilder::KeyBuilder() : hi_(kFnvOffset), lo_(kFnvOffset2) {}

void KeyBuilder::fold(const std::uint8_t* data, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    hi_ = fold_one(hi_, data[i]);
    lo_ = fold_one(lo_, data[i]);
  }
}

KeyBuilder& KeyBuilder::u64(std::uint64_t v) {
  std::uint8_t buf[9] = {kTagU64};
  for (int i = 0; i < 8; ++i) buf[1 + i] = static_cast<std::uint8_t>(v >> (8 * i));
  fold(buf, sizeof buf);
  return *this;
}

KeyBuilder& KeyBuilder::f64(double v) {
  std::uint8_t buf[9] = {kTagF64};
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) buf[1 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  fold(buf, sizeof buf);
  return *this;
}

KeyBuilder& KeyBuilder::str(std::string_view s) {
  return bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

KeyBuilder& KeyBuilder::bytes(const std::uint8_t* data, std::size_t n) {
  std::uint8_t head[9] = {kTagBytes};
  for (int i = 0; i < 8; ++i) {
    head[1 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(n) >> (8 * i));
  }
  fold(head, sizeof head);
  fold(data, n);
  return *this;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) h = fold_one(h, data[i]);
  return h;
}

std::uint64_t checksum64(const std::uint8_t* data, std::size_t n) noexcept {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le<std::uint64_t>(p));
      v2 = lane_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = lane_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = lane_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_lane(merge_lane(merge_lane(merge_lane(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ lane_round(0, load_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  // Final avalanche.
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace gf::store
