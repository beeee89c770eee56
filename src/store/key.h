// Content-addressed result keys for the campaign store.
//
// A single-fault campaign run is a pure function of (target code digest,
// the one fault's content, the cell's controller configuration, campaign
// seed, schedule shape, iteration, position) — PR 5's decomposition made
// that precise, and this module turns the tuple into a 128-bit digest the
// store indexes by. Every field is folded through a tagged FNV-1a stream,
// so two keys collide only if the hash does: there is no field order or
// concatenation ambiguity ("ab"+"c" vs "a"+"bc" hash differently because
// every chunk is length-prefixed into the stream).
//
// Invalidation falls out of the key: edit one fault's mutation and only
// that fault's keys change; change the OS build and the code digest shifts
// every key; bump kResultSchema and the whole store reads as cold.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace gf::store {

/// Bump when the serialized record layout changes — old records must read
/// as misses, never be misdecoded. (2: per-run profile appended to TaskObs.)
inline constexpr std::uint32_t kResultSchema = 2;

/// 128-bit content digest (two independent FNV-1a streams with distinct
/// offset bases; the pair collides only if both streams do).
struct ResultKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ResultKey&, const ResultKey&) = default;
  friend bool operator<(const ResultKey& a, const ResultKey& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits (hi then lo) — the `gfbench store ls` spelling.
  std::string hex() const;
};

/// Streaming tagged hasher. Each value is folded with a type tag and (for
/// byte strings) a length prefix, so the digest is injective over the field
/// *sequence*, not just the concatenated bytes.
class KeyBuilder {
 public:
  KeyBuilder();

  KeyBuilder& u64(std::uint64_t v);
  KeyBuilder& f64(double v);  ///< IEEE-754 bit pattern, so -0.0 != 0.0
  KeyBuilder& str(std::string_view s);
  KeyBuilder& bytes(const std::uint8_t* data, std::size_t n);

  ResultKey finish() const noexcept { return {hi_, lo_}; }

 private:
  void fold(const std::uint8_t* data, std::size_t n) noexcept;

  std::uint64_t hi_;
  std::uint64_t lo_;
};

/// Plain FNV-1a 64 over a byte span, one byte at a time: the hash of the
/// e2e result digest and of gfcheck's --dump lines. Its value is pinned;
/// the store's checksums use checksum64.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept;

/// The store's payload and WAL-entry checksum: xxHash64 (seed 0), computed
/// four 8-byte lanes at a time from portable little-endian word loads. Byte-
/// at-a-time FNV-1a ran an order of magnitude slower over the megabytes a
/// store open and a cache-hit campaign verify.
std::uint64_t checksum64(const std::uint8_t* data, std::size_t n) noexcept;

}  // namespace gf::store
