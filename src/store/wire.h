// Little-endian wire helpers for the campaign store's on-disk records.
//
// Every persisted byte in src/store goes through these two classes, so the
// encoding is fixed-width, platform-independent and — crucially for the
// resume byte-identity contract — *canonical*: encoding the same logical
// record twice yields the same bytes, and doubles round-trip bit-exactly
// (they are stored as their IEEE-754 bit patterns, never via text).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gf::store {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte buffer writer.
class BufWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// Bit-exact double: the IEEE-754 pattern as u64.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked sequential reader over an encoded record. Every decode
/// failure throws WireError — a corrupt or truncated payload must never be
/// silently misread as a cached result.
class BufReader {
 public:
  BufReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto* p = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }
  std::uint64_t u64() {
    const auto* p = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const auto n = u32();
    const auto* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (size_ - pos_ < n) throw WireError("record truncated");
    const auto* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace gf::store
