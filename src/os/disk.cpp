#include "os/disk.h"

#include <cstring>

namespace gf::os {
namespace {

bool all_zero(const std::uint8_t* p, std::size_t n) noexcept {
  return n == 0 || (p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0);
}

}  // namespace

std::optional<int> SimDisk::find(const std::string& path) const {
  const auto it = index_.find(path);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

SimDisk::File& SimDisk::detach(std::size_t id) {
  auto& slot = files_[id];
  // use_count == 1 means no other disk shares this file; mutate in place.
  if (slot.use_count() != 1) slot = std::make_shared<File>(*slot);
  return *slot;
}

int SimDisk::create(const std::string& path) {
  const auto it = index_.find(path);
  if (it != index_.end()) {
    // Truncation must not clear a file other disks still read.
    files_[static_cast<std::size_t>(it->second)] = std::make_shared<File>();
    return it->second;
  }
  const int id = static_cast<int>(files_.size());
  files_.push_back(std::make_shared<File>());
  names_.push_back(path);
  index_[path] = id;
  return id;
}

int SimDisk::add_file(const std::string& path, std::vector<std::uint8_t> content) {
  const int id = create(path);
  auto& f = *files_[static_cast<std::size_t>(id)];  // fresh: not shared
  f.size = static_cast<std::int64_t>(content.size());
  const auto pages = (f.size + kPageSize - 1) / kPageSize;
  content.reserve(static_cast<std::size_t>(pages * kPageSize));  // exact: no slack
  content.resize(static_cast<std::size_t>(pages * kPageSize), 0);
  for (std::int64_t p = 0; p < pages; ++p) {
    const auto* page = content.data() + p * kPageSize;
    if (all_zero(page, kPageSize)) continue;
    const auto at = static_cast<std::int64_t>(f.pages.size()) * kPageSize;
    if (at != p * kPageSize) std::memmove(content.data() + at, page, kPageSize);
    f.pages.push_back(p);
  }
  content.resize(f.pages.size() * kPageSize);
  content.shrink_to_fit();
  f.bytes = std::move(content);
  return id;
}

std::optional<std::int64_t> SimDisk::size(int id) const {
  if (!valid(id)) return std::nullopt;
  return files_[static_cast<std::size_t>(id)]->size;
}

std::optional<std::int64_t> SimDisk::stored_bytes(int id) const {
  if (!valid(id)) return std::nullopt;
  return static_cast<std::int64_t>(files_[static_cast<std::size_t>(id)]->bytes.size());
}

std::optional<std::int64_t> SimDisk::read_size(int id, std::int64_t offset,
                                               std::int64_t len) const {
  if (!valid(id) || offset < 0 || len < 0) return std::nullopt;
  const auto size = files_[static_cast<std::size_t>(id)]->size;
  return offset >= size ? 0 : std::min(len, size - offset);
}

std::optional<std::int64_t> SimDisk::read(int id, std::int64_t offset,
                                          std::span<std::uint8_t> out) const {
  const auto n = read_size(id, offset, static_cast<std::int64_t>(out.size()));
  if (!n) return std::nullopt;
  auto* dst = out.data();
  read_runs(id, offset, *n, [&dst](const std::uint8_t* data, std::size_t k) {
    if (data != nullptr) {
      std::memcpy(dst, data, k);
    } else {
      std::memset(dst, 0, k);
    }
    dst += k;
  });
  return n;
}

std::optional<std::int64_t> SimDisk::write(int id, std::int64_t offset,
                                           const std::uint8_t* src, std::int64_t len) {
  if (!valid(id)) return std::nullopt;
  if (offset < 0 || len < 0 || offset > kMaxFileSize - len) return std::nullopt;
  auto& f = detach(static_cast<std::size_t>(id));
  f.size = std::max(f.size, offset + len);
  if (len == 0) return len;

  // Rebuild the pages [first, last] the write touches, then splice them in
  // place of the old ones: one pass, and a page enters the list only when
  // it ends up holding a non-zero byte.
  const auto first = offset / kPageSize;
  const auto last = (offset + len - 1) / kPageSize;
  const auto lo = std::lower_bound(f.pages.begin(), f.pages.end(), first);
  const auto hi = std::upper_bound(lo, f.pages.end(), last);
  const auto lo_at = (lo - f.pages.begin()) * kPageSize;
  std::vector<std::int64_t> pages;
  std::vector<std::uint8_t> bytes;
  auto old = lo;
  for (auto p = first; p <= last; ++p) {
    const auto begin = std::max(offset, p * kPageSize);
    const auto n = static_cast<std::size_t>(std::min(offset + len, (p + 1) * kPageSize) - begin);
    const auto* seg = src + (begin - offset);
    const bool had = old != hi && *old == p;
    const bool seg_zero = all_zero(seg, n);
    if (!had && seg_zero) continue;  // a hole stays a hole
    const auto at = bytes.size();
    bytes.resize(at + kPageSize);
    auto* page = bytes.data() + at;
    if (had) {
      std::memcpy(page, f.bytes.data() + lo_at + (old - lo) * kPageSize, kPageSize);
      ++old;
    }
    std::memcpy(page + (begin - p * kPageSize), seg, n);
    if (seg_zero && all_zero(page, kPageSize)) {
      bytes.resize(at);  // zeros written over the page's last non-zero bytes
      continue;
    }
    pages.push_back(p);
  }

  const auto hi_at = (hi - f.pages.begin()) * kPageSize;
  f.bytes.erase(f.bytes.begin() + lo_at, f.bytes.begin() + hi_at);
  f.bytes.insert(f.bytes.begin() + lo_at, bytes.begin(), bytes.end());
  const auto pos = f.pages.erase(lo, hi);
  f.pages.insert(pos, pages.begin(), pages.end());
  return len;
}

bool SimDisk::same_content(const SimDisk& other, const std::string& path) const {
  const auto a = find(path);
  const auto b = other.find(path);
  if (!a || !b) return !a && !b;
  return *files_[static_cast<std::size_t>(*a)] ==
         *other.files_[static_cast<std::size_t>(*b)];
}

std::optional<std::vector<std::uint8_t>> SimDisk::content(const std::string& path) const {
  const auto id = find(path);
  if (!id) return std::nullopt;
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(files_[static_cast<std::size_t>(*id)]->size));
  read(*id, 0, out);
  return out;
}

}  // namespace gf::os
