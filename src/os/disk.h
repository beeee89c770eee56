// SimDisk — the in-memory block device behind the VOS filesystem calls.
//
// All *policy* (handle validation, positions, buffer copies) lives in the
// MiniC OS code where it can be fault-injected; SimDisk is the raw device
// the kernel intrinsics expose. It deliberately has no notion of handles.
//
// File content is page-sparse, like vm::Machine memory: a file is its
// logical size plus the ascending kPageSize pages that hold a non-zero byte;
// every other byte below the size reads as zero. Positions and lengths come
// from guest memory a fault can corrupt (a guest address used as a length
// is typical), so a write costs host memory only for the non-zero pages it
// leaves, never for its length or offset.
//
// File content is also copy-on-write: copying a SimDisk (one copy per
// campaign task, cloned from the shared warm-boot snapshot) shares each
// file, and a writer detaches only the file it mutates. Workload filesets
// are a few MiB that iterations mostly read, so task startup stays O(files)
// instead of O(bytes).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gf::os {

class SimDisk {
 public:
  /// Largest file a write may produce. A write past this bound fails like a
  /// device error; below it, a far offset leaves a hole that costs nothing.
  static constexpr std::int64_t kMaxFileSize = std::int64_t{1} << 30;
  /// Storage granularity: a file stores whole pages that hold a non-zero byte.
  static constexpr std::int64_t kPageSize = 4096;

  /// Returns the file id, or nullopt if the path does not exist.
  std::optional<int> find(const std::string& path) const;

  /// Creates (or truncates) a file; returns its id.
  int create(const std::string& path);

  /// Adds a file with content (population helper for workload filesets).
  /// The content buffer becomes the file's page store, compacted in place.
  int add_file(const std::string& path, std::vector<std::uint8_t> content);

  std::optional<std::int64_t> size(int id) const;

  /// Host bytes holding the file's content: kPageSize per page that holds a
  /// non-zero byte. Nullopt for a bad id.
  std::optional<std::int64_t> stored_bytes(int id) const;

  /// Bytes a read of up to `len` at `offset` returns (0 at or past EOF), or
  /// nullopt for a bad id/offset/length.
  std::optional<std::int64_t> read_size(int id, std::int64_t offset,
                                        std::int64_t len) const;

  /// Visits bytes [offset, offset + len) of file `id` in order, as maximal
  /// runs: `run(data, n)` with `data` pointing at n stored bytes (valid
  /// until the next mutation of this disk), or nullptr for n bytes of a
  /// hole, which read as zero. The range must lie inside the file, as
  /// read_size() gives it.
  template <typename Run>
  void read_runs(int id, std::int64_t offset, std::int64_t len, Run&& run) const;

  /// Copies read_size(id, offset, out.size()) bytes into `out` and returns
  /// that count; nullopt for a bad id/offset.
  std::optional<std::int64_t> read(int id, std::int64_t offset,
                                   std::span<std::uint8_t> out) const;

  /// Writes, extending the file as needed; returns bytes written, or nullopt
  /// for a bad id/offset/length or a file that would exceed kMaxFileSize.
  std::optional<std::int64_t> write(int id, std::int64_t offset,
                                    const std::uint8_t* src, std::int64_t len);

  std::size_t file_count() const noexcept { return files_.size(); }

  /// True when `path` exists on neither disk, or on both with the same
  /// size and bytes. Compares stored pages only: no buffer of the size.
  bool same_content(const SimDisk& other, const std::string& path) const;

  /// The whole content of the file at `path` for test assertions, or
  /// nullopt if the path does not exist.
  std::optional<std::vector<std::uint8_t>> content(const std::string& path) const;

 private:
  struct File {
    std::int64_t size = 0;
    std::vector<std::int64_t> pages;  ///< non-zero page indices, ascending
    std::vector<std::uint8_t> bytes;  ///< kPageSize bytes per listed page
    /// The layout is canonical (no all-zero page is listed, and the bytes
    /// past `size` in the last page are zero), so equal files compare equal.
    friend bool operator==(const File&, const File&) = default;
  };

  bool valid(int id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < files_.size();
  }
  /// Returns a uniquely-owned file for `id`, cloning first when it is still
  /// shared with other disks (the copy-on-write fault).
  File& detach(std::size_t id);

  std::vector<std::shared_ptr<File>> files_;
  std::map<std::string, int> index_;
  std::vector<std::string> names_;
};

template <typename Run>
void SimDisk::read_runs(int id, std::int64_t offset, std::int64_t len,
                        Run&& run) const {
  const File& f = *files_[static_cast<std::size_t>(id)];
  const std::int64_t end = offset + len;
  auto it = std::lower_bound(f.pages.begin(), f.pages.end(), offset / kPageSize);
  std::int64_t pos = offset;
  while (pos < end) {
    if (it != f.pages.end() && *it == pos / kPageSize) {
      // Consecutive stored pages are adjacent in `bytes`: one run.
      auto last = it;
      while ((*last + 1) * kPageSize < end && last + 1 != f.pages.end() &&
             last[1] == *last + 1) {
        ++last;
      }
      const auto stop = std::min(end, (*last + 1) * kPageSize);
      const auto at = (it - f.pages.begin()) * kPageSize + pos % kPageSize;
      run(f.bytes.data() + at, static_cast<std::size_t>(stop - pos));
      pos = stop;
      it = last + 1;
    } else {
      const auto stop =
          it == f.pages.end() ? end : std::min(end, *it * kPageSize);
      run(static_cast<const std::uint8_t*>(nullptr),
          static_cast<std::size_t>(stop - pos));
      pos = stop;
    }
  }
}

}  // namespace gf::os
