// SPECWeb99-style file set.
//
// SPECWeb99 organizes its document tree into directories of files in four
// size classes with a fixed access mix (class popularity 35/50/14/1). We
// keep that structure but scale absolute sizes down (largest class 64 KiB
// instead of ~1 MB) so a full dependability campaign stays laptop-sized;
// the DESIGN.md substitution table documents this.
//
// Every file's content is the deterministic function of its path defined in
// web/http.h, which is what lets the client validate every served byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "os/disk.h"

namespace gf::spec {

struct FilesetConfig {
  int num_dirs = 4;
  int files_per_class = 9;  // SPECWeb99 layout
};

struct FileInfo {
  std::string path;
  std::size_t size = 0;
  int size_class = 0;  // 0..3
};

class Fileset {
 public:
  /// Populates `disk` with the document tree (and the /logs, /conf files
  /// the servers expect). The object keeps only the metadata
  /// (files()/class_members()), so a warm-boot snapshot holds a copy.
  Fileset(os::SimDisk& disk, const FilesetConfig& cfg = {});

  const std::vector<FileInfo>& files() const noexcept { return files_; }
  /// Document directories (at least 1): the Zipf range of a request's dir.
  int num_dirs() const noexcept { return num_dirs_; }
  /// Size of the document at `path`, or 0 when no document has that path.
  /// The path names its own index in files(), so no lookup table is kept.
  std::size_t size_of(std::string_view path) const;
  /// Files of one size class.
  const std::vector<std::size_t>& class_members(int size_class) const {
    return by_class_[static_cast<std::size_t>(size_class)];
  }

  /// SPECWeb99 class access weights (35/50/14/1).
  static const std::vector<double>& class_weights();

  /// Size of a class-`c`, index-`j` file (deterministic layout rule).
  static std::size_t file_size(int size_class, int j);

  double mean_file_size() const;

 private:
  std::vector<FileInfo> files_;
  std::vector<std::vector<std::size_t>> by_class_;
  int num_dirs_ = 1;
  std::size_t files_per_class_ = 0;
};

}  // namespace gf::spec
