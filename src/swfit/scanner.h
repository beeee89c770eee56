// G-SWFIT step 1: scan a target module and generate the faultload.
//
// The scan is a pure function of (image bytes, symbol table, options) — the
// same target always yields byte-identical faultloads, which is what makes
// the methodology repeatable.
#pragma once

#include <string>
#include <vector>

#include "isa/image.h"
#include "swfit/faultload.h"
#include "swfit/operators.h"

namespace gf::swfit {

/// Hit/miss counters of the process-wide scan memo (diagnostics/tests).
struct ScanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

ScanCacheStats scan_cache_stats() noexcept;
void clear_scan_cache() noexcept;

class Scanner {
 public:
  explicit Scanner(ScanOptions opts = {}) : opts_(opts) {}

  /// Scans only the listed functions (the paper's fine-tuned faultload is
  /// restricted to the Table 2 API surface). Unknown names are ignored.
  ///
  /// Results are memoized process-wide, keyed by (image content digest,
  /// options, function list): the scan is a pure function of those inputs,
  /// and campaigns scan the same pristine image once per runner, bench
  /// binary, and capture pass. The cache is mutex-guarded (the campaign
  /// runner scans from worker threads).
  Faultload scan(const isa::Image& img,
                 const std::vector<std::string>& functions) const;

  /// Scans every symbol in the image.
  Faultload scan_all(const isa::Image& img) const;

  const ScanOptions& options() const noexcept { return opts_; }

 private:
  ScanOptions opts_;
};

}  // namespace gf::swfit
