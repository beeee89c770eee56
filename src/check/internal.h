// Shared plumbing for the gfcheck engines: case iteration, repro lines,
// and first-divergence diffing. Internal to src/check.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "check/check.h"

namespace gf::check::internal {

inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::string repro_line(const std::string& engine, std::uint64_t seed) {
  return "gfcheck --engine " + engine + " --case-seed " + hex64(seed) +
         " --cases 1";
}

/// The scratch root of one engine call: `opt.scratch_dir` when set (left in
/// place), otherwise a fresh mkdtemp directory under the temp dir, removed
/// with its contents when the call returns. Concurrent engine calls, on
/// threads or in processes, replay the same case seeds and so the same
/// per-case directory names; a private root keeps one call from removing a
/// store another still has open.
class ScratchRoot {
 public:
  explicit ScratchRoot(const CheckOptions& opt);
  ~ScratchRoot();
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
  bool owned_ = false;
};

/// Runs every case of `opt` through `body(case_seed, report)`. The body
/// appends to report.failures on oracle violations; any escaped exception is
/// converted into a failure too (an engine must never crash the harness).
inline CheckReport run_cases(
    const CheckOptions& opt, const std::string& engine,
    const std::function<void(std::uint64_t, CheckReport&)>& body) {
  CheckReport report;
  const std::size_t n =
      opt.explicit_seeds.empty() ? opt.cases : opt.explicit_seeds.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t cs = opt.explicit_seeds.empty()
                                 ? case_seed(opt.seed, i)
                                 : opt.explicit_seeds[i];
    if (opt.verbose) {
      std::fprintf(stderr, "[gfcheck] %s case %zu/%zu seed %s\n",
                   engine.c_str(), i + 1, n, hex64(cs).c_str());
    }
    const std::size_t before = report.failures.size();
    try {
      body(cs, report);
    } catch (const std::exception& e) {
      report.failures.push_back(
          {engine, cs, std::string("unexpected exception: ") + e.what(),
           repro_line(engine, cs)});
    }
    report.cases++;
    for (std::size_t f = before; f < report.failures.size(); ++f) {
      report.failures[f].engine = engine;
      report.failures[f].case_seed = cs;
      report.failures[f].repro = repro_line(engine, cs);
    }
  }
  return report;
}

/// Byte-compares two renderings of the same artifact; on mismatch appends a
/// failure naming the artifact and the first divergent byte (with a short
/// context excerpt from both sides).
inline bool expect_same(const std::string& what, const std::string& ref,
                        const std::string& got, CheckReport& report) {
  if (ref == got) return true;
  std::size_t i = 0;
  const std::size_t n = ref.size() < got.size() ? ref.size() : got.size();
  while (i < n && ref[i] == got[i]) ++i;
  auto excerpt = [](const std::string& s, std::size_t at) {
    const std::size_t lo = at > 30 ? at - 30 : 0;
    return s.substr(lo, 60);
  };
  report.failures.push_back(
      {"", 0,
       what + " diverges at byte " + std::to_string(i) + " (ref " +
           std::to_string(ref.size()) + "B, got " + std::to_string(got.size()) +
           "B): ref \"..." + excerpt(ref, i) + "...\" vs got \"..." +
           excerpt(got, i) + "...\"",
       ""});
  return false;
}

/// expect_same for plain conditions.
inline bool expect(bool cond, const std::string& message, CheckReport& report) {
  if (!cond) report.failures.push_back({"", 0, message, ""});
  return cond;
}

}  // namespace gf::check::internal
