#include "check/check.h"

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include "check/internal.h"
#include "util/rng.h"

namespace gf::check {

std::uint64_t case_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // Golden-ratio stride keeps neighbouring indices far apart in seed space;
  // SplitMix64 then decorrelates the stream. Stable across platforms — the
  // pair (--seed, case index) printed in a failure names the case forever.
  util::SplitMix64 g(base ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return g.next();
}

namespace internal {

ScratchRoot::ScratchRoot(const CheckOptions& opt) {
  if (!opt.scratch_dir.empty()) {
    path_ = opt.scratch_dir;
    return;
  }
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "gfcheck-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("gfcheck: cannot create a scratch directory " +
                             tmpl + ": " + std::strerror(errno));
  }
  path_ = tmpl;
  owned_ = true;
}

ScratchRoot::~ScratchRoot() {
  std::error_code ec;
  if (owned_) std::filesystem::remove_all(path_, ec);
}

}  // namespace internal

}  // namespace gf::check
