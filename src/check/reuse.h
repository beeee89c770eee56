// Reuse-order oracle: a reset controller must be indistinguishable from a
// freshly built one.
//
// The campaign runner builds one warm controller per chunk and resets it to
// the cell snapshot between single-fault runs. Each run must nevertheless
// stay a pure function of its store key — no state may leak from whatever
// ran on the controller before. run_reuse_order() makes that checkable: it
// runs a set of faults once each on a fresh Controller(snap) and again in a
// shuffled order on ONE controller that is reset between runs, encoding
// every run as the store's canonical run record (result + obs bundle).
// tests/test_reset.cpp and the gfcheck matrix engine compare the two byte
// for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "depbench/controller.h"
#include "snapshot/warmboot.h"
#include "swfit/faultload.h"

namespace gf::check {

/// One fault's single-fault run, observed both ways.
struct ReuseRun {
  std::size_t fault_index = 0;
  std::vector<std::uint8_t> fresh;   ///< record on a fresh Controller(snap)
  std::vector<std::uint8_t> reused;  ///< record on the shared, reset controller
  depbench::CampaignCounters counters;  ///< monitor counters of the fresh run
  /// The fresh run left the disk differing from the snapshot's (a new file
  /// or a changed server log), so the reset had a disk delta to undo.
  bool disk_written = false;
};

/// Runs fault `faults[i]` of `fl` (the runner's single-fault configuration
/// over `base`, seeded depbench::derive_seed(seed, 0, 1 + index), obs on)
/// once on a fresh controller each, then all of them in a
/// `shuffle_seed`-shuffled order on one controller reset between runs.
/// After every recorded shared run the same fault runs once more without
/// obs, so a reset that left the API sink pointing at the previous run's
/// bundle shows up as a diverging record.
std::vector<ReuseRun> run_reuse_order(
    const std::shared_ptr<const snapshot::WarmSnapshot>& snap,
    const swfit::Faultload& fl, const std::vector<std::size_t>& faults,
    const depbench::ControllerConfig& base, std::uint64_t seed,
    std::uint64_t shuffle_seed);

}  // namespace gf::check
