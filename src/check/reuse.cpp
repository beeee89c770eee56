#include "check/reuse.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "depbench/runner.h"
#include "store/campaign_codec.h"
#include "util/rng.h"

namespace gf::check {
namespace {

bool disk_differs(const os::SimDisk& got, const os::SimDisk& snap,
                  const std::string& log) {
  if (got.file_count() != snap.file_count()) return true;
  const auto* a = got.content(log);
  const auto* b = snap.content(log);
  return (a == nullptr) != (b == nullptr) || (a != nullptr && *a != *b);
}

}  // namespace

std::vector<ReuseRun> run_reuse_order(
    const std::shared_ptr<const snapshot::WarmSnapshot>& snap,
    const swfit::Faultload& fl, const std::vector<std::size_t>& faults,
    const depbench::ControllerConfig& base, std::uint64_t seed,
    std::uint64_t shuffle_seed) {
  // The runner's single-fault mini-run: offset = the fault's index, stride
  // spanning the whole faultload.
  auto config = [&](std::size_t index, depbench::TaskObs* obs) {
    auto cfg = base;
    cfg.fault_offset = static_cast<int>(index);
    cfg.fault_stride =
        static_cast<int>(std::max<std::size_t>(fl.faults.size(), 1));
    cfg.obs = obs;
    return cfg;
  };
  auto seed_of = [&](std::size_t index) {
    return depbench::derive_seed(seed, 0, 1 + index);
  };
  auto encode = [&](std::size_t index, const depbench::IterationResult& r,
                    const depbench::TaskObs& obs) {
    store::RunRecord rec;
    rec.cell = snap->server_name;
    rec.label = "f" + std::to_string(index);
    rec.result = r;
    rec.has_obs = true;
    rec.obs = obs;
    return store::encode_run_record(rec);
  };
  const std::string log = "/logs/" + snap->server_name + ".post";

  std::vector<ReuseRun> runs(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto index = faults[i];
    depbench::TaskObs obs;
    depbench::Controller ctl(snap, config(index, &obs));
    const auto r = ctl.run_iteration(fl, seed_of(index));
    runs[i].fault_index = index;
    runs[i].fresh = encode(index, r, obs);
    runs[i].counters = r.counters;
    runs[i].disk_written = disk_differs(ctl.kernel().disk(), snap->kernel.disk, log);
  }

  std::vector<std::size_t> order(faults.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(shuffle_seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }

  // Slots outlive the pass and are encoded only at its end, so a run that
  // wrote into an earlier run's bundle is caught.
  std::vector<depbench::TaskObs> slots(faults.size());
  std::vector<depbench::IterationResult> results(faults.size());
  std::unique_ptr<depbench::Controller> shared;
  auto run_shared = [&](std::size_t index, depbench::TaskObs* obs) {
    if (shared == nullptr) {
      shared = std::make_unique<depbench::Controller>(snap, config(index, obs));
    } else {
      shared->reset(config(index, obs));
    }
    return shared->run_iteration(fl, seed_of(index));
  };
  for (const auto k : order) {
    results[k] = run_shared(faults[k], &slots[k]);
    (void)run_shared(faults[k], nullptr);
  }
  for (std::size_t k = 0; k < faults.size(); ++k) {
    runs[k].reused = encode(faults[k], results[k], slots[k]);
  }
  return runs;
}

}  // namespace gf::check
