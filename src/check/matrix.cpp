// Engine 1: the campaign matrix fuzzer.
//
// Samples a random small campaign — one (OS version, server) cell, a random
// faultload subset, random iterations/stride/windows — and executes it twice:
// once at the jobs=1 reference shape and once at a random parallel shape
// (jobs, chunk, steal, fusion). The repo-wide determinism
// contract says scheduling shape must be unobservable in every deterministic
// artifact, so the oracle is plain byte equality:
//
//   manifest JSON == journal JSONL == activation JSONL/summary ==
//   profile JSON == flamegraph == derived §3.2 metrics (exact doubles).
//
// The schedule knobs legitimately appear in the manifest's options section,
// so BOTH runs render through the reference options struct — the comparison
// then covers exactly the result payload (cells + merged obs).
//
// warm_boot is different: the snapshot contract (tests/test_snapshot.cpp)
// promises cold/warm equivalence of the RESULTS — metrics, counters,
// activation records — but a cold boot legitimately executes the bring-up
// API traffic inside every task, so the merged obs registry/journal/profile
// differ by design. The fuzzer therefore shares a random warm_boot between
// reference and variant for the full-artifact oracle, and adds a separate
// warm/cold flip compared through the results-only artifacts: the table
// rendered without obs.
//
// A random subset of cases additionally wires a persistent store through the
// variant shape: the cold run (all misses, everything committed) and an
// all-hit replay of the same store must both reproduce the reference bytes —
// the cache may never change what a campaign computes.
//
// Another subset runs the reuse-order oracle (check/reuse.h) over the case's
// faultload: each fault's run record on a fresh warm controller must equal
// its record on one controller reset between faults in shuffled order.
//
// Every case also holds the artifact decoders to a byte fixpoint: the
// reference manifest and profile document, and a self-diff of the manifest,
// must decode and render back to exactly the bytes they were decoded from.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/internal.h"
#include "check/reuse.h"
#include "depbench/campaign_diff.h"
#include "depbench/campaign_report.h"
#include "depbench/report.h"
#include "depbench/runner.h"
#include "obs/json.h"
#include "os/kernel.h"
#include "os/sources.h"
#include "store/store.h"
#include "swfit/scanner.h"
#include "util/rng.h"

namespace gf::check {
namespace {

namespace fs = std::filesystem;
using internal::expect;
using internal::expect_same;
using internal::hex64;

/// Full fine-tuned faultload (Table 2 API surface) per OS version; the
/// kernel build and the scan both being deterministic, this is a constant.
const swfit::Faultload& full_faultload(os::OsVersion v) {
  static std::map<os::OsVersion, swfit::Faultload> memo;
  auto it = memo.find(v);
  if (it == memo.end()) {
    os::Kernel kernel(v);
    std::vector<std::string> fns;
    for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
    it = memo.emplace(v, swfit::Scanner{}.scan(kernel.pristine_image(), fns))
             .first;
  }
  return it->second;
}

using Files = std::vector<std::pair<std::string, std::string>>;

/// Every deterministic artifact of one finished campaign (the artifact
/// table's output) plus the §3.2 metrics at exact precision, stricter than
/// the manifest's. Rendered through a FIXED options struct so runs of
/// different scheduling shape compare equal; a null `obs` leaves the
/// results-only set the warm/cold snapshot contract covers.
Files render(const std::vector<depbench::ExperimentCell>& cells,
             const depbench::RunnerOptions& render_opt,
             const depbench::CampaignObs* obs) {
  auto files = depbench::render_campaign_artifacts({cells, render_opt, obs});
  std::ostringstream d;
  for (const auto& cell : cells) {
    const auto m = depbench::derive_metrics(cell);
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s/%s %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                  cell.os_name.c_str(), cell.server_name.c_str(), m.spcf,
                  m.thrf, m.rtmf, m.erf_pct, m.admf, m.spc_rel, m.thr_rel);
    d << line;
  }
  files.emplace_back("derived metrics", d.str());
  return files;
}

/// Byte-compares two renderings file by file, tagging failures with `shape`.
void compare(const Files& ref, const Files& got, const std::string& shape,
             CheckReport& report) {
  const auto set = "artifact set differs [" + shape + "]";
  if (!expect(ref.size() == got.size(), set, report)) return;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    expect_same(ref[i].first + " [" + shape + "]", ref[i].second,
                got[i].second, report);
  }
}

/// render(decode(bytes)) == bytes for every decodable document of `files`.
void check_fixpoints(const Files& files, CheckReport& report) {
  using obs::json::decode;
  for (const auto& [name, bytes] : files) {
    if (name == "manifest.json") {
      expect_same("manifest decode/render fixpoint", bytes,
                  decode<depbench::CampaignManifest>(bytes).to_json(), report);
      const auto self = depbench::diff_campaigns(bytes, bytes);
      if (expect(self.ok && !self.breached,
                 "manifest self-diff is not clean: " + self.error, report)) {
        expect_same("diff decode/render fixpoint", self.json,
                    decode<depbench::DiffReport>(self.json).to_json(), report);
      }
    } else if (name == "profile.json") {
      expect_same("profile decode/render fixpoint", bytes,
                  decode<depbench::ProfileDocument>(bytes).to_json(), report);
    }
  }
}

void run_case(std::uint64_t cs, const fs::path& scratch, CheckReport& report) {
  util::Rng rng(cs);

  const auto version =
      rng.chance(0.5) ? os::OsVersion::kVos2000 : os::OsVersion::kVosXp;
  static const char* kServers[] = {"apex", "abyssal", "sambar", "savant"};
  const std::string server = kServers[rng.bounded(4)];

  // Random faultload subset: 8..24 distinct faults, ascending index order
  // (a faultload's fault order is part of its identity).
  const auto& full = full_faultload(version);
  const std::size_t want = std::min<std::size_t>(
      full.faults.size(), 8 + static_cast<std::size_t>(rng.bounded(17)));
  std::set<std::size_t> picked;
  while (picked.size() < want) picked.insert(rng.bounded(full.faults.size()));
  swfit::Faultload sub;
  sub.target = full.target;
  sub.digest = full.digest;
  for (const auto i : picked) sub.faults.push_back(full.faults[i]);

  depbench::RunnerOptions base;
  base.versions = {version};
  base.servers = {server};
  base.iterations = 1 + static_cast<int>(rng.bounded(2));
  base.stride = 1 + static_cast<int>(rng.bounded(2));
  base.faultload = &sub;
  base.time_scale = 0.02;
  base.baseline_window_ms = rng.chance(0.5) ? 150 : 300;
  base.seed = rng.next();
  base.trace = rng.chance(0.5);
  base.obs = true;
  base.profile = rng.chance(0.3);
  base.profile_stride = rng.chance(0.5) ? 512 : 2048;
  // Shared by reference and variant: obs artifacts legitimately see the
  // bring-up API traffic of a cold boot (see the header comment).
  base.warm_boot = rng.chance(0.7);

  // Reference shape: serial, default strategies, no store.
  auto ref_opt = base;
  ref_opt.jobs = 1;
  ref_opt.chunk = 0;
  ref_opt.steal = true;
  ref_opt.fusion = true;

  // Random parallel shape: every scheduling/strategy knob the contract says
  // must be unobservable.
  auto var_opt = base;
  var_opt.jobs = 2 + static_cast<int>(rng.bounded(3));
  static const int kChunks[] = {0, 1, 2, 7};
  var_opt.chunk = kChunks[rng.bounded(4)];
  var_opt.steal = rng.chance(0.7);
  var_opt.fusion = rng.chance(0.5);

  depbench::CampaignRunner ref_runner(ref_opt);
  const auto ref_cells = ref_runner.run_campaign();
  const auto ref_art = render(ref_cells, ref_opt, ref_runner.campaign_obs());
  check_fixpoints(ref_art, report);

  const std::string shape =
      "jobs=" + std::to_string(var_opt.jobs) +
      " chunk=" + std::to_string(var_opt.chunk) +
      " steal=" + std::to_string(var_opt.steal) +
      " fusion=" + std::to_string(var_opt.fusion) +
      " warm=" + std::to_string(var_opt.warm_boot);

  {
    depbench::CampaignRunner var_runner(var_opt);
    const auto var_cells = var_runner.run_campaign();
    // Render through the REFERENCE options: the schedule knobs are allowed
    // in the manifest's options section, not in the results.
    compare(ref_art, render(var_cells, ref_opt, var_runner.campaign_obs()),
            shape, report);
  }

  // Snapshot oracle: flip warm/cold at the variant's parallel shape and
  // compare the results-only artifacts (the snapshot contract's surface).
  if (rng.chance(0.4)) {
    auto flip_opt = var_opt;
    flip_opt.warm_boot = !base.warm_boot;
    depbench::CampaignRunner flip_runner(flip_opt);
    const auto flip_cells = flip_runner.run_campaign();
    compare(render(ref_cells, ref_opt, nullptr),
            render(flip_cells, ref_opt, nullptr),
            shape + (flip_opt.warm_boot ? " warm-flip=warm" : " warm-flip=cold"),
            report);
  }

  // Store oracle: cold commit then all-hit replay, both == reference.
  if (rng.chance(0.35)) {
    const fs::path dir = scratch / ("case_" + hex64(cs));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir.parent_path(), ec);
    {
      store::CampaignStore store(dir.string());
      auto cold_opt = var_opt;
      cold_opt.store = &store;

      depbench::CampaignRunner cold_runner(cold_opt);
      const auto cold_cells = cold_runner.run_campaign();
      compare(ref_art, render(cold_cells, ref_opt, cold_runner.campaign_obs()),
              shape + " store=cold", report);
      const auto* st = cold_runner.store_stats();
      expect(st != nullptr && st->hits == 0,
             "cold store run reported cache hits", report);

      depbench::CampaignRunner hit_runner(cold_opt);
      const auto hit_cells = hit_runner.run_campaign();
      compare(ref_art, render(hit_cells, ref_opt, hit_runner.campaign_obs()),
              shape + " store=all-hit", report);
      const auto* ht = hit_runner.store_stats();
      expect(ht != nullptr && ht->misses == 0,
             "all-hit store replay reported misses", report);
    }
    fs::remove_all(dir, ec);
  }

  // Reuse-order oracle: the runner resets one warm controller per chunk
  // between faults, so every fault's run record must equal a fresh
  // controller's whatever ran on the shared one before (check/reuse.h).
  if (rng.chance(0.5)) {
    depbench::ControllerConfig cfg;
    cfg.connections = server == "apex" ? 37 : 34;
    cfg.time_scale = base.time_scale;
    cfg.trace = base.trace;
    cfg.profile_stride = base.profile ? base.profile_stride : 0;
    std::vector<std::size_t> faults(sub.faults.size());
    std::iota(faults.begin(), faults.end(), std::size_t{0});
    const auto shuffle_seed = rng.next();
    const auto runs =
        run_reuse_order(snapshot::capture_warm_boot(version, server), sub,
                        faults, cfg, base.seed, shuffle_seed);
    for (const auto& r : runs) {
      expect_same("reuse-order run record [f" + std::to_string(r.fault_index) +
                      " shuffle=" + hex64(shuffle_seed) + "]",
                  std::string(r.fresh.begin(), r.fresh.end()),
                  std::string(r.reused.begin(), r.reused.end()), report);
    }
  }
}

}  // namespace

CheckReport run_matrix_engine(const CheckOptions& opt) {
  const internal::ScratchRoot scratch(opt);
  return internal::run_cases(opt, "matrix",
                             [&scratch](std::uint64_t cs, CheckReport& report) {
                               run_case(cs, scratch.path(), report);
                             });
}

}  // namespace gf::check
