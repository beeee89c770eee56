// BM_CampaignResume / BM_CampaignIncremental — the campaign-store A/B.
//
// Three single-cell campaigns (VOS-2000/apex) against one persistent store:
//
//   cold         empty store; every run executes and commits
//   resume       identical campaign; every run must be a cache hit
//   incremental  one fault type's mutations edited ("the fault was fixed");
//                only that type's keys — and nothing else — re-execute
//
// The bench asserts the store's core contract — every deterministic campaign
// artifact of the all-hit resume run is byte-identical to the cold run's —
// and exits nonzero when one is not. Timings, speedups and the three runs'
// hit/miss telemetry land in BENCH_store.json ("genfault-store-bench/1"),
// which run_benches.sh validates with `json_check --schema store`
// (including the semantic hit/miss cross-checks: cold has no hits, resume
// has no misses, the incremental run mixes both).
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/report.h"
#include "depbench/runner.h"
#include "os/kernel.h"
#include "store/store.h"
#include "swfit/scanner.h"
#include "util/flags.h"
#include "util/log.h"

namespace {

using namespace gf;

struct RunOutcome {
  double ms = 0;
  std::vector<std::pair<std::string, std::string>> artifacts;
  store::StoreStats stats;
};

std::vector<std::string> api_names() {
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0, stride = 24, iterations = 1;
  double scale = 0.05;
  std::uint64_t seed = 77;
  std::string out = "BENCH_store.json";
  std::string dir = "bench-store-scratch";
  util::parse_value_flags(
      argc, argv,
      {{"--jobs", [&](auto v) { return util::parse_int(v, 0, jobs); }},
       {"--stride", [&](auto v) { return util::parse_int(v, 1, stride); }},
       {"--iterations",
        [&](auto v) { return util::parse_int(v, 0, iterations); }},
       {"--scale", [&](auto v) { return util::parse_real(v, false, scale); }},
       {"--seed", [&](auto v) { return util::parse_int(v, 0, seed); }},
       {"--out", [&](auto v) { out = v; return std::string(); }},
       {"--store-dir", [&](auto v) { dir = v; return std::string(); }}},
      "[--jobs J] [--stride K] [--iterations N] [--scale S] [--seed X] "
      "[--out FILE] [--store-dir DIR]");

  os::Kernel kernel(os::OsVersion::kVos2000);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), api_names());

  depbench::RunnerOptions base;
  base.versions = {os::OsVersion::kVos2000};
  base.servers = {"apex"};
  base.iterations = iterations;
  base.stride = stride;
  base.time_scale = scale;
  base.baseline_window_ms = 2000;
  base.seed = seed;
  base.jobs = jobs;
  base.trace = true;
  base.obs = true;

  // Start from an empty store: the cold run must populate, not hit.
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());

  auto run = [&](const swfit::Faultload& faults) {
    store::CampaignStore st(dir);
    auto ropt = base;
    ropt.faultload = &faults;
    ropt.store = &st;
    depbench::CampaignRunner runner(ropt);
    const auto t0 = std::chrono::steady_clock::now();
    const auto cells = runner.run_campaign();
    const auto t1 = std::chrono::steady_clock::now();
    RunOutcome o;
    o.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    o.artifacts = depbench::render_campaign_artifacts(
        {cells, runner.options(), runner.campaign_obs()});
    o.stats = *runner.store_stats();
    return o;
  };

  std::fprintf(stderr, "[store-bench] cold run (populates %s)\n", dir.c_str());
  const auto cold = run(fl);
  std::fprintf(stderr, "[store-bench] resume run (expects all hits)\n");
  const auto resume = run(fl);

  // The incremental scenario: the rarest fault type on the sampled schedule
  // gets its mutations "fixed" (mutated window := original window). Original
  // windows are untouched, so the profile-mode baseline stays cached; only
  // the edited type's fault keys change.
  const auto positions =
      fl.faults.empty()
          ? std::size_t{0}
          : (fl.faults.size() + static_cast<std::size_t>(stride) - 1) /
                static_cast<std::size_t>(stride);
  std::array<std::size_t, swfit::kNumFaultTypes> sampled{};
  for (std::size_t p = 0; p < positions; ++p) {
    ++sampled[static_cast<std::size_t>(
        fl.faults[p * static_cast<std::size_t>(stride)].type)];
  }
  std::size_t edited = 0;
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    if (sampled[t] == 0) continue;
    if (sampled[edited] == 0 || sampled[t] < sampled[edited]) edited = t;
  }
  auto fl2 = fl;
  for (auto& f : fl2.faults) {
    if (static_cast<std::size_t>(f.type) == edited) f.mutated = f.original;
  }
  const auto expected_misses =
      static_cast<std::uint64_t>(iterations) * sampled[edited];
  std::fprintf(stderr,
               "[store-bench] incremental run (%s edited: %llu of %zu "
               "positions per iteration re-execute)\n",
               swfit::fault_type_name(static_cast<swfit::FaultType>(edited)),
               static_cast<unsigned long long>(sampled[edited]), positions);
  const auto incr = run(fl2);

  const bool identical = cold.artifacts == resume.artifacts;
  const double resume_speedup = resume.ms > 0 ? cold.ms / resume.ms : 0;
  const double incr_speedup = incr.ms > 0 ? cold.ms / incr.ms : 0;
  std::printf("BM_CampaignResume       cold %.0f ms -> resume %.0f ms "
              "(%.1fx), %llu hits\n",
              cold.ms, resume.ms, resume_speedup,
              static_cast<unsigned long long>(resume.stats.hits));
  std::printf("BM_CampaignIncremental  cold %.0f ms -> incremental %.0f ms "
              "(%.1fx), %llu hits / %llu misses (expected %llu misses)\n",
              cold.ms, incr.ms, incr_speedup,
              static_cast<unsigned long long>(incr.stats.hits),
              static_cast<unsigned long long>(incr.stats.misses),
              static_cast<unsigned long long>(expected_misses));
  std::printf("artifacts identical across cache-hit patterns: %s\n",
              identical ? "yes" : "NO — DETERMINISM REGRESSION");

  std::ostringstream json;
  json << "{\"schema\": \"genfault-store-bench/1\", \"jobs\": " << jobs
       << ", \"cold_ms\": " << cold.ms << ", \"resume_ms\": " << resume.ms
       << ", \"incremental_ms\": " << incr.ms
       << ", \"resume_speedup\": " << resume_speedup
       << ", \"incremental_speedup\": " << incr_speedup
       << ", \"artifacts_identical\": " << (identical ? "true" : "false")
       << ", \"edited_type\": \""
       << swfit::fault_type_name(static_cast<swfit::FaultType>(edited))
       << "\", \"expected_incremental_misses\": " << expected_misses
       << ",\n \"cold\": " << cold.stats.to_json()
       << ",\n \"resume\": " << resume.stats.to_json()
       << ",\n \"incremental\": " << incr.stats.to_json() << "}\n";
  std::ofstream f(out);
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  f << json.str();
  std::fprintf(stderr, "[store-bench] results -> %s\n", out.c_str());

  if (!identical) return 1;
  if (resume.stats.misses != 0 || incr.stats.misses != expected_misses) {
    std::fprintf(stderr,
                 "error: unexpected miss pattern (resume %llu, incremental "
                 "%llu != %llu)\n",
                 static_cast<unsigned long long>(resume.stats.misses),
                 static_cast<unsigned long long>(incr.stats.misses),
                 static_cast<unsigned long long>(expected_misses));
    return 1;
  }
  return 0;
}
