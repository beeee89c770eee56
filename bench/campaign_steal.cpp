// BM_CampaignSteal — scheduler A/B: work-stealing chunked campaign vs the
// static sharder, on the naturally skewed faultload (hang-window faults that
// burn the full observation window next to fast-fail faults that collapse
// it), with a byte-identity check across the two schedules.
//
//   A (static): --no-steal + S fixed-size chunks per iteration — the old
//     fixed (cell, task, shard) grid. Chunk costs are wildly uneven, so
//     workers idle while the unlucky one drains its worst-case range.
//   B (steal):  adaptive cost-balanced chunks + LPT seeding + steal-half.
//
// Both runs produce byte-identical campaign artifacts (manifest JSON,
// journal JSONL, activation JSONL) — the bench fails hard if they diverge.
// Results go to BENCH_sched.json (schema genfault-sched-bench/1, validated
// by tools/json_check --schema sched), including each run's SchedStats.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "obs/json.h"
#include "os/kernel.h"
#include "os/sources.h"
#include "swfit/scanner.h"
#include "trace/activation.h"
#include "util/flags.h"

namespace {

using namespace gf;

struct AbRun {
  double wall_ms = 0;
  double makespan_ms = 0;  ///< max per-worker thread-CPU (dedicated-core wall)
  std::string manifest;
  std::string journal;
  std::string activations;
  std::string sched_json;
};

AbRun run_campaign(depbench::RunnerOptions ropt, bool steal, int chunk) {
  ropt.steal = steal;
  ropt.chunk = chunk;
  ropt.obs = true;
  ropt.trace = true;

  depbench::CampaignRunner runner(ropt);
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = runner.run_campaign();
  AbRun out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();

  const auto* obs = runner.campaign_obs();
  out.manifest = depbench::campaign_manifest_json(cells, runner.options(), obs);
  std::ostringstream journal;
  depbench::write_campaign_journal(journal, *obs);
  out.journal = journal.str();
  std::ostringstream act;
  for (const auto& cell : cells) {
    for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
      trace::write_jsonl(act,
                         cell.os_name + "/" + cell.server_name + "/iter" +
                             std::to_string(it),
                         cell.iterations[it].activations);
    }
  }
  out.activations = act.str();
  out.makespan_ms = runner.scheduler_stats()->makespan_cpu_us() / 1000.0;
  out.sched_json = runner.scheduler_stats()->to_json();
  return out;
}

// Largest per-iteration schedule position count over the campaign's
// faultloads (position p = faultload index p * stride).
std::size_t max_positions(const depbench::RunnerOptions& ropt) {
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  const auto stride = static_cast<std::size_t>(ropt.stride);
  std::size_t most = 0;
  for (const auto version : ropt.versions) {
    os::Kernel kernel(version);
    const auto n =
        swfit::Scanner{}.scan(kernel.pristine_image(), names).faults.size();
    most = std::max(most, (n + stride - 1) / stride);
  }
  return most;
}

}  // namespace

int main(int argc, char** argv) {
  depbench::RunnerOptions ropt;
  // Sized so the cost skew is visible: windows long enough (scale 0.15 =
  // 1.5 s exposures) that the healthy-vs-killed op-count gap dominates the
  // fixed per-fault overhead, a chunky indivisible baseline per cell, and
  // more workers than the static partition can keep fed.
  ropt.stride = 12;
  ropt.iterations = 2;
  ropt.time_scale = 0.15;
  ropt.baseline_window_ms = 8000;
  ropt.jobs = 8;
  // The A side reproduces the sharder the scheduler replaced: S equal-
  // position shards per iteration (its default was 4), block-partitioned,
  // no rebalancing.
  int static_shards = 4;
  std::string out_path = "BENCH_sched.json";
  util::parse_value_flags(
      argc, argv,
      {{"--jobs", [&](auto v) { return util::parse_int(v, 1, ropt.jobs); }},
       {"--stride", [&](auto v) { return util::parse_int(v, 1, ropt.stride); }},
       {"--iterations",
        [&](auto v) { return util::parse_int(v, 0, ropt.iterations); }},
       {"--scale",
        [&](auto v) { return util::parse_real(v, false, ropt.time_scale); }},
       {"--baseline-ms",
        [&](auto v) {
          return util::parse_real(v, true, ropt.baseline_window_ms);
        }},
       {"--seed", [&](auto v) { return util::parse_int(v, 0, ropt.seed); }},
       {"--static-shards",
        [&](auto v) { return util::parse_int(v, 1, static_shards); }},
       {"--out", [&](auto v) { out_path = v; return std::string(); }}},
      "[--jobs J] [--stride K] [--iterations N] [--scale S] "
      "[--baseline-ms MS] [--seed X] [--static-shards S] [--out FILE]");
  // S shards of the largest iteration, as one fixed chunk size for every
  // cell: VOS-XP's 72 positions at stride 12 make 18-position chunks.
  const auto positions = max_positions(ropt);
  const int static_chunk = static_cast<int>(
      (positions + static_cast<std::size_t>(static_shards) - 1) /
      static_cast<std::size_t>(static_shards));

  std::fprintf(stderr,
               "[BM_CampaignSteal] static sharder (jobs=%d, shards=%d, "
               "chunk=%d)...\n",
               ropt.jobs, static_shards, static_chunk);
  const auto stat = run_campaign(ropt, /*steal=*/false, static_chunk);
  std::fprintf(stderr, "[BM_CampaignSteal] work stealing (jobs=%d)...\n",
               ropt.jobs);
  const auto steal = run_campaign(ropt, /*steal=*/true, /*chunk=*/0);

  const bool identical = stat.manifest == steal.manifest &&
                         stat.journal == steal.journal &&
                         stat.activations == steal.activations;
  const double speedup = steal.wall_ms > 0 ? stat.wall_ms / steal.wall_ms : 0;
  // Wall-clock only separates the two schedules when the host actually has
  // `jobs` cores to idle; the thread-CPU makespan (longest per-worker work
  // total = wall on dedicated cores) measures schedule quality regardless of
  // how loaded or small the machine running the bench is.
  const double makespan_speedup =
      steal.makespan_ms > 0 ? stat.makespan_ms / steal.makespan_ms : 0;
  std::printf(
      "BM_CampaignSteal: wall %.0f -> %.0f ms (%.2fx), makespan %.0f -> "
      "%.0f ms (%.2fx), artifacts %s\n",
      stat.wall_ms, steal.wall_ms, speedup, stat.makespan_ms,
      steal.makespan_ms, makespan_speedup,
      identical ? "byte-identical" : "DIVERGED");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  using obs::json::number;
  out << "{\n  \"schema\": \"genfault-sched-bench/1\",\n";
  out << "  \"jobs\": " << ropt.jobs << ",\n";
  out << "  \"static_ms\": " << number(stat.wall_ms) << ",\n";
  out << "  \"steal_ms\": " << number(steal.wall_ms) << ",\n";
  out << "  \"speedup\": " << number(speedup) << ",\n";
  out << "  \"static_makespan_ms\": " << number(stat.makespan_ms) << ",\n";
  out << "  \"steal_makespan_ms\": " << number(steal.makespan_ms) << ",\n";
  out << "  \"makespan_speedup\": " << number(makespan_speedup) << ",\n";
  out << "  \"artifacts_identical\": " << (identical ? "true" : "false")
      << ",\n";
  auto indent = [](const std::string& json) {
    std::string s;
    for (const char ch : json) {
      s += ch;
      if (ch == '\n') s += "  ";
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\n')) s.pop_back();
    return s;
  };
  out << "  \"static\": " << indent(stat.sched_json) << ",\n";
  out << "  \"steal\": " << indent(steal.sched_json) << "\n}\n";
  out.close();
  std::fprintf(stderr, "[BM_CampaignSteal] results -> %s\n", out_path.c_str());

  // Divergent artifacts are a correctness bug, not a perf result.
  return identical ? 0 : 1;
}
