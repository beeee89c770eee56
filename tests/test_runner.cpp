// Tests for the parallel campaign runner: worker count must never change
// results (per-task seeds are derived, slots are preallocated).
#include <gtest/gtest.h>

#include <stdexcept>

#include "depbench/runner.h"

namespace gf::depbench {
namespace {

RunnerOptions quick_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex", "abyssal"};
  opt.iterations = 2;
  opt.stride = 17;
  opt.time_scale = 0.2;
  opt.baseline_window_ms = 15000;
  opt.seed = 42;
  return opt;
}

void expect_same_metrics(const spec::WindowMetrics& a,
                         const spec::WindowMetrics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.bytes, b.bytes);
  // Exact, not within-ULPs: worker count must not change a single bit.
  EXPECT_EQ(a.duration_ms, b.duration_ms);
  EXPECT_EQ(a.thr, b.thr);
  EXPECT_EQ(a.rtm_ms, b.rtm_ms);
  EXPECT_EQ(a.er_pct, b.er_pct);
  EXPECT_EQ(a.spc, b.spc);
  EXPECT_EQ(a.cc_pct, b.cc_pct);
}

void expect_same_counters(const CampaignCounters& a,
                          const CampaignCounters& b) {
  EXPECT_EQ(a.mis, b.mis);
  EXPECT_EQ(a.kns, b.kns);
  EXPECT_EQ(a.kcp, b.kcp);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.self_restarts, b.self_restarts);
}

TEST(CampaignRunnerTest, JobsDoNotChangeResults) {
  auto opt = quick_options();
  opt.jobs = 1;
  auto sequential = CampaignRunner(opt).run_campaign();
  opt.jobs = 4;
  auto parallel = CampaignRunner(opt).run_campaign();

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t c = 0; c < sequential.size(); ++c) {
    SCOPED_TRACE(sequential[c].os_name + "/" + sequential[c].server_name);
    EXPECT_EQ(sequential[c].os_name, parallel[c].os_name);
    EXPECT_EQ(sequential[c].server_name, parallel[c].server_name);
    expect_same_metrics(sequential[c].baseline, parallel[c].baseline);
    ASSERT_EQ(sequential[c].iterations.size(), parallel[c].iterations.size());
    for (std::size_t i = 0; i < sequential[c].iterations.size(); ++i) {
      expect_same_metrics(sequential[c].iterations[i].metrics,
                          parallel[c].iterations[i].metrics);
      expect_same_counters(sequential[c].iterations[i].counters,
                           parallel[c].iterations[i].counters);
    }
    // Merged views (the numbers the Table 5 report prints) match too.
    expect_same_metrics(average_iteration_metrics(sequential[c].iterations),
                        average_iteration_metrics(parallel[c].iterations));
    const auto avg_a = average_counters(sequential[c].iterations);
    const auto avg_b = average_counters(parallel[c].iterations);
    EXPECT_DOUBLE_EQ(avg_a.admf(), avg_b.admf());
    EXPECT_DOUBLE_EQ(avg_a.self_restarts, avg_b.self_restarts);
  }
}

TEST(CampaignRunnerTest, IntrusivenessPairsRunsPerCell) {
  auto opt = quick_options();
  opt.servers = {"apex"};
  opt.jobs = 2;
  const auto cells = CampaignRunner(opt).run_intrusiveness();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].server_name, "apex");
  // Profile mode never patches: conformance stays within one connection of
  // the injector-free run (short windows can cut off one straggler) and the
  // throughput overhead stays tiny.
  EXPECT_GE(cells[0].profile.spc + 1, cells[0].max_perf.spc);
  EXPECT_GT(cells[0].profile.thr, cells[0].max_perf.thr * 0.97);
}

TEST(CampaignRunnerTest, IntrusivenessJobsDoNotChangeResults) {
  auto opt = quick_options();
  opt.jobs = 1;
  const auto sequential = CampaignRunner(opt).run_intrusiveness();
  opt.jobs = 4;
  const auto parallel = CampaignRunner(opt).run_intrusiveness();

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t c = 0; c < sequential.size(); ++c) {
    SCOPED_TRACE(sequential[c].os_name + "/" + sequential[c].server_name);
    EXPECT_EQ(sequential[c].os_name, parallel[c].os_name);
    EXPECT_EQ(sequential[c].server_name, parallel[c].server_name);
    expect_same_metrics(sequential[c].max_perf, parallel[c].max_perf);
    expect_same_metrics(sequential[c].profile, parallel[c].profile);
  }
}

TEST(CampaignRunnerTest, UnknownServerPropagatesFromThePool) {
  // The worker pool rethrows a unit's error on the calling thread: from the
  // snapshot capture in run_campaign and from a Table 4 run alike.
  auto opt = quick_options();
  opt.servers = {"apex", "nosuch"};
  opt.jobs = 4;
  auto expect_unknown_server = [](auto&& run) {
    try {
      run();
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "unknown server: nosuch");
    }
  };
  expect_unknown_server([&] { CampaignRunner(opt).run_campaign(); });
  expect_unknown_server([&] { CampaignRunner(opt).run_intrusiveness(); });
}

TEST(CampaignRunnerTest, DeriveSeedIsStableAndSpreads) {
  // Pure function: same inputs, same seed — across calls and platforms.
  EXPECT_EQ(derive_seed(1, 0, 0), derive_seed(1, 0, 0));
  // Neighbouring (cell, task) pairs land in different streams.
  EXPECT_NE(derive_seed(1, 0, 1), derive_seed(1, 1, 0));
  EXPECT_NE(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
}

TEST(CampaignRunnerTest, MergeHelpersAreExactForCountersAndIdentityForOne) {
  CampaignCounters a, b;
  a.mis = 1; a.kns = 2; a.kcp = 3; a.faults_injected = 10; a.self_restarts = 4;
  b.mis = 5; b.kns = 6; b.kcp = 7; b.faults_injected = 20; b.self_restarts = 8;
  const auto m = merge_counters(a, b);
  EXPECT_EQ(m.mis, 6);
  EXPECT_EQ(m.kns, 8);
  EXPECT_EQ(m.kcp, 10);
  EXPECT_EQ(m.faults_injected, 30);
  EXPECT_EQ(m.self_restarts, 12);
  EXPECT_EQ(m.admf(), 24);

  // One run folds to itself: THR recomputed from the sums is the run's own.
  IterationResult one;
  one.metrics.duration_ms = 2000;
  one.metrics.ops = 3;
  one.metrics.thr = 1.5;
  one.counters.mis = 2;
  const auto same = merge_fault_runs({one});
  EXPECT_EQ(same.metrics.ops, 3u);
  EXPECT_DOUBLE_EQ(same.metrics.thr, 1.5);
  EXPECT_EQ(same.counters.mis, 2);
}

}  // namespace
}  // namespace gf::depbench
