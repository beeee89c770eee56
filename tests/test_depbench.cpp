// Tests for the dependability-benchmark layer: profiling (Table 2),
// fine-tuning (Table 3), the experiment controller (Tables 4/5), and the
// report/metric derivations — including the paper's repeatability and
// differentiation properties on miniature campaigns.
#include <gtest/gtest.h>

#include "depbench/report.h"
#include "depbench/tuner.h"
#include "snapshot/warmboot.h"

namespace gf::depbench {
namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

TEST(ProfilerTest, CoversAllFunctionsAcrossAllServers) {
  ProfilerConfig cfg;
  cfg.window_ms = 30000;
  Profiler profiler(cfg);
  const auto profile = profiler.profile(
      os::OsVersion::kVos2000, {"apex", "abyssal", "sambar", "savant"});
  ASSERT_EQ(profile.columns.size(), 4u);
  const auto relevant = profile.relevant_functions();
  // Every Table 2 function is used by every server (the intersection rule).
  EXPECT_EQ(relevant.size(), os::api_functions().size());
  for (const auto& col : profile.columns) {
    EXPECT_GT(col.total_calls, 1000u) << col.server;
    double sum = 0;
    for (const auto& [fn, pct] : col.pct) sum += pct;
    EXPECT_NEAR(sum, 100.0, 0.1) << col.server;
  }
}

TEST(ProfilerTest, IntersectionDropsUnusedFunctions) {
  ApiProfile profile;
  ProfileColumn a, b;
  a.server = "a";
  a.pct = {{"NtClose", 60.0}, {"NtOpenFile", 40.0}};
  b.server = "b";
  b.pct = {{"NtClose", 100.0}};
  profile.columns = {a, b};
  const auto relevant = profile.relevant_functions();
  ASSERT_EQ(relevant.size(), 1u);
  EXPECT_EQ(relevant[0], "NtClose");
  EXPECT_DOUBLE_EQ(profile.average_pct("NtClose"), 80.0);
  EXPECT_DOUBLE_EQ(profile.total_coverage(), 80.0);
}

TEST(ProfilerTest, ThresholdFiltersNegligibleFunctions) {
  ApiProfile profile;
  ProfileColumn a;
  a.server = "a";
  a.pct = {{"NtClose", 99.9}, {"NtOpenFile", 0.01}};
  profile.columns = {a};
  EXPECT_EQ(profile.relevant_functions(0.05).size(), 1u);
  EXPECT_EQ(profile.relevant_functions(0.0).size(), 2u);
}

TEST(TunerTest, ProducesFaultloadRestrictedToProfiledFunctions) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  ProfilerConfig cfg;
  cfg.window_ms = 15000;
  const auto tuned = tune_faultload(kernel, {"apex", "savant"}, cfg);
  EXPECT_FALSE(tuned.functions.empty());
  EXPECT_FALSE(tuned.faultload.faults.empty());
  for (const auto& f : tuned.faultload.faults) {
    EXPECT_NE(std::find(tuned.functions.begin(), tuned.functions.end(),
                        f.function),
              tuned.functions.end())
        << f.function;
  }
  EXPECT_TRUE(tuned.faultload.matches(kernel.pristine_image()));
}

// Miniature campaign fixture: scaled exposure, heavy fault sampling.
class CampaignTest : public ::testing::Test {
 protected:
  static ControllerConfig quick_config(const std::string& server) {
    ControllerConfig cfg;
    cfg.connections = server == "apex" ? 37 : 34;
    cfg.time_scale = 0.2;
    cfg.fault_stride = 17;
    return cfg;
  }

  static swfit::Faultload faultload(os::OsVersion v) {
    os::Kernel kernel(v);
    return swfit::Scanner{}.scan(kernel.pristine_image(), all_api_names());
  }
};

TEST_F(CampaignTest, BaselineHasNoErrorsAndFullConformance) {
  Controller ctl(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  const auto m = ctl.run_baseline(20000, 1);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_EQ(m.spc, 37);
}

TEST_F(CampaignTest, ProfileModeOverheadIsSmall) {
  const auto fl = faultload(os::OsVersion::kVos2000);
  Controller ctl(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  const auto base = ctl.run_baseline(20000, 1);
  const auto prof = ctl.run_profile_mode(fl, 20000, 1);
  EXPECT_EQ(prof.errors, 0u);
  EXPECT_EQ(prof.spc, base.spc);  // no SPC impact (paper Table 4)
  EXPECT_GT(prof.thr, base.thr * 0.97);  // <3% THR impact
}

TEST_F(CampaignTest, IterationRunsAndCountsFaults) {
  const auto fl = faultload(os::OsVersion::kVos2000);
  auto cfg = quick_config("abyssal");
  Controller ctl(os::OsVersion::kVos2000, "abyssal", cfg);
  const auto it = ctl.run_iteration(fl, 3);
  const auto expected =
      (fl.faults.size() + cfg.fault_stride - 1) / cfg.fault_stride;
  EXPECT_EQ(it.counters.faults_injected, static_cast<int>(expected));
  EXPECT_GT(it.metrics.ops, 0u);
  EXPECT_GT(it.metrics.errors, 0u);  // some faults must bite
}

TEST_F(CampaignTest, IterationRejectsWrongFaultload) {
  const auto fl = faultload(os::OsVersion::kVosXp);
  Controller ctl(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  EXPECT_THROW(ctl.run_iteration(fl, 1), std::invalid_argument);
}

TEST_F(CampaignTest, IterationRejectsFaultloadWithOtherDigestOrTarget) {
  // The controller compares against the kernel's pristine digest hashed
  // once at build time; a cold and a snapshot-built controller must both
  // still refuse a faultload whose digest or target differs from it.
  const auto fl = faultload(os::OsVersion::kVos2000);
  auto other_digest = fl;
  other_digest.digest ^= 1;
  auto other_target = fl;
  other_target.target += "-other";
  Controller cold(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  Controller warm(snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex"),
                  quick_config("apex"));
  for (Controller* ctl : {&cold, &warm}) {
    EXPECT_EQ(ctl->kernel().pristine_digest(),
              ctl->kernel().pristine_image().code_digest());
    EXPECT_THROW(ctl->run_iteration(other_digest, 1), std::invalid_argument);
    EXPECT_THROW(ctl->run_iteration(other_target, 1), std::invalid_argument);
  }
}

TEST_F(CampaignTest, RepeatabilityAcrossSeeds) {
  // The paper's repeatability property: iterations with different seeds
  // yield similar results (identical seeds yield identical results).
  const auto fl = faultload(os::OsVersion::kVos2000);
  Controller ctl(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  const auto a = ctl.run_iteration(fl, 5);
  const auto b = ctl.run_iteration(fl, 5);
  EXPECT_EQ(a.metrics.ops, b.metrics.ops);
  EXPECT_EQ(a.metrics.errors, b.metrics.errors);
  EXPECT_EQ(a.counters.mis, b.counters.mis);
  EXPECT_EQ(a.counters.kns, b.counters.kns);
}

TEST_F(CampaignTest, ApexOutperformsAbyssalUnderFaults) {
  const auto fl = faultload(os::OsVersion::kVos2000);
  Controller apex(os::OsVersion::kVos2000, "apex", quick_config("apex"));
  Controller abyssal(os::OsVersion::kVos2000, "abyssal",
                     quick_config("abyssal"));
  const auto a = apex.run_iteration(fl, 9);
  const auto b = abyssal.run_iteration(fl, 9);
  // The paper's core differential result.
  EXPECT_LT(a.metrics.er_pct, b.metrics.er_pct);
}

TEST(ReportTest, AverageCounters) {
  IterationResult r1, r2;
  r1.counters.mis = 4;
  r2.counters.mis = 6;
  r1.counters.kns = 1;
  r2.counters.kns = 3;
  const auto avg = average_counters({r1, r2});
  EXPECT_DOUBLE_EQ(avg.mis, 5.0);
  EXPECT_DOUBLE_EQ(avg.kns, 2.0);
  EXPECT_DOUBLE_EQ(avg.admf(), 7.0);
  EXPECT_DOUBLE_EQ(average_counters({}).admf(), 0.0);
}

TEST(ReportTest, DeriveMetricsComputesRelatives) {
  ExperimentCell cell;
  cell.baseline.spc = 40;
  cell.baseline.thr = 100;
  IterationResult it;
  it.metrics.spc = 10;
  it.metrics.thr = 80;
  it.metrics.er_pct = 5;
  it.counters.mis = 2;
  it.counters.kns = 3;
  cell.iterations = {it};
  const auto d = derive_metrics(cell);
  EXPECT_DOUBLE_EQ(d.spc_rel, 0.25);
  EXPECT_DOUBLE_EQ(d.thr_rel, 0.8);
  EXPECT_DOUBLE_EQ(d.admf, 5.0);
}

TEST(ReportTest, Table5CellRendersAllRows) {
  ExperimentCell cell;
  cell.os_name = "VOS-2000";
  cell.server_name = "apex";
  cell.baseline.spc = 37;
  IterationResult it;
  it.metrics.spc = 12;
  cell.iterations = {it, it, it};
  const auto text = render_table5_cell(cell);
  EXPECT_NE(text.find("Baseline Perf."), std::string::npos);
  EXPECT_NE(text.find("Iteration 3"), std::string::npos);
  EXPECT_NE(text.find("Average (all iter)"), std::string::npos);
}

TEST(ReportTest, Fig5RendersBars) {
  ExperimentCell cell;
  cell.os_name = "VOS-2000";
  cell.server_name = "apex";
  cell.baseline.spc = 37;
  cell.iterations.emplace_back();
  const auto text = render_fig5({cell});
  EXPECT_NE(text.find("SPCf"), std::string::npos);
  EXPECT_NE(text.find("ADMf"), std::string::npos);
}

}  // namespace
}  // namespace gf::depbench
