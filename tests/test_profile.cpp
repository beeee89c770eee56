// Deterministic guest profiler tests: the sampler's countdown must be a
// pure function of the retired instruction stream (so fusion on/off, worker
// count and store-resume never change a profile), the differential math must
// rank fault-vs-baseline share shifts, and the cross-campaign diff gate must
// be exactly zero on a self-diff and nonzero on injected drift.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "depbench/campaign_diff.h"
#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "isa/assembler.h"
#include "minic/compiler.h"
#include "obs/profile.h"
#include "store/store.h"
#include "vm/machine.h"

namespace gf::depbench {
namespace {

// ---------------------------------------------------------------- sampler

vm::Machine loop_machine(const isa::Image& img) {
  vm::Machine m;
  m.load_image(img);
  return m;
}

isa::Image loop_image() {
  return minic::compile(
      "fn f(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3; "
      "i = i + 1; } return s; }",
      "t", 0x1000);
}

std::uint64_t total_samples(const vm::Machine& m) {
  std::uint64_t total = 0;
  for (const auto& [pc, n] : m.samples()) total += n;
  return total;
}

TEST(SamplerTest, StrideScalesTotalsAndCarryIsExact) {
  const auto img = loop_image();
  const auto addr = img.find_symbol("f")->addr;

  auto m1 = loop_machine(img);
  m1.arm_sampler(1);
  m1.call(addr, {2000}, 1u << 24);
  const auto s1 = total_samples(m1);
  ASSERT_GT(s1, 0u);

  // Stride 1 samples once per retired cycle, so halving the rate must halve
  // the count exactly (up to the final partial stride).
  auto m2 = loop_machine(img);
  m2.arm_sampler(2);
  m2.call(addr, {2000}, 1u << 24);
  const auto s2 = total_samples(m2);
  EXPECT_LE(s1 / 2 - s2, 1u);
  EXPECT_LE(s2 - s1 / 2, 1u);

  // Phase-preserving carry: an instruction cost larger than the stride must
  // yield multiple samples, keeping totals exact.
  auto m3 = loop_machine(img);
  m3.arm_sampler(1);
  m3.call(addr, {100}, 1u << 24);
  auto m4 = loop_machine(img);
  m4.arm_sampler(1);
  m4.call(addr, {100}, 1u << 24);
  EXPECT_EQ(m3.samples(), m4.samples());
}

TEST(SamplerTest, FusionNeverChangesTheSampleStream) {
  const auto img = loop_image();
  const auto addr = img.find_symbol("f")->addr;
  for (const std::uint64_t stride : {1u, 7u, 4096u}) {
    auto fused = loop_machine(img);
    fused.set_fusion(true);
    fused.arm_sampler(stride);
    const auto rf = fused.call(addr, {5000}, 1u << 24);

    auto unfused = loop_machine(img);
    unfused.set_fusion(false);
    unfused.arm_sampler(stride);
    const auto ru = unfused.call(addr, {5000}, 1u << 24);

    EXPECT_EQ(rf.ret, ru.ret);
    EXPECT_EQ(fused.samples(), unfused.samples()) << "stride " << stride;

    // The no-predecode fallback retires the same architectural stream too.
    auto nopre = loop_machine(img);
    nopre.set_predecode(false);
    nopre.arm_sampler(stride);
    nopre.call(addr, {5000}, 1u << 24);
    EXPECT_EQ(fused.samples(), nopre.samples()) << "stride " << stride;
  }
}

// The sampler's due cycle shares one event horizon with the cycle budget.
// Over a chain of runs that stop every way a run can stop, the samples and
// the carried countdown must account for exactly the sampled cycles: every
// consumed cycle except the terminal ones (HALT and sentinel RET charge 1,
// a failed SYS 20), which stay unsampled. Fused and unfused machines agree.
TEST(SamplerTest, CarryIsExactAcrossChainedStops) {
  const auto loop = loop_image();
  const auto stops = isa::assemble(R"(
    g:
      movi r0, 1
      sys 2
      ret
    h:
      movi r0, 5
      halt
  )", "stops", 0x40000);
  const auto f = loop.find_symbol("f")->addr;
  const auto g = stops.find_symbol("g")->addr;
  const auto h = stops.find_symbol("h")->addr;
  for (const std::uint64_t stride : {1u, 2u, 3u, 7u, 4096u}) {
    vm::Machine fused, unfused;
    unfused.set_fusion(false);
    std::uint64_t sampled = 0;  // cycles the sampler must have seen (fused)
    for (vm::Machine* m : {&fused, &unfused}) {
      m->load_image(loop);
      m->load_image(stops);
      m->set_syscall_handler(
          [](vm::Machine&, std::int32_t) { return vm::Trap::kBadMemory; });
      m->arm_sampler(stride);
    }
    for (std::uint64_t k = 0; k < 12; ++k) {
      for (vm::Machine* m : {&fused, &unfused}) {
        // Budgets both below and above the loop's length: budget stops and
        // sentinel RETs alternate with failed SYS and HALT stops.
        const auto rf = m->call(f, {static_cast<std::int64_t>(k * 5)},
                                k % 2 == 0 ? 37 * k + 5 : 1u << 20);
        EXPECT_EQ(rf.trap, k % 2 == 0 ? vm::Trap::kCycleLimit : vm::Trap::kHalt);
        const auto rg = m->call(g, {}, 1000);
        const auto rh = m->run(h, 1000);
        EXPECT_EQ(rg.trap, vm::Trap::kBadMemory);
        EXPECT_EQ(rh.trap, vm::Trap::kHalt);
        if (m == &fused) {
          sampled += rf.cycles - (rf.trap == vm::Trap::kHalt ? 1 : 0);
          sampled += rg.cycles - 20;
          sampled += rh.cycles - 1;
        }
      }
      EXPECT_EQ(fused.samples(), unfused.samples()) << "stride " << stride;
      EXPECT_EQ(fused.sampler_countdown(), unfused.sampler_countdown())
          << "stride " << stride;
      EXPECT_EQ(total_samples(fused), sampled / stride) << "stride " << stride;
      EXPECT_EQ(static_cast<std::uint64_t>(fused.sampler_countdown()),
                stride - sampled % stride)
          << "stride " << stride;
    }
  }
}

TEST(SamplerTest, RearmResetsAndDisarmedMachineMatchesUnsampled) {
  const auto img = loop_image();
  const auto addr = img.find_symbol("f")->addr;

  auto m = loop_machine(img);
  m.arm_sampler(4);
  m.call(addr, {500}, 1u << 24);
  EXPECT_FALSE(m.samples().empty());

  // Re-arming clears the previous run's samples and restarts the phase.
  m.arm_sampler(4);
  EXPECT_TRUE(m.samples().empty());
  m.call(addr, {500}, 1u << 24);
  const auto first = m.samples();
  m.arm_sampler(4);
  m.call(addr, {500}, 1u << 24);
  EXPECT_EQ(m.samples(), first);

  // Disarmed: no samples accumulate and results match a never-armed machine.
  m.disarm_sampler();
  EXPECT_FALSE(m.sampler_armed());
  const auto before = m.samples();
  const auto rd = m.call(addr, {500}, 1u << 24);
  EXPECT_EQ(m.samples(), before);

  auto plain = loop_machine(img);
  const auto rp = plain.call(addr, {500}, 1u << 24);
  EXPECT_EQ(rd.ret, rp.ret);
}

// ---------------------------------------------------------------- profile

TEST(ProfileTest, MergeSumsAndDivergenceRanks) {
  obs::Profile base;
  base.stride = 64;
  base.add("alpha", 60);
  base.add("beta", 40);

  obs::Profile fault;
  fault.stride = 64;
  fault.add("alpha", 20);
  fault.add("beta", 40);
  fault.add("gamma", 40);
  EXPECT_EQ(fault.total, 100u);

  obs::Profile merged = base;
  merged.merge(fault);
  EXPECT_EQ(merged.total, 200u);
  EXPECT_EQ(merged.functions.at("alpha"), 80u);

  // Self-divergence is exactly zero.
  EXPECT_DOUBLE_EQ(obs::profile_divergence(base, base).score, 0.0);

  // alpha lost 40pp, gamma gained 40pp, beta unchanged; score = L1/2. The
  // two big movers rank above beta (their FP magnitudes differ in the last
  // ulp, so the exact order between them is whatever |delta| says).
  const auto div = obs::profile_divergence(base, fault);
  EXPECT_NEAR(div.score, 0.4, 1e-12);
  ASSERT_EQ(div.deltas.size(), 3u);
  EXPECT_EQ(div.deltas[0].name, "gamma");
  EXPECT_NEAR(div.deltas[0].delta, 0.4, 1e-12);
  EXPECT_EQ(div.deltas[1].name, "alpha");
  EXPECT_NEAR(div.deltas[1].delta, -0.4, 1e-12);
  EXPECT_EQ(div.deltas[2].name, "beta");
}

// --------------------------------------------------- campaign determinism

RunnerOptions profiled_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 2;
  opt.stride = 29;
  opt.time_scale = 0.1;
  opt.baseline_window_ms = 5000;
  opt.seed = 42;
  opt.obs = true;
  opt.profile = true;
  return opt;
}

struct Artifacts {
  std::vector<ExperimentCell> cells;
  std::string profile_json;
  std::string flame;
  std::string manifest;
};

Artifacts run_profiled(RunnerOptions opt) {
  CampaignRunner runner(opt);
  Artifacts a;
  a.cells = runner.run_campaign();
  const auto* obs = runner.campaign_obs();
  EXPECT_NE(obs, nullptr);
  a.profile_json = campaign_profile_json(a.cells, opt, *obs);
  a.flame = campaign_flamegraph(*obs);
  a.manifest = campaign_manifest_json(a.cells, opt, obs);
  return a;
}

/// The reference run (jobs=1, fusion on), shared across tests.
const Artifacts& reference() {
  static const Artifacts a = run_profiled(profiled_options());
  return a;
}

TEST(ProfileCampaignTest, ArtifactsInvariantAcrossJobsAndFusion) {
  const auto& ref = reference();
  EXPECT_NE(ref.profile_json.find("\"schema\": \"genfault-profile/1\""),
            std::string::npos);
  EXPECT_FALSE(ref.flame.empty());
  EXPECT_NE(ref.flame.find(";baseline;"), std::string::npos);

  for (const int jobs : {1, 4}) {
    for (const bool fusion : {true, false}) {
      if (jobs == 1 && fusion) continue;  // that is the reference itself
      auto opt = profiled_options();
      opt.jobs = jobs;
      opt.fusion = fusion;
      const auto run = run_profiled(opt);
      EXPECT_EQ(ref.profile_json, run.profile_json)
          << "jobs=" << jobs << " fusion=" << fusion;
      EXPECT_EQ(ref.flame, run.flame)
          << "jobs=" << jobs << " fusion=" << fusion;
      EXPECT_EQ(ref.manifest, run.manifest)
          << "jobs=" << jobs << " fusion=" << fusion;
    }
  }
}

TEST(ProfileCampaignTest, StoreResumeReplaysIdenticalProfiles) {
  const std::string dir = ::testing::TempDir() + "gfprofile_store";
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());

  auto opt = profiled_options();
  opt.jobs = 4;
  store::CampaignStore cold_store(dir);
  opt.store = &cold_store;
  const auto cold = run_profiled(opt);
  EXPECT_EQ(cold.profile_json, reference().profile_json);

  // All-hit resume: every profile comes back through the schema-2 codec.
  store::CampaignStore resume_store(dir);
  auto ropt = profiled_options();
  ropt.store = &resume_store;
  CampaignRunner resumed(ropt);
  const auto cells = resumed.run_campaign();
  ASSERT_NE(resumed.store_stats(), nullptr);
  EXPECT_EQ(resumed.store_stats()->misses, 0u);
  EXPECT_GT(resumed.store_stats()->hits, 0u);
  const auto* obs = resumed.campaign_obs();
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(campaign_profile_json(cells, ropt, *obs), cold.profile_json);
  EXPECT_EQ(campaign_flamegraph(*obs), cold.flame);
}

TEST(ProfileCampaignTest, UnprofiledCampaignCarriesNoProfiles) {
  auto opt = profiled_options();
  opt.profile = false;
  CampaignRunner runner(opt);
  const auto cells = runner.run_campaign();
  const auto* obs = runner.campaign_obs();
  ASSERT_NE(obs, nullptr);
  EXPECT_TRUE(collect_profiles(*obs).empty());
  const auto manifest = campaign_manifest_json(cells, opt, obs);
  EXPECT_NE(manifest.find("\"profiles\": null"), std::string::npos);
  EXPECT_NE(manifest.find("\"profile_stride\": 0"), std::string::npos);
}

// ------------------------------------------------------------------- diff

TEST(DiffTest, SelfDiffIsCleanAndInjectedDriftBreaches) {
  const auto& ref = reference();
  const auto self = diff_campaigns(ref.manifest, ref.manifest);
  ASSERT_TRUE(self.ok) << self.error;
  EXPECT_FALSE(self.breached);
  EXPECT_EQ(self.text, "no drift\n");
  EXPECT_NE(self.json.find("\"breached\": false"), std::string::npos);

  // Inject derived-metric drift well beyond any threshold.
  auto drifted = ref.manifest;
  const auto pos = drifted.find("\"spcf\": ");
  ASSERT_NE(pos, std::string::npos);
  const auto val_start = pos + 8;
  const auto val_end = drifted.find_first_of(",}", val_start);
  drifted.replace(val_start, val_end - val_start, "99999");
  const auto d = diff_campaigns(ref.manifest, drifted);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(d.breached);
  EXPECT_NE(d.text.find("spcf"), std::string::npos);
  EXPECT_NE(d.text.find("BREACH"), std::string::npos);
  EXPECT_NE(d.json.find("\"breached\": true"), std::string::npos);
}

TEST(DiffTest, MissingCellsAndMalformedInputs) {
  const char* old_man = R"({"schema": "genfault-campaign/1", "cells": [
    {"os": "A", "server": "x", "derived": {"spcf": 10}, "iterations": []},
    {"os": "A", "server": "y", "derived": {"spcf": 20}, "iterations": []}]})";
  const char* new_man = R"({"schema": "genfault-campaign/1", "cells": [
    {"os": "A", "server": "x", "derived": {"spcf": 10}, "iterations": []}]})";
  const auto d = diff_campaigns(old_man, new_man);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_TRUE(d.breached);  // a vanished cell is a shape change
  EXPECT_NE(d.text.find("missing cell: A/y"), std::string::npos);
  EXPECT_NE(d.json.find("\"missing_cells\": [\"A/y\"]"), std::string::npos);

  EXPECT_FALSE(diff_campaigns("{", old_man).ok);
  EXPECT_FALSE(diff_campaigns(old_man, "not json").ok);
  EXPECT_FALSE(diff_campaigns(R"({"schema": "other/1", "cells": []})",
                              old_man)
                   .ok);
}

TEST(DiffTest, ThresholdGatesDerivedDrift) {
  const char* old_man = R"({"schema": "genfault-campaign/1", "cells": [
    {"os": "A", "server": "x", "derived": {"thrf": 100}, "iterations": []}]})";
  const char* new_man = R"({"schema": "genfault-campaign/1", "cells": [
    {"os": "A", "server": "x", "derived": {"thrf": 108}, "iterations": []}]})";
  DiffOptions loose;
  loose.threshold_pct = 10.0;
  EXPECT_FALSE(diff_campaigns(old_man, new_man, loose).breached);
  DiffOptions tight;
  tight.threshold_pct = 5.0;
  EXPECT_TRUE(diff_campaigns(old_man, new_man, tight).breached);
}

}  // namespace
}  // namespace gf::depbench
