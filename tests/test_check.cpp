// Tests for the gfcheck engine layer (src/check).
//
// Two claims matter beyond "the engines run":
//
//   1. The default-seed budget is CLEAN — a red fuzzer in CI must mean a
//      real oracle violation, never an over-asserting oracle (tier-2, so the
//      budget here is small; the full budget runs as gfcheck_budget).
//   2. The oracles are SENSITIVE — a deliberately perturbed merge path
//      (GF_CHECK_PERTURB, src/depbench/runner.cpp) must be flagged with a
//      replayable case seed. Without this negative test, byte-identity
//      oracles could silently compare a value to itself and pass forever.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "check/check.h"
#include "testutil_seed.h"

namespace gf::check {
namespace {

CheckOptions small_options(std::size_t cases) {
  CheckOptions opt;
  opt.seed = testutil::test_seed(1);
  opt.cases = cases;
  return opt;
}

void expect_clean(const CheckReport& report, std::size_t want_cases) {
  EXPECT_EQ(report.cases, want_cases);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << "[" << f.engine << "] " << f.message
                  << "\n  repro: " << f.repro;
  }
}

TEST(CheckEngineTest, MatrixEngineCleanOnDefaultSeeds) {
  const auto opt = small_options(2);
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  expect_clean(run_matrix_engine(opt), 2);
}

TEST(CheckEngineTest, VmEngineCleanOnDefaultSeeds) {
  const auto opt = small_options(4);
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  expect_clean(run_vm_engine(opt), 4);
}

TEST(CheckEngineTest, StructureEngineCleanOnDefaultSeeds) {
  const auto opt = small_options(10);
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  expect_clean(run_structure_engine(opt), 10);
}

// The repro-line contract: `--seed N --cases K` names a fixed set of cases
// on every machine, forever. If this derivation ever changes, every seed in
// an old CI log stops replaying — so the first few values are pinned.
TEST(CheckEngineTest, CaseSeedDerivationIsPinned) {
  EXPECT_EQ(case_seed(1, 0), case_seed(1, 0));
  EXPECT_NE(case_seed(1, 0), case_seed(1, 1));
  EXPECT_NE(case_seed(1, 0), case_seed(2, 0));
  EXPECT_EQ(case_seed(1, 0), UINT64_C(0xe99ff867dbf682c9));
  EXPECT_EQ(case_seed(1, 1), UINT64_C(0xf893a2eefb32555e));
  EXPECT_EQ(case_seed(42, 0), UINT64_C(0x28efe333b266f103));
}

// Explicit seeds (the --case-seed repro path) run exactly the requested
// cases, in order, ignoring `cases`.
TEST(CheckEngineTest, ExplicitSeedsReplayExactly) {
  CheckOptions opt;
  opt.cases = 99;  // must be ignored
  opt.explicit_seeds = {case_seed(1, 0), case_seed(1, 2)};
  const auto report = run_structure_engine(opt);
  expect_clean(report, 2);
}

// Engine calls on the default scratch replay the same case seeds, hence the
// same per-case store directory names; each call must still get a private
// root, or one call removes a store the other has open.
TEST(CheckEngineTest, ConcurrentStructureEnginesOnDefaultScratch) {
  const auto opt = small_options(6);
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  CheckReport a, b;
  std::thread other([&] { b = run_structure_engine(opt); });
  a = run_structure_engine(opt);
  other.join();
  expect_clean(a, 6);
  expect_clean(b, 6);
}

// The VM engine's dump lines are a pure function of the case seed: two runs
// must emit byte-identical lines (CI extends this across dispatch lowerings
// by cmp-ing the dumps of a threaded and a switch build).
TEST(CheckEngineTest, VmDumpLinesAreDeterministic) {
  auto opt = small_options(3);
  opt.want_dump = true;
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  const auto a = run_vm_engine(opt);
  const auto b = run_vm_engine(opt);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.dump_lines.size(), 3u);
  EXPECT_EQ(a.dump_lines, b.dump_lines);
}

// Oracle-sensitivity: with GF_CHECK_PERTURB set the runner skews one merge
// input on parallel shapes only, so the matrix fuzzer MUST flag the very
// first case — and the reported seed must replay clean once the
// perturbation is gone (proving the repro line points at a real case, not
// at fuzzer-internal state).
TEST(CheckEngineTest, PerturbedMergeIsCaughtWithReplayableSeed) {
  ASSERT_EQ(::setenv("GF_CHECK_PERTURB", "1", 1), 0);
  CheckOptions opt;
  opt.seed = testutil::test_seed(1);
  opt.cases = 1;
  SCOPED_TRACE(testutil::seed_banner(opt.seed));
  const auto perturbed = run_matrix_engine(opt);
  ASSERT_EQ(::unsetenv("GF_CHECK_PERTURB"), 0);

  ASSERT_FALSE(perturbed.ok())
      << "matrix oracles failed to detect the perturbed merge";
  const auto& f = perturbed.failures.front();
  EXPECT_EQ(f.engine, "matrix");
  EXPECT_EQ(f.case_seed, case_seed(opt.seed, 0));
  EXPECT_NE(f.repro.find("--case-seed"), std::string::npos) << f.repro;
  EXPECT_NE(f.repro.find("--engine matrix"), std::string::npos) << f.repro;

  CheckOptions replay;
  replay.explicit_seeds = {f.case_seed};
  expect_clean(run_matrix_engine(replay), 1);
}

}  // namespace
}  // namespace gf::check
