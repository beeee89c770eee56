// Golden-artifact regression corpus.
//
// One fixed, tiny campaign (VOS-2000/apex, one iteration, strided faultload,
// seed 42, jobs=1) is rendered through the artifact table and every
// deterministic artifact is byte-compared against the files committed under
// tests/golden/. The gfbench_golden ctest writes the same files from the
// `gfbench campaign` command line and compares them too. The differential
// fuzzer proves artifacts agree ACROSS execution shapes; this test pins them
// ACROSS TIME — any rendering or semantic drift (a reordered JSON key, a
// changed counter, a float formatted differently) fails loudly instead of
// sliding through because both sides of a differential oracle moved
// together.
//
// Intentional changes re-bless the corpus with:
//
//   GF_UPDATE_GOLDEN=1 ctest -R test_golden
//
// and the resulting diff under tests/golden/ is reviewed like any other
// code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "obs/json.h"
#include "os/sources.h"

#ifndef GF_GOLDEN_DIR
#error "GF_GOLDEN_DIR must be defined to the tests/golden source directory"
#endif

namespace gf::depbench {
namespace {

namespace fs = std::filesystem;

/// The pinned campaign. Every knob is fixed — nothing here may depend on
/// the machine, the clock, or the schedule.
RunnerOptions golden_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 1;
  opt.stride = 101;
  opt.time_scale = 0.02;
  opt.baseline_window_ms = 250;
  opt.seed = 42;
  opt.jobs = 1;
  opt.trace = true;
  opt.obs = true;
  return opt;
}

/// Every deterministic artifact of the pinned campaign, as the artifact
/// table renders it: the files under tests/golden/, in table order.
std::vector<std::pair<std::string, std::string>> generate_artifacts() {
  const auto opt = golden_options();
  CampaignRunner runner(opt);
  const auto cells = runner.run_campaign();
  return render_campaign_artifacts({cells, opt, runner.campaign_obs()});
}

TEST(GoldenArtifactTest, CampaignArtifactsMatchCommittedCorpus) {
  const fs::path dir(GF_GOLDEN_DIR);
  const auto artifacts = generate_artifacts();

  if (std::getenv("GF_UPDATE_GOLDEN") != nullptr) {
    fs::create_directories(dir);
    for (const auto& [name, content] : artifacts) {
      std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out) << "cannot write " << (dir / name);
      out << content;
    }
    GTEST_SKIP() << "golden corpus regenerated under " << dir;
  }

  for (const auto& [name, content] : artifacts) {
    std::ifstream in(dir / name, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << (dir / name)
                    << " — regenerate with GF_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string want = buf.str();
    if (want == content) continue;
    std::size_t i = 0;
    while (i < want.size() && i < content.size() && want[i] == content[i]) ++i;
    ADD_FAILURE() << name << " drifted from the committed corpus at byte " << i
                  << " (committed " << want.size() << " bytes, generated "
                  << content.size()
                  << ") — if intentional, re-bless with GF_UPDATE_GOLDEN=1"
                  << "\n  committed: ..."
                  << want.substr(i > 30 ? i - 30 : 0, 60) << "\n  generated: ..."
                  << content.substr(i > 30 ? i - 30 : 0, 60);
  }
}

// The corpus must be a pure function of the pinned options — two in-process
// generations are byte-identical (guards against any residual global state
// sneaking into the renderers).
TEST(GoldenArtifactTest, GenerationIsIdempotent) {
  const auto a = generate_artifacts();
  const auto b = generate_artifacts();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first;
  }
}

// The manifest decoder is the format's one reader (gfbench diff, json_check):
// the committed manifest must decode and render back to the same bytes.
TEST(GoldenArtifactTest, ManifestIsADecodeRenderFixpoint) {
  std::ifstream in(fs::path(GF_GOLDEN_DIR) / "manifest.json",
                   std::ios::binary);
  ASSERT_TRUE(in);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(obs::json::decode<CampaignManifest>(buf.str()).to_json(),
            buf.str());
}

}  // namespace
}  // namespace gf::depbench
