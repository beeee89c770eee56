// Tests for the shared campaign command line (depbench/campaign_cli): every
// malformed flag is rejected with a diagnostic naming it, and every
// accepted flag lands in RunnerOptions or the artifact paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "depbench/campaign_cli.h"

namespace gf::depbench {
namespace {

std::string parse(const std::vector<std::string>& args,
                  CampaignFlags* out = nullptr) {
  CampaignFlags flags;
  const auto err = parse_campaign_flags(args, flags);
  if (out != nullptr) *out = flags;
  return err;
}

TEST(CampaignCliTest, RejectsEachMalformedFlagByName) {
  struct Case {
    std::vector<std::string> args;
    std::string flag;  // must appear in the diagnostic
  };
  const std::vector<Case> cases = {
      // Unknown flags and stray words.
      {{"--strid", "48"}, "--strid"},
      {{"stride"}, "stride"},
      // Missing values: at the end, and swallowed by the next flag.
      {{"--stride"}, "--stride"},
      {{"--metrics-json", "--jobs", "2"}, "--metrics-json"},
      {{"--store"}, "--store"},
      // Non-numeric values.
      {{"--jobs", "abc"}, "--jobs"},
      {{"--stride", "4x"}, "--stride"},
      {{"--scale", "fast"}, "--scale"},
      {{"--seed", "-1"}, "--seed"},
      {{"--iterations", "2.5"}, "--iterations"},
      {{"--baseline-ms", ""}, "--baseline-ms"},
      {{"--crash-after-puts", "x"}, "--crash-after-puts"},
      {{"--scale", "inf"}, "--scale"},
      {{"--jobs", "99999999999999999999"}, "--jobs"},
      // Out-of-range values.
      {{"--stride", "0"}, "--stride"},
      {{"--iterations", "-1"}, "--iterations"},
      {{"--jobs", "-2"}, "--jobs"},
      {{"--chunk", "-4"}, "--chunk"},
      {{"--scale", "0"}, "--scale"},
      {{"--scale", "-0.5"}, "--scale"},
      {{"--profile-stride", "0"}, "--profile-stride"},
      {{"--baseline-ms", "-1"}, "--baseline-ms"},
      // An empty artifact path and a resume with nothing to resume.
      {{"--journal-out", ""}, "--journal-out"},
      {{"--resume"}, "--resume"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flag);
    const auto err = parse(c.args);
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find(c.flag), std::string::npos) << err;
  }
}

TEST(CampaignCliTest, KeepsCallerDefaultsForFlagsNotGiven) {
  CampaignFlags flags;
  flags.opt.stride = 1;
  flags.opt.seed = 1000;
  ASSERT_EQ(parse_campaign_flags({"--jobs", "2"}, flags), "");
  EXPECT_EQ(flags.opt.stride, 1);
  EXPECT_EQ(flags.opt.seed, 1000u);
  EXPECT_EQ(flags.opt.jobs, 2);
  EXPECT_EQ(flags.opt.iterations, 3);
  EXPECT_TRUE(flags.opt.steal);
  EXPECT_FALSE(flags.opt.obs);
}

TEST(CampaignCliTest, EveryAcceptedFlagRoundTrips) {
  CampaignFlags f;
  ASSERT_EQ(parse({"--quick",
                   "--scale", "0.25",
                   "--stride", "48",
                   "--iterations", "0",
                   "--seed", "18446744073709551615",
                   "--baseline-ms", "500",
                   "--jobs", "4",
                   "--chunk", "3",
                   "--no-steal", "--cold-boot", "--no-fusion", "--progress",
                   "--metrics-json", "m.json",
                   "--html-report", "r.html",
                   "--journal-out", "j.jsonl",
                   "--chrome-trace", "t.json",
                   "--profile-json", "p.json",
                   "--flame-out", "f.txt",
                   "--profile-stride", "512",
                   "--sched-json", "s.json",
                   "--activation-report",
                   "--trace-out", "a.jsonl",
                   "--activation-json", "a.json",
                   "--store", "dir",
                   "--resume", "--no-cache",
                   "--store-json", "st.json",
                   "--crash-after-puts", "7"},
                  &f),
            "");
  const auto& o = f.opt;
  EXPECT_DOUBLE_EQ(o.time_scale, 0.25);
  EXPECT_EQ(o.stride, 48);  // later flags override the --quick preset
  EXPECT_EQ(o.iterations, 0);
  EXPECT_EQ(o.seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(o.baseline_window_ms, 500);
  EXPECT_EQ(o.jobs, 4);
  EXPECT_EQ(o.chunk, 3);
  EXPECT_FALSE(o.steal);
  EXPECT_FALSE(o.warm_boot);
  EXPECT_FALSE(o.fusion);
  EXPECT_TRUE(f.progress);
  EXPECT_EQ(o.profile_stride, 512u);
  EXPECT_FALSE(o.store_read);
  EXPECT_EQ(f.metrics_json, "m.json");
  EXPECT_EQ(f.html_report, "r.html");
  EXPECT_EQ(f.journal_out, "j.jsonl");
  EXPECT_EQ(f.chrome_trace, "t.json");
  EXPECT_EQ(f.profile_json, "p.json");
  EXPECT_EQ(f.flame_out, "f.txt");
  EXPECT_EQ(f.sched_json, "s.json");
  EXPECT_TRUE(f.activation_report);
  EXPECT_EQ(f.trace_out, "a.jsonl");
  EXPECT_EQ(f.activation_json, "a.json");
  EXPECT_EQ(f.store_dir, "dir");
  EXPECT_TRUE(f.resume);
  EXPECT_EQ(f.store_json, "st.json");
  EXPECT_EQ(f.crash_after_puts, 7u);
  EXPECT_TRUE(o.obs);
  EXPECT_TRUE(o.trace);
  EXPECT_TRUE(o.profile);
  // The store itself is opened by CampaignSession, not the parser.
  EXPECT_EQ(o.store, nullptr);
  EXPECT_TRUE(f.extra.empty());

  ASSERT_EQ(parse({"--full"}, &f), "");
  EXPECT_EQ(f.opt.stride, 1);
  EXPECT_EQ(f.opt.iterations, 3);
  ASSERT_EQ(parse({"--quick"}, &f), "");
  EXPECT_EQ(f.opt.stride, 16);
  EXPECT_EQ(f.opt.iterations, 2);
}

TEST(CampaignCliTest, ArtifactsDeriveObsTraceAndProfile) {
  struct Case {
    std::vector<std::string> args;
    bool obs, trace, profile;
  };
  const std::vector<Case> cases = {
      {{}, false, false, false},
      {{"--sched-json", "s.json", "--store-json", "t.json"}, false, false,
       false},
      {{"--metrics-json", "m.json"}, true, false, false},
      {{"--html-report", "r.html"}, true, false, false},
      {{"--journal-out", "j.jsonl"}, true, false, false},
      {{"--chrome-trace", "c.json"}, true, false, false},
      {{"--profile-json", "p.json"}, true, false, true},
      {{"--flame-out", "f.txt"}, true, false, true},
      {{"--activation-report"}, false, true, false},
      {{"--trace-out", "a.jsonl"}, false, true, false},
      {{"--activation-json", "a.json"}, false, true, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args.empty() ? "none" : c.args.front());
    CampaignFlags f;
    ASSERT_EQ(parse(c.args, &f), "");
    EXPECT_EQ(f.opt.obs, c.obs);
    EXPECT_EQ(f.opt.trace, c.trace);
    EXPECT_EQ(f.opt.profile, c.profile);
  }
}

TEST(CampaignCliTest, CallerFlagsLandInExtra) {
  CampaignFlags f;
  ASSERT_EQ(parse_campaign_flags({"--os", "xp", "--server", "apex",
                                  "--stride", "60"},
                                 f, {"os", "server", "faultload"}),
            "");
  EXPECT_EQ(f.extra.at("os"), "xp");
  EXPECT_EQ(f.extra.at("server"), "apex");
  EXPECT_EQ(f.extra.count("faultload"), 0u);
  EXPECT_EQ(f.opt.stride, 60);
  // Caller flags still need their value, and are unknown to other callers.
  EXPECT_NE(parse_campaign_flags({"--server"}, f, {"server"}).find("--server"),
            std::string::npos);
  EXPECT_NE(parse({"--os", "xp"}).find("unknown flag --os"), std::string::npos);
}

TEST(CampaignCliTest, UsageListsEveryFlag) {
  const auto usage = campaign_flags_usage("  ");
  for (const char* flag :
       {"[--quick]", "[--stride K]", "[--chunk N]", "[--no-steal]",
        "[--metrics-json FILE]", "[--store DIR]", "[--resume]",
        "[--crash-after-puts N]", "[--activation-json FILE]"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(usage.find("shards"), std::string::npos);
}

}  // namespace
}  // namespace gf::depbench
