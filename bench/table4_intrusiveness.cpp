// Reproduces Table 4 of the paper: performance degradation and intrusiveness
// of the injector running in profile mode.
//
// For each server x OS cell, a maximum-performance run (no injector) is
// compared with a profile-mode run (the injector performs every task of an
// injection campaign except the actual code patch). The paper's result: the
// worst-case degradation is below 2% and SPC/CC% are unaffected.
//
// Cells run through the parallel CampaignRunner (--jobs N, default all
// cores); both runs of a cell share one derived seed, so the comparison
// stays paired and the output is identical for any worker count.
#include <cstdio>

#include "depbench/runner.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace gf;
  depbench::RunnerOptions opt;
  opt.baseline_window_ms = 120000;
  opt.seed = 7;
  util::parse_value_flags(
      argc, argv,
      {{"--jobs", [&](auto v) { return util::parse_int(v, 0, opt.jobs); }},
       {"--seed", [&](auto v) { return util::parse_int(v, 0, opt.seed); }}},
      "[--jobs N] [--seed X]");

  std::printf("Table 4 - Performance degradation and intrusion evaluation\n\n");
  util::Table t({"OS", "Server", "", "SPC", "CC%", "THR", "RTM"});

  depbench::CampaignRunner runner(opt);
  const auto cells = runner.run_intrusiveness();

  for (const auto& cell : cells) {
    auto row = [&](const char* label, const spec::WindowMetrics& m) {
      t.row()
          .cell(cell.os_name)
          .cell(cell.server_name)
          .cell(label)
          .cell(static_cast<long long>(m.spc))
          .cell(m.cc_pct, 0)
          .cell(m.thr, 1)
          .cell(m.rtm_ms, 1);
    };
    const auto& base = cell.max_perf;
    const auto& prof = cell.profile;
    row("Max. Perf.", base);
    row("Profile mode", prof);
    const double thr_deg =
        base.thr > 0 ? 100.0 * (base.thr - prof.thr) / base.thr : 0.0;
    const double rtm_deg =
        base.rtm_ms > 0 ? 100.0 * (prof.rtm_ms - base.rtm_ms) / base.rtm_ms
                        : 0.0;
    t.row()
        .cell("")
        .cell("")
        .cell("Degradation (%)")
        .cell(static_cast<long long>(base.spc - prof.spc))
        .cell(base.cc_pct - prof.cc_pct, 0)
        .cell(thr_deg, 2)
        .cell(rtm_deg, 2);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Shape check: degradation stays in the low single digits and "
              "SPC/CC%% are unchanged (paper: <2%% worst case, no SPC "
              "impact).\n");
  return 0;
}
