// Reproduces Figure 5 of the paper: side-by-side comparison of the behaviour
// of the two web servers in the presence of software faults — baseline vs
// faulty SPC/THR/RTM, ER%f and ADMf, for both operating systems.
//
// Run with --quick for a sampled campaign. The headline conclusion to check:
// apex (Apache-analogue) degrades less than abyssal (Abyss-analogue) on
// every metric, and the relative difference is stable across OS versions.
#include <cstdio>

#include "depbench/campaign_cli.h"
#include "depbench/report.h"

int main(int argc, char** argv) {
  using namespace gf;
  // Figure 5 uses the same sampling as Table 5 so the two stay consistent.
  depbench::CampaignFlags flags;
  depbench::parse_campaign_flags_or_exit(argc, argv, flags);

  depbench::CampaignSession session(flags);
  if (!session.run()) return 1;
  const auto& cells = session.cells();
  std::printf("%s", depbench::render_fig5(cells).c_str());
  if (!session.write_artifacts()) return 1;

  // The paper's closing observation: the apex/abyssal relation is the same
  // on both OS versions (the faultloads expose an intrinsic BT property).
  if (cells.size() == 4) {
    const auto a2000 = depbench::derive_metrics(cells[0]);
    const auto b2000 = depbench::derive_metrics(cells[1]);
    const auto axp = depbench::derive_metrics(cells[2]);
    const auto bxp = depbench::derive_metrics(cells[3]);
    std::printf("Cross-OS stability: ER ratio abyssal/apex = %.1fx (VOS-2000) "
                "vs %.1fx (VOS-XP); SPC retention apex %.0f%%/%.0f%%, "
                "abyssal %.0f%%/%.0f%%\n",
                a2000.erf_pct > 0 ? b2000.erf_pct / a2000.erf_pct : 0.0,
                axp.erf_pct > 0 ? bxp.erf_pct / axp.erf_pct : 0.0,
                100 * a2000.spc_rel, 100 * axp.spc_rel, 100 * b2000.spc_rel,
                100 * bxp.spc_rel);
  }
  return 0;
}
