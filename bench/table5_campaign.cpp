// Reproduces Table 5 of the paper: the full dependability benchmarking
// campaign — SPC, THR, RTM, ER%, MIS, KCP, KNS for three iterations of each
// web server on each OS version, plus per-cell averages.
//
// Flags: --quick (sampled faultload, 2 iterations), --full (every fault),
// --scale/--stride/--iterations for fine control. Default: every 6th fault
// at the paper's full 10 s exposure, 3 iterations.
//
// Tracing flags (src/trace): --activation-report prints the per-fault-type x
// per-OS-function activation table, --trace-out FILE.jsonl dumps one JSON
// event per traced exposure, --activation-json FILE.json writes summary
// stats (used by bench/run_benches.sh for the quality trajectory).
#include <cstdio>

#include "depbench/campaign_cli.h"
#include "depbench/report.h"

int main(int argc, char** argv) {
  using namespace gf;
  depbench::CampaignFlags flags;  // bench defaults: every 6th fault, seed 1
  depbench::parse_campaign_flags_or_exit(argc, argv, flags);
  const auto& opt = flags.opt;

  std::printf("Table 5 - Experimental results (exposure %.1f s/fault, "
              "stride %d, %d iterations)\n\n",
              10.0 * opt.time_scale, opt.stride, opt.iterations);

  depbench::CampaignSession session(flags);
  if (!session.run()) return 1;
  const auto& cells = session.cells();
  for (const auto& cell : cells) {
    std::printf("%s\n", depbench::render_table5_cell(cell).c_str());
  }
  if (!session.write_artifacts()) return 1;

  std::printf("Shape checks (paper Table 5):\n");
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const auto apex = depbench::derive_metrics(cells[i]);
    const auto abyssal = depbench::derive_metrics(cells[i + 1]);
    std::printf("  %s: apex ER%%=%.1f < abyssal ER%%=%.1f : %s | "
                "apex ADMf=%.1f vs abyssal ADMf=%.1f | "
                "apex SPCf=%.1f > abyssal SPCf=%.1f : %s\n",
                cells[i].os_name.c_str(), apex.erf_pct, abyssal.erf_pct,
                apex.erf_pct < abyssal.erf_pct ? "OK" : "MISMATCH",
                apex.admf, abyssal.admf, apex.spcf, abyssal.spcf,
                apex.spcf > abyssal.spcf ? "OK" : "MISMATCH");
  }
  return 0;
}
