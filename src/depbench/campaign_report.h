// Campaign report generator: machine-readable manifest + human-readable
// HTML, both derived from the same merged results and obs artifacts.
//
// The manifest (schema "genfault-campaign/1") carries the Table 5 / Fig 5
// results next to the merged metrics registry so a single JSON file fully
// describes a campaign run; the HTML report renders the same data
// self-contained (no external assets) with per-cell drill-down. Rendering is
// canonical (fixed key order, fixed number formatting), so equal campaigns
// produce byte-identical artifacts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "depbench/runner.h"

namespace gf::depbench {

/// JSON manifest of a whole campaign: options, per-cell results (baseline,
/// iterations, derived §3.2 metrics), and — when `obs` is non-null — the
/// merged metrics registry. Validated by tools/json_check --schema manifest.
std::string campaign_manifest_json(const std::vector<ExperimentCell>& cells,
                                   const RunnerOptions& opt,
                                   const CampaignObs* obs);

/// Self-contained HTML report: Table 5 per cell with <details> drill-down
/// into every iteration and the top metrics, plus the Fig 5 relative bars.
std::string campaign_html_report(const std::vector<ExperimentCell>& cells,
                                 const RunnerOptions& opt,
                                 const CampaignObs* obs);

/// Flushes every task journal as JSONL, in slot order (track =
/// "<cell>/<label>") — byte-identical for any --jobs.
void write_campaign_journal(std::ostream& os, const CampaignObs& obs);

/// One cell's profiles, collected from the task slots in slot order:
/// the baseline run's profile, the merge of every fault run's profile, and
/// the per-run profiles themselves (fault runs only, slot order).
struct CellProfiles {
  std::string cell;  ///< "VOS-2000/apex"
  obs::Profile baseline;
  obs::Profile faults;  ///< merged over all fault runs of the cell
  std::vector<std::pair<std::string, obs::Profile>> runs;  ///< label, profile
};

/// Groups the campaign's per-task profiles by cell, in slot order. Empty
/// when the campaign ran without profiling (no slot carries a stride).
std::vector<CellProfiles> collect_profiles(const CampaignObs& obs);

/// JSON profile artifact (schema "genfault-profile/1"): per cell the
/// baseline profile, the merged fault profile, their differential
/// (divergence score + ranked per-function share deltas), and every fault
/// run's profile with its own differential against the baseline. Canonical
/// rendering — byte-identical for any scheduling/fusion/store-hit pattern.
std::string campaign_profile_json(const std::vector<ExperimentCell>& cells,
                                  const RunnerOptions& opt,
                                  const CampaignObs& obs);

/// Collapsed-stack flamegraph of the whole campaign (one line per
/// (cell, run, function): "cell;label;function N"), in slot order —
/// feedable straight into flamegraph.pl / speedscope.
std::string campaign_flamegraph(const CampaignObs& obs);

/// Chrome trace-event JSON of the whole campaign: runs on host wall-clock
/// (pid 1) + per-run journals on VM virtual time (pid 2).
std::string campaign_chrome_trace(const CampaignObs& obs);

}  // namespace gf::depbench
