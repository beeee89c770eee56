// Campaign artifacts: the one table that defines them, and their renderers.
//
// Every file a campaign can write is one row of campaign_artifacts(): its
// CLI flag, its canonical file name, what the campaign must collect for it
// and whether it is deterministic. The campaign CLI, the gfcheck matrix
// oracle, the golden corpus and the identity suites all go through the
// table, so an artifact added as a row is covered by every oracle at once.
//
// The manifest (schema "genfault-campaign/1") carries the Table 5 / Fig 5
// results next to the merged metrics registry so a single JSON file fully
// describes a campaign run; the HTML report renders the same data
// self-contained (no external assets) with per-cell drill-down. Rendering is
// canonical (fixed key order, fixed number formatting), so equal campaigns
// produce byte-identical artifacts.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "depbench/report.h"
#include "depbench/runner.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "trace/activation.h"

namespace gf::depbench {

/// What a campaign must collect for an artifact, beyond its cell results.
enum Need : unsigned {
  kNeedObs = 1u << 0,      ///< per-task obs bundles (RunnerOptions::obs)
  kNeedTrace = 1u << 1,    ///< activation traces (RunnerOptions::trace)
  kNeedProfile = 1u << 2,  ///< cycle profiles (RunnerOptions::profile)
  kNeedStore = 1u << 3,    ///< a result store (RunnerOptions::store)
};

/// A finished campaign as the renderers see it, rendered through `opt`
/// (whose trace and profile bits say what was collected). Null = absent.
struct CampaignResults {
  const std::vector<ExperimentCell>& cells;
  const RunnerOptions& opt;
  const CampaignObs* obs = nullptr;
  const SchedStats* sched = nullptr;
  const store::StoreStats* store = nullptr;
};

/// One row of the artifact table.
struct CampaignArtifact {
  const char* flag;  ///< CLI flag, without the leading "--"
  const char* file;  ///< canonical file name
  const char* what;  ///< the CLI's "[campaign] WHAT -> FILE" notice
  unsigned need;     ///< Need bits the campaign must collect for it
  unsigned optional;  ///< of those, the ones it renders without
  /// Byte-identical for any schedule, fusion, boot mode or store-hit
  /// pattern; not so the Chrome trace (wall-clock host view) and telemetry.
  bool deterministic;
  std::string (*render)(const CampaignResults&);
};

/// Every campaign artifact, in the order the CLI writes them.
const std::vector<CampaignArtifact>& campaign_artifacts();

/// Whether `results` collected everything `artifact` cannot render without.
bool renders(const CampaignArtifact& artifact, const CampaignResults& results);

/// (file name, bytes) of every deterministic artifact `results` renders, in
/// table order: the set the determinism oracles byte-compare.
std::vector<std::pair<std::string, std::string>> render_campaign_artifacts(
    const CampaignResults& results);

/// Activation statistics over every cell's traced fault runs.
trace::ActivationStats campaign_activation_stats(
    const std::vector<ExperimentCell>& cells);

/// A manifest cell: the cell's results, iterations without their
/// activation records, and its derived §3.2 metrics.
struct ManifestCell : ExperimentCell {
  DependabilityMetrics derived;
};

/// A cell's entry in the manifest's profiles section, and the head of its
/// entry in the profile document.
struct CellProfile {
  std::string cell;  ///< "VOS-2000/apex"
  obs::Profile baseline;
  obs::Profile faults;  ///< merged over the cell's fault runs
  obs::Divergence divergence;  ///< faults vs baseline; top 10 in the manifest
};

/// The campaign manifest, schema "genfault-campaign/1": rendered by to_json()
/// and decoded by from_json(), the reader of `gfbench diff` and
/// tools/json_check --schema manifest.
struct CampaignManifest {
  /// Only the result-shaping fields are written (not jobs, chunk or steal,
  /// so the manifest is the same for any schedule); profile_stride is 0
  /// when the campaign ran unprofiled.
  RunnerOptions options;
  std::vector<ManifestCell> cells;
  std::vector<CellProfile> profiles;     ///< empty renders null: unprofiled
  std::optional<obs::Registry> metrics;  ///< null: the campaign ran without obs

  std::string to_json() const;
  static CampaignManifest from_json(const obs::json::Field& f);
};

/// JSON manifest of a whole campaign: options, per-cell results (baseline,
/// iterations, derived §3.2 metrics), and — when `obs` is non-null — the
/// cycle profiles and the merged metrics registry.
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

struct ProfileRun {
  std::string label;
  obs::Profile profile;
  obs::Divergence divergence;  ///< vs the cell's baseline, top 10 deltas
};

struct ProfileCell : CellProfile {
  std::vector<ProfileRun> runs;  ///< fault runs, slot order
};

/// Groups the campaign's per-task profiles by cell, in slot order: each
/// cell's baseline profile, the merge of its fault runs' profiles and the
/// fault runs' own profiles. The divergences are left for the renderers to
/// compute. Empty when the campaign ran without profiling (no slot carries
/// a stride).
std::vector<ProfileCell> collect_profiles(const CampaignObs& obs);

/// The profile document, schema "genfault-profile/1" (see
/// campaign_profile_json): rendered by to_json(), decoded by from_json().
struct ProfileDocument {
  std::uint64_t stride = 0;
  std::vector<ProfileCell> cells;

  std::string to_json() const;
  static ProfileDocument from_json(const obs::json::Field& f);
};

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
