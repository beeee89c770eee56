// Cross-campaign comparator: the dependability regression gate.
//
// Diffs two "genfault-campaign/1" manifests cell by cell: derived §3.2
// metric drift (SPCf, THRf, RTMf, ERf, ADMf, relative retention), failure-
// mode counter drift (MIS/KNS/KCP/self-restarts summed over iterations),
// and — when both campaigns were profiled — the divergence between their
// merged fault cycle profiles, ranked per cell. Any drift beyond the
// threshold marks the diff breached; `gfbench diff` turns that into a
// nonzero exit, so CI can gate on "did this change move the benchmark".
//
// Both manifests are read through CampaignManifest::from_json, so a field
// that is missing, mistyped or unknown refuses the diff with its path
// instead of comparing as 0. A campaign self-diff is exactly zero drift
// everywhere (manifests are canonical renderings), so the gate never fires
// on a byte-identical rerun.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/profile.h"

namespace gf::depbench {

struct DiffOptions {
  /// Relative drift (percent) beyond which a metric counts as a breach.
  double threshold_pct = 10.0;
  /// Ranked entries emitted per list (profile deltas per cell).
  std::size_t top_n = 10;
};

/// One derived §3.2 metric of one cell, OLD vs NEW.
struct MetricDrift {
  std::string metric;
  double old_value = 0;
  double new_value = 0;
  double drift_pct = 0;
  bool breach = false;
};

/// One failure-mode counter of one cell, summed over its iterations.
struct CounterDrift {
  std::string counter;
  std::uint64_t old_value = 0;
  std::uint64_t new_value = 0;
  bool breach = false;  ///< faults_injected is campaign shape: never gates
};

struct CellDrift {
  std::string cell;
  std::vector<MetricDrift> derived;
  std::vector<CounterDrift> counters;
  /// OLD vs NEW merged fault profiles (top_n deltas); null unless both
  /// manifests carry profiles for the cell. Informational, never gates.
  std::optional<obs::Divergence> profile_divergence;
};

/// The diff document, schema "genfault-diff/1": rendered as JSON by
/// to_json(), as the human-readable report by text(), and read back by
/// from_json() (tools/json_check --schema diff).
struct DiffReport {
  double threshold_pct = 0;
  std::vector<CellDrift> cells;  ///< cells in both, in OLD's order
  std::vector<std::string> missing_cells;  ///< in OLD only
  std::vector<std::string> added_cells;    ///< in NEW only
  bool breached = false;

  std::string to_json() const;
  std::string text() const;
  /// Decodes a to_json() rendering (throws obs::json::DecodeError).
  static DiffReport from_json(const obs::json::Field& f);
};

struct CampaignDiff {
  bool ok = false;        ///< both manifests decoded as genfault-campaign/1
  bool breached = false;  ///< some drift exceeded the threshold
  std::string error;      ///< "OLD|NEW: <path>: <what>" when !ok
  std::string text;       ///< DiffReport::text()
  std::string json;       ///< DiffReport::to_json()
};

/// Compares two manifest documents (raw JSON text). Deterministic: the
/// report and JSON depend only on the two inputs and the options.
CampaignDiff diff_campaigns(const std::string& old_manifest,
                            const std::string& new_manifest,
                            const DiffOptions& opt = {});

}  // namespace gf::depbench
