// Activation & error-propagation records (the tracing subsystem's output).
//
// The paper's fine-tuning step (§5) exists solely to maximize the activation
// rate of the injected faults, but the original methodology never *measures*
// activation. Following ProFIPy (Cotroneo et al., 2020) we make per-fault
// activation/propagation monitoring a first-class campaign output: every
// injected fault yields one ActivationRecord that says whether the mutated
// window executed, how the error propagated, and what the client saw.
//
// Records are keyed by the absolute faultload index, so per-fault runs merge
// order-independently: sorting by (fault index) restores a canonical order
// regardless of worker count or run interleave.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "swfit/fault_types.h"
#include "vm/machine.h"

namespace gf::trace {

/// Propagation outcome of one fault exposure, ordered by severity.
enum class Outcome : std::uint8_t {
  kNotActivated,          ///< the mutated window was never executed
  kActivatedBenign,       ///< executed; no state damage, no visible failure
  kLatentStateCorruption, ///< kernel invariants broken, client saw nothing
  kExternalFailure,       ///< MIS/KNS/KCP kill or client-visible errors
};

const char* outcome_name(Outcome o) noexcept;

/// One fault exposure, traced.
struct ActivationRecord {
  std::uint32_t fault_index = 0;  ///< absolute index into the faultload
  swfit::FaultType type = swfit::FaultType::kMVI;
  std::string function;           ///< OS API function carrying the fault
  std::uint64_t hits = 0;         ///< times the PC entered the fault window
  std::uint64_t first_hit_cycle = 0;  ///< VM lifetime cycle of the first hit
  std::uint64_t edge_count = 0;   ///< control-flow edges taken after the hit
  std::vector<vm::TraceEdge> edges;  ///< the last <= 16 of them
  Outcome outcome = Outcome::kNotActivated;

  bool activated() const noexcept { return hits > 0; }
};

/// Canonical order: by fault index (ties broken by hits for stability when a
/// fault appears once per iteration in a flattened list).
void sort_records(std::vector<ActivationRecord>& records);

/// Aggregate for one (fault type, OS function) bucket.
struct ActivationCell {
  std::uint64_t injected = 0;
  std::uint64_t activated = 0;
  std::uint64_t benign = 0;
  std::uint64_t latent = 0;
  std::uint64_t external = 0;

  double activation_rate() const noexcept {
    return injected > 0 ? static_cast<double>(activated) /
                              static_cast<double>(injected)
                        : 0.0;
  }
};

/// Per-fault-type x per-OS-function activation statistics. Buckets are kept
/// in a sorted map, so rendering order (and the merged totals) never depend
/// on the order records were added — the aggregation is a commutative fold.
struct ActivationStats {
  std::map<std::pair<swfit::FaultType, std::string>, ActivationCell> cells;

  void add(const ActivationRecord& r);
  void merge(const ActivationStats& other);
  ActivationCell total() const;
  /// Totals folded over functions, Table 1 fault-type order.
  std::vector<std::pair<swfit::FaultType, ActivationCell>> by_type() const;
  /// Totals folded over fault types, by function name.
  std::vector<std::pair<std::string, ActivationCell>> by_function() const;
};

ActivationStats aggregate(const std::vector<ActivationRecord>& records);

/// Renders the per-fault-type x per-OS-function activation report (ASCII
/// tables, same style as the paper-table benches).
std::string render_activation_report(const ActivationStats& stats);

/// Writes one JSON object per record ("JSONL" event log). `context` is
/// attached verbatim to every line (e.g. "VOS-2000/apex/iter0").
void write_jsonl(std::ostream& os, const std::string& context,
                 const std::vector<ActivationRecord>& records);

/// Compact machine-readable summary (activation rate per fault type plus the
/// overall rate) for the perf/quality trajectory (BENCH_activation.json).
std::string activation_summary_json(const ActivationStats& stats);

/// Folds record tallies into an obs registry: trace.records / activated /
/// benign / latent / external counters plus a trace.window_hits histogram
/// (how often each activated fault's window was entered). Fault-indexed and
/// outcome-derived only, so the export is schedule-invariant like the records.
void export_metrics(const std::vector<ActivationRecord>& records,
                    obs::Registry& r);

}  // namespace gf::trace
