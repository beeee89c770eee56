// Deterministic metrics registry: counters, gauges, fixed-bucket histograms.
//
// Every campaign run owns a private registry (no locks, no sharing)
// and the runner merges the per-task registries at the join, in slot order.
// All merge operations are commutative folds (counter/histogram sums, gauge
// max), every map is ordered by name, and the JSON rendering is canonical
// (sorted keys, fixed number formatting) — so the merged artifact is
// bit-identical for any worker count, exactly like the campaign results
// themselves (PR 1's per-slot discipline).
//
// Cost model (ZOFI: monitoring must cost ~zero when off): nothing in this
// file is ever touched from the VM dispatch loop. The hot layers keep raw
// struct counters (vm::DispatchStats, os::KernelCounters, the injector
// tallies) that the controller *harvests* into a registry at run boundaries;
// the only live sink is ApiMetrics, one predictable null-check per OS API
// call (each of which executes thousands of VM cycles anyway).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace gf::obs {

/// Fixed log2-bucket histogram (bucket i counts values with bit_width i,
/// i.e. [2^(i-1), 2^i); values past the last bucket land in it). Cycle
/// latencies span ~1..2^20, so 24 buckets cover everything we record.
struct Histogram {
  static constexpr std::size_t kBuckets = 24;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  static std::size_t bucket_of(std::uint64_t v) noexcept;

  void observe(std::uint64_t v) noexcept;
  /// Exact commutative merge (sums; min/max fold).
  void merge(const Histogram& other) noexcept;
  double mean() const noexcept {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0;
  }
};

/// Named counters/gauges/histograms with canonical (name-sorted) rendering.
class Registry {
 public:
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Gauges snapshot a level rather than accumulate; merge keeps the max
  /// (the only commutative choice that is still meaningful per task).
  void gauge(const std::string& name, std::uint64_t value);
  void observe(const std::string& name, std::uint64_t value) {
    histograms_[name].observe(value);
  }
  /// Direct histogram access (bulk merges from pre-aggregated sinks).
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Commutative merge: counters/histograms sum, gauges take the max.
  void merge(const Registry& other);

  bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, std::uint64_t>& gauges() const noexcept {
    return gauges_;
  }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Canonical JSON: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with keys in map (byte-sorted) order — byte-identical for equal
  /// contents, which is what the determinism tests compare.
  std::string to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Live per-OS-API-function sink (Table 2's observability counterpart):
/// call counts, failure-mode counts, and a cycle-latency histogram per
/// function. OsApi::call records into this when attached; the disabled path
/// is a single never-taken branch.
struct ApiFunctionMetrics {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;   ///< completed with negative status
  std::uint64_t crashes = 0;  ///< trap escaped the call
  std::uint64_t hangs = 0;    ///< cycle budget exhausted
  Histogram cycles;
};

struct ApiMetrics {
  std::map<std::string, ApiFunctionMetrics> functions;

  void record(const std::string& name, std::uint64_t cycles, bool ok,
              bool crashed, bool hung);
  void merge(const ApiMetrics& other);
  /// Folds into `r` as api.<fn>.calls/errors/crashes/hangs counters plus the
  /// api.<fn>.cycles histogram.
  void export_into(Registry& r) const;
};

}  // namespace gf::obs
