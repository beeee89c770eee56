// Rate-limited campaign progress reporter (ETA from completed-fault rate).
//
// Replaces the old ad-hoc per-cell GF_INFO logging: the runner announces the
// planned fault total, every controller bumps the completed count as it
// injects, and the reporter prints at most one stderr line per interval —
// completed/total, faults/s, and the ETA extrapolated from the measured
// rate. All state is atomic; the throttle is a CAS on the last-print stamp,
// so concurrent campaign runs never double-print and the off path (no reporter
// wired) costs nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace gf::obs {

class ProgressReporter {
 public:
  explicit ProgressReporter(double min_interval_s = 1.0);

  /// Total faults the campaign plans to inject (denominator for the ETA).
  void set_total(std::uint64_t total_faults) noexcept;

  /// Estimated total cost of the planned work (arbitrary units — the
  /// scheduler's chunk cost model). When set, the ETA extrapolates from
  /// *completed cost* instead of the raw fault rate: under dynamic
  /// chunk scheduling the per-fault rate swings with whichever chunk sizes
  /// happen to be in flight, and a rate-based ETA jumps around with it.
  void set_total_cost(double cost) noexcept;

  /// Called by the scheduler when a work unit (fault chunk / baseline)
  /// completes, with that unit's estimated cost.
  void add_cost(double cost) noexcept;

  /// Runs satisfied from the campaign store before scheduling. Cached work
  /// is subtracted from the totals *up front* (the runner announces only
  /// the cost/count of runs it will actually execute), so the ETA never
  /// amortizes instantly-folded cache hits into the measured rate; this
  /// count exists purely so the printed lines can say how much was skipped.
  void set_cached(std::uint64_t cached_runs) noexcept;

  /// Called by controllers per injected fault; prints at most once per
  /// interval.
  void add_faults(std::uint64_t n = 1) noexcept;

  /// Cell-completion milestone: always printed (these are rare).
  void cell_done(const std::string& cell, std::size_t done,
                 std::size_t total) noexcept;

  /// Final summary line.
  void finish() noexcept;

  std::uint64_t completed() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

 private:
  void report(std::uint64_t done, double elapsed_s) noexcept;
  void maybe_report() noexcept;
  double now_s() const noexcept;

  const double min_interval_s_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> cached_{0};
  /// Cost accounting in fixed-point milli-units so the accumulate is a plain
  /// atomic add (no atomic<double> RMW needed).
  std::atomic<std::uint64_t> total_cost_m_{0};
  std::atomic<std::uint64_t> done_cost_m_{0};
  /// Wall seconds (relative to start_) of the last printed line, as a CAS
  /// token: whoever wins the exchange prints.
  std::atomic<std::uint64_t> last_print_ms_{0};
  double start_s_ = 0;
};

}  // namespace gf::obs
