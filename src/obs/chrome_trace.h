// Chrome trace-event exporter (chrome://tracing / Perfetto loadable).
//
// Two coordinated views of one campaign:
//   pid 1 "host"    — one complete (X) event per campaign run on host
//                     wall-clock, showing the real parallel schedule;
//   pid 2 "virtual" — each task's journal replayed as B/E/i events on the
//                     VM's simulated clock, one tid per task, showing what
//                     happened *inside* each slot independent of scheduling.
// The virtual view is deterministic (pure function of seed/cell/task); only
// the host view carries wall time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gf::obs {

class Journal;

struct TaskTrack {
  std::string cell;   ///< e.g. "VOS-2000/apex"
  std::string label;  ///< e.g. "iter0.f12" or "baseline"
  std::uint32_t tid = 0;
  double wall_start_us = 0;  ///< relative to campaign start
  double wall_end_us = 0;
  const Journal* journal = nullptr;  ///< may be null (host-only track)
};

/// Renders {"traceEvents":[...]} with M metadata naming both pids and every
/// tid, X events on pid 1, and journal B/E/i events on pid 2
/// (ts = sim_ms * 1000). Events are emitted per track in journal order, so
/// timestamps are monotone within each (pid, tid).
std::string chrome_trace_json(const std::vector<TaskTrack>& tracks);

}  // namespace gf::obs
