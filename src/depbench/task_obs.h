// Per-task observability bundle.
//
// Each campaign run owns one TaskObs — its private metrics registry,
// OS-API sink and event journal — so the hot path never synchronizes. At
// the run boundary the runner folds the registry and API sink into the
// campaign's (sums and maxes, so the fold order never shows) and empties
// them; the journal and profile stay in the run's slot, which the renderers
// walk in slot order. Together with the canonical renderings in src/obs
// this makes the merged artifacts byte-identical for any --jobs.
#pragma once

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace gf::depbench {

struct TaskObs {
  obs::Registry metrics;
  obs::ApiMetrics api;
  obs::Journal journal;
  /// Per-run cycle profile (empty unless the campaign runs with profiling
  /// on); attributed to functions by the controller at harvest.
  obs::Profile profile;
  /// Host wall-clock task bounds relative to campaign start, stamped by the
  /// runner (Chrome trace host view only — never merged into the
  /// deterministic artifacts).
  double wall_start_us = 0;
  double wall_end_us = 0;
};

}  // namespace gf::depbench
