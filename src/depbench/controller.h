// The experiment controller: the paper's injector-monitor (§3.1).
//
// One iteration walks the faultload, exposing each fault for 10 simulated
// seconds while the SPECWeb-like client exercises the server, and monitors
// the BT:
//   - web server died and did not self-restart            -> MIS
//   - killed because it stopped responding to requests    -> KNS
//   - killed because it hogged the CPU without service    -> KCP
// Administrator intervention (MIS/KNS/KCP) restarts the server and reboots
// the OS; apex's watchdog self-restart restarts only the server process.
//
// The controller also implements the paper's baseline and "profile mode"
// runs (Table 4): in profile mode the injector performs every task of an
// injection campaign except the actual code patch, which measures the
// instrumentation overhead.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "depbench/task_obs.h"
#include "obs/progress.h"
#include "os/api.h"
#include "os/kernel.h"
#include "snapshot/warmboot.h"
#include "spec/client.h"
#include "swfit/injector.h"
#include "trace/activation.h"

namespace gf::depbench {

struct ControllerConfig {
  double fault_exposure_ms = 10000;  ///< 10 s per fault, as in the paper
  double detect_ms = 2500;           ///< monitor latency to notice a failure
  double admin_restart_ms = 3000;    ///< kill + OS reboot + server start
  int connections = 37;              ///< offered load (baseline SPEC score)
  double time_scale = 1.0;           ///< scales exposure & monitor latencies
  int fault_stride = 1;              ///< inject every k-th fault (sampling)
  /// First fault index of the iteration. Together with fault_stride this
  /// selects the faults a run exposes: {offset, offset + stride, ...}. The
  /// campaign runner sets offset to one fault's index and stride to the
  /// faultload size, so each run exposes exactly that fault.
  int fault_offset = 0;
  /// Faults per slot (paper Fig. 4): at slot boundaries the SUB is not
  /// exercised and gets a scheduled reset (OS reboot + server restart)
  /// that does NOT count as administrator intervention.
  int faults_per_slot = 24;
  /// Watchdog tolerance: self-restarts allowed per fault exposure before
  /// the monitor declares the server dead (MIS) and calls the admin.
  int self_restart_budget = 2;
  /// Per-fault activation & propagation tracing (src/trace). Off by default:
  /// with it off the VM hot loop is untouched (the armed bit is never set).
  bool trace = false;
  /// Probe kernel invariants at every OsApi call boundary while a fault is
  /// live (more precise latency attribution for latent corruption, at a
  /// per-call walk cost). Only meaningful when `trace` is on.
  bool trace_probe_per_call = false;
  /// Virtual-cycle sampling stride for the deterministic guest profiler
  /// (0 = off). When set (and `obs` is non-null) the VM's PC sampler is
  /// armed after bring-up and harvested into obs->profile at the run's end,
  /// attributed to functions via the pristine image's symbol table.
  /// Arming after bring-up keeps cold-built and warm-snapshot controllers
  /// bit-identical (boot/start/warm-up cycles are excluded either way).
  std::uint64_t profile_stride = 0;
  /// Per-task observability bundle (metrics + journal), owned by the caller.
  /// Null (the default) compiles the campaign down to a handful of
  /// never-taken branches at run boundaries — the hot paths are untouched.
  TaskObs* obs = nullptr;
  /// Shared campaign progress reporter; bumped once per injected fault.
  obs::ProgressReporter* progress = nullptr;
  spec::ClientConfig client;  ///< timing model knobs
};

/// Injector-monitor counters for one iteration (Table 5 right half).
struct CampaignCounters {
  int mis = 0;
  int kns = 0;
  int kcp = 0;
  int faults_injected = 0;
  int self_restarts = 0;
  /// ADMf: required administrator interventions (paper §3.2).
  int admf() const noexcept { return mis + kns + kcp; }
};

struct IterationResult {
  spec::WindowMetrics metrics;
  CampaignCounters counters;
  /// One record per injected fault when tracing is on (empty otherwise),
  /// sorted by absolute faultload index — the canonical order that makes
  /// the merge of per-fault runs independent of scheduling.
  std::vector<trace::ActivationRecord> activations;
};

class Controller {
 public:
  /// Builds a fresh SUB: kernel of `version`, file set, server `name`.
  Controller(os::OsVersion version, const std::string& server_name,
             ControllerConfig cfg = {});

  /// Reconstructs a warmed SUB from a shared warm-boot snapshot: the kernel
  /// resumes post-boot/post-server-start (no MiniC compile, no boot, no
  /// file-set regeneration), and the first run_* call skips its bring-up —
  /// the snapshot was captured exactly there, so results are bit-identical
  /// to a cold-built controller's.
  Controller(std::shared_ptr<const snapshot::WarmSnapshot> snap,
             ControllerConfig cfg = {});

  /// Rewinds a warm-built controller to the snapshot it was built from and
  /// adopts `cfg`, in O(dirty pages): afterwards it behaves exactly like
  /// Controller(snap, cfg), whatever earlier runs did to it. Throws
  /// std::logic_error on a cold-built controller (it has no snapshot).
  void reset(ControllerConfig cfg);

  /// Baseline performance (no injector at all).
  spec::WindowMetrics run_baseline(double duration_ms, std::uint64_t seed);

  /// Injector in profile mode: every injection-campaign task runs (fault
  /// schedule bookkeeping, code-window verification, monitor polling) but
  /// the target is never patched.
  spec::WindowMetrics run_profile_mode(const swfit::Faultload& fl,
                                       double duration_ms, std::uint64_t seed);

  /// One full campaign iteration over the faultload.
  IterationResult run_iteration(const swfit::Faultload& fl, std::uint64_t seed);

  os::Kernel& kernel() noexcept { return *kernel_; }
  web::WebServer& server() noexcept { return *server_; }

 private:
  /// Adopts `cfg` (client connections, API metrics sink).
  void configure(ControllerConfig cfg);

  /// Run-entry bring-up (snapshot::bring_up), skipped once on a
  /// warm-constructed controller whose snapshot already contains it.
  void bring_up();

  /// Every run kind: obs window, bring-up and profiler window around
  /// `body`, which returns the run's result.
  template <typename Body>
  IterationResult run(Body&& body);

  /// Baseline/profile-mode window under journal span `span`: the injector
  /// adds `injector_latency_ms` per operation and polls `tick` (empty =
  /// no injector).
  spec::WindowMetrics serve_window(const char* span, double duration_ms,
                                   std::uint64_t seed,
                                   double injector_latency_ms,
                                   const spec::SpecClient::Tick& tick);

  /// run_iteration's window: exposes the faults cfg_ selects.
  IterationResult inject_faults(const swfit::Faultload& fl,
                                std::uint64_t seed);

  /// Observability harvest window: begin records the lifetime counter
  /// baselines, end folds the deltas (VM dispatch, kernel activity, client
  /// window tallies) into the task registry. No-ops without cfg_.obs.
  void obs_begin_run();
  void obs_end_run(const spec::WindowMetrics& m);

  /// Guest profiler window: begin arms the VM's PC sampler (after bring-up,
  /// so boot cycles never pollute the profile), end harvests the samples
  /// into obs->profile attributed by function symbol and disarms. No-ops
  /// unless cfg_.profile_stride != 0 and cfg_.obs is set.
  void profile_begin();
  void profile_end();

  ControllerConfig cfg_;
  /// The snapshot a warm-built controller came from (reset's target); null
  /// on a cold-built one.
  std::shared_ptr<const snapshot::WarmSnapshot> snap_;
  vm::DispatchStats obs_vm_base_;
  os::KernelCounters obs_kernel_base_;
  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<os::OsApi> api_;
  std::unique_ptr<spec::Fileset> fileset_;
  std::unique_ptr<web::WebServer> server_;
  bool warm_started_ = false;
};

}  // namespace gf::depbench
