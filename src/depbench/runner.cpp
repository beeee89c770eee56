#include "depbench/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "isa/isa.h"
#include "snapshot/warmboot.h"
#include "store/campaign_codec.h"
#include "swfit/scanner.h"
#include "util/log.h"
#include "util/rng.h"

namespace gf::depbench {

namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

ControllerConfig cell_config(const std::string& server,
                             const RunnerOptions& opt) {
  ControllerConfig cfg;
  cfg.connections = server == "apex" ? 37 : 34;
  cfg.time_scale = opt.time_scale;
  cfg.fault_stride = opt.stride;
  cfg.trace = opt.trace;
  cfg.trace_probe_per_call = opt.trace_probe_per_call;
  cfg.profile_stride = opt.profile ? opt.profile_stride : 0;
  return cfg;
}

void key_instrs(store::KeyBuilder& kb, const std::vector<isa::Instr>& code) {
  std::vector<std::uint8_t> raw(code.size() * isa::kInstrSize);
  for (std::size_t i = 0; i < code.size(); ++i) {
    isa::encode(code[i], raw.data() + i * isa::kInstrSize);
  }
  kb.bytes(raw.data(), raw.size());
}

/// Content digest of ONE fault: everything an injected run can observe of
/// it. Keyed per fault (not per faultload) so editing one fault type's
/// mutations invalidates only that type's cached runs.
std::uint64_t fault_digest(const swfit::FaultLocation& f) {
  store::KeyBuilder kb;
  kb.u64(static_cast<std::uint64_t>(f.type)).str(f.function).u64(f.addr);
  key_instrs(kb, f.original);
  key_instrs(kb, f.mutated);
  const auto k = kb.finish();
  return k.hi ^ k.lo;
}

/// Digest of what profile mode sees of the schedule: the *original* windows
/// only (profile mode verifies but never patches), over the sampled
/// positions. Mutation edits therefore keep the baseline cached.
std::uint64_t profile_digest(const swfit::Faultload& fl, std::size_t stride) {
  store::KeyBuilder kb;
  for (std::size_t i = 0; i < fl.faults.size(); i += stride) {
    const auto& f = fl.faults[i];
    kb.u64(static_cast<std::uint64_t>(f.type)).str(f.function).u64(f.addr);
    key_instrs(kb, f.original);
  }
  const auto k = kb.finish();
  return k.hi ^ k.lo;
}

/// Key prefix shared by every run of one cell: schema, target build,
/// cell identity, the full controller/client configuration, seed and
/// schedule shape. Everything a run's result depends on except
/// (kind, iteration, position, fault content).
store::KeyBuilder cell_key_base(const RunnerOptions& opt,
                                const ControllerConfig& cfg,
                                const swfit::Faultload& fl,
                                os::OsVersion version,
                                const std::string& server, std::size_t stride,
                                std::size_t positions) {
  store::KeyBuilder kb;
  kb.u64(store::kResultSchema);
  kb.u64(fl.digest).str(fl.target);
  kb.str(os::os_version_name(version)).str(server);
  kb.f64(cfg.fault_exposure_ms).f64(cfg.detect_ms).f64(cfg.admin_restart_ms);
  kb.u64(static_cast<std::uint64_t>(cfg.connections)).f64(cfg.time_scale);
  kb.u64(static_cast<std::uint64_t>(cfg.faults_per_slot));
  kb.u64(static_cast<std::uint64_t>(cfg.self_restart_budget));
  // trace and obs shape what a run records (activations, journal, registry);
  // a record cached without them must read as a miss, never as a wrong hit.
  kb.u64(cfg.trace ? 1 : 0).u64(cfg.trace_probe_per_call ? 1 : 0);
  kb.u64(opt.obs ? 1 : 0);
  // The sampling stride shapes the recorded profile (0 = off), so records
  // cached at one stride never serve a campaign run at another.
  kb.u64(cfg.profile_stride);
  const auto& cl = cfg.client;
  kb.u64(static_cast<std::uint64_t>(cl.connections));
  kb.f64(cl.conn_bandwidth_kbps).f64(cl.conforming_kbps);
  kb.f64(cl.max_error_pct).f64(cl.base_latency_ms).f64(cl.cycles_per_ms);
  kb.f64(cl.op_timeout_ms).f64(cl.error_latency_ms);
  kb.u64(cl.validate_content ? 1 : 0).f64(cl.spc_batch_ms);
  kb.u64(opt.seed).u64(stride).u64(positions);
  return kb;
}

/// Run kinds folded after the cell prefix (baseline vs fault run).
constexpr std::uint64_t kKindBaseline = 1;
constexpr std::uint64_t kKindFault = 2;

/// Tasks one cache-resolution unit looks up, and the estimated cost of one
/// warm-boot capture in units of such a block: a capture takes about 20 ms,
/// a block of hits about 1 ms. The costs only steer the LPT seeding.
constexpr std::size_t kResolveBlock = 64;
constexpr double kCaptureCost = 16.0;

/// The worker pool's shape: jobs = 0 resolves to the host's core count.
SchedOptions sched_options(const RunnerOptions& opt) {
  SchedOptions sopt;
  sopt.jobs = opt.jobs > 0 ? static_cast<std::size_t>(opt.jobs)
                           : std::max(1u, std::thread::hardware_concurrency());
  sopt.steal = opt.steal;
  return sopt;
}

/// Builds one run's controller: from the cell's warm snapshot when there is
/// one, cold otherwise.
std::unique_ptr<Controller> make_controller(
    const RunnerOptions& opt,
    const std::shared_ptr<const snapshot::WarmSnapshot>& snap,
    os::OsVersion version, const std::string& server,
    const ControllerConfig& cfg) {
  auto ctl = snap != nullptr
                 ? std::make_unique<Controller>(snap, cfg)
                 : std::make_unique<Controller>(version, server, cfg);
  // A/B hook: fusion is an execution strategy, not a semantic knob, so it
  // is applied to the built machine instead of traveling through
  // ControllerConfig (and store keys). Default-on costs nothing here.
  if (!opt.fusion) ctl->kernel().machine().set_fusion(false);
  return ctl;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t cell,
                          std::uint64_t task) noexcept {
  // Two SplitMix64 hops: the first opens a per-cell stream, the second picks
  // the task's value inside it. Both inputs are mixed multiplicatively so
  // (cell=1, task=0) and (cell=0, task=1) land in unrelated streams.
  util::SplitMix64 g(seed ^ (0x9E3779B97F4A7C15ULL * (cell + 1)));
  util::SplitMix64 h(g.next() ^ (0xBF58476D1CE4E5B9ULL * (task + 1)));
  return h.next();
}

CampaignCounters merge_counters(const CampaignCounters& a,
                                const CampaignCounters& b) noexcept {
  CampaignCounters m;
  m.mis = a.mis + b.mis;
  m.kns = a.kns + b.kns;
  m.kcp = a.kcp + b.kcp;
  m.faults_injected = a.faults_injected + b.faults_injected;
  m.self_restarts = a.self_restarts + b.self_restarts;
  return m;
}

void CampaignObs::merge_tasks() {
  // The merges are commutative folds, but a fixed (slot) order keeps the
  // join auditable.
  for (const auto& slot : tasks) {
    metrics.merge(slot.obs.metrics);
    api.merge(slot.obs.api);
  }
  api.export_into(metrics);
  // Kernel churn derived from the per-function API counts: heap and handle
  // lifecycles in VOS happen exclusively through these entry points.
  auto c = [&](const char* n) { return metrics.counter(n); };
  metrics.add("kernel.heap.allocs", c("api.RtlAllocateHeap.calls"));
  metrics.add("kernel.heap.frees", c("api.RtlFreeHeap.calls"));
  metrics.add("kernel.handles.opened",
              c("api.NtCreateFile.calls") + c("api.NtOpenFile.calls"));
  metrics.add("kernel.handles.closed",
              c("api.NtClose.calls") + c("api.CloseHandle.calls"));
}

IterationResult merge_fault_runs(const std::vector<IterationResult>& runs) {
  IterationResult m;
  if (runs.empty()) return m;
  double succ_total = 0, rtm_weighted = 0, spc_sum = 0, cc_sum = 0;
  for (const auto& r : runs) {
    m.metrics.duration_ms += r.metrics.duration_ms;
    m.metrics.ops += r.metrics.ops;
    m.metrics.errors += r.metrics.errors;
    m.metrics.bytes += r.metrics.bytes;
    const auto succ = static_cast<double>(r.metrics.ops - r.metrics.errors);
    succ_total += succ;
    rtm_weighted += r.metrics.rtm_ms * succ;
    spc_sum += r.metrics.spc;
    cc_sum += r.metrics.cc_pct;
    m.counters = merge_counters(m.counters, r.counters);
    m.activations.insert(m.activations.end(), r.activations.begin(),
                         r.activations.end());
  }
  const auto n = static_cast<double>(runs.size());
  m.metrics.thr = m.metrics.duration_ms > 0
                      ? succ_total / (m.metrics.duration_ms / 1000.0)
                      : 0;
  m.metrics.rtm_ms = succ_total > 0 ? rtm_weighted / succ_total : 0;
  m.metrics.er_pct = m.metrics.ops > 0
                         ? 100.0 * static_cast<double>(m.metrics.errors) /
                               static_cast<double>(m.metrics.ops)
                         : 0;
  m.metrics.spc = static_cast<int>(spc_sum / n + 0.5);
  m.metrics.cc_pct = cc_sum / n;
  trace::sort_records(m.activations);
  return m;
}

void CampaignRunner::scan_faultloads() {
  if (!faultloads_.empty()) return;
  for (const auto version : opt_.versions) {
    if (opt_.faultload != nullptr) {
      faultloads_.emplace_back(version, *opt_.faultload);
      continue;
    }
    os::Kernel scan_kernel(version);
    faultloads_.emplace_back(
        version, swfit::Scanner{}.scan(scan_kernel.pristine_image(),
                                       all_api_names()));
  }
}

const swfit::Faultload& CampaignRunner::faultload_for(os::OsVersion v) const {
  for (const auto& [version, fl] : faultloads_) {
    if (version == v) return fl;
  }
  throw std::logic_error("faultload_for: version was not scanned");
}

std::vector<ExperimentCell> CampaignRunner::run_campaign() {
  // Scan-cache traffic attributable to this campaign (process-wide memo, so
  // absolute hit/miss values are not a pure function of the campaign — only
  // the request delta is recorded).
  const auto scan0 = swfit::scan_cache_stats();
  scan_faultloads();
  const auto scan1 = swfit::scan_cache_stats();

  const auto iters = static_cast<std::size_t>(std::max(0, opt_.iterations));
  const auto stride = static_cast<std::size_t>(std::max(1, opt_.stride));
  const std::size_t n_cells = opt_.versions.size() * opt_.servers.size();
  const SchedOptions sopt = sched_options(opt_);

  // Oracle-sensitivity hook for the differential fuzzer (src/check): with
  // GF_CHECK_PERTURB set, parallel campaigns (jobs > 1) deliberately skew one
  // merge input — an extra self-restart per fault run. The jobs=1 reference
  // stays clean, so the matrix fuzzer's byte-identity oracles MUST flag every
  // perturbed run; CI uses this to prove the oracles can actually detect a
  // scheduling-shape-dependent bug rather than vacuously agreeing.
  const char* perturb_env = std::getenv("GF_CHECK_PERTURB");
  const bool perturb =
      perturb_env != nullptr && *perturb_env != '\0' && sopt.jobs > 1;

  // Baseline cost in the cost model's unit (one healthy exposure window).
  // run_profile_mode takes its window length unscaled while exposures are
  // time_scale'd, hence the scale in the denominator.
  const double exposure_ms =
      ControllerConfig{}.fault_exposure_ms * std::max(1e-9, opt_.time_scale);
  const double baseline_cost =
      std::max(0.0, opt_.baseline_window_ms) / exposure_ms;

  // Per-cell schedule plan: every iteration is decomposed into single-fault
  // positions (position p = faultload index p*stride), grouped into
  // cost-balanced chunks. Cells of different OS versions have different
  // faultload sizes, so slot layout is a prefix sum, not a uniform grid.
  struct CellPlan {
    os::OsVersion version{};
    std::string server;
    std::string name;  ///< "VOS-2000/apex"
    const swfit::Faultload* fl = nullptr;
    std::size_t positions = 0;  ///< faults per iteration (ceil(n/stride))
    std::size_t slot_base = 0;  ///< first obs/result slot of this cell
    // Store keying (meaningful only when a store is wired).
    store::KeyBuilder key_base;        ///< shared key prefix of this cell
    std::vector<std::uint64_t> fdig;   ///< per-position fault content digest
    std::uint64_t profile_dig = 0;     ///< baseline schedule digest
    bool baseline_cached = false;
    /// Fault runs (task ids) still to execute, per iteration; without a
    /// store (or with store_read off) every run is a miss — the identity
    /// schedule.
    std::vector<std::vector<std::size_t>> miss;
    std::vector<std::vector<Chunk>> iter_chunks;  ///< chunks over miss[it]
  };
  const FaultCostModel cost_model{opt_.cost_profile, opt_.cost_traces};
  std::vector<CellPlan> plan(n_cells);
  std::size_t total_slots = 0;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    auto& cp = plan[cell];
    cp.version = opt_.versions[cell / opt_.servers.size()];
    cp.server = opt_.servers[cell % opt_.servers.size()];
    cp.name = std::string(os::os_version_name(cp.version)) + "/" + cp.server;
    cp.fl = &faultload_for(cp.version);
    const auto n = cp.fl->faults.size();
    cp.positions = n == 0 ? 0 : (n + stride - 1) / stride;
    cp.slot_base = total_slots;
    total_slots += 1 + iters * cp.positions;
    if (opt_.store != nullptr) {
      cp.key_base = cell_key_base(opt_, cell_config(cp.server, opt_), *cp.fl,
                                  cp.version, cp.server, stride, cp.positions);
      cp.fdig.resize(cp.positions);
      for (std::size_t p = 0; p < cp.positions; ++p) {
        cp.fdig[p] = fault_digest(cp.fl->faults[p * stride]);
      }
      cp.profile_dig = profile_digest(*cp.fl, stride);
    }
  }

  // Every run is addressed by (cell, task): task 0 is the cell's baseline,
  // task 1 + it*positions + pos the fault run at schedule position pos of
  // iteration it. The task id seeds the run, and the run's result, obs
  // bundle and store record all belong to slot slot_base + task — runs
  // write only their own slot, which is what makes the merge independent
  // of scheduling.
  auto fault_task = [](const CellPlan& cp, std::size_t it, std::size_t pos) {
    return 1 + it * cp.positions + pos;
  };
  auto run_label = [&](const CellPlan& cp, std::size_t task) {
    if (task == 0) return std::string("baseline");
    return "iter" + std::to_string((task - 1) / cp.positions) + ".f" +
           std::to_string((task - 1) % cp.positions * stride);
  };
  auto run_key = [&](const CellPlan& cp, std::size_t task) {
    auto kb = cp.key_base;
    if (task == 0) {
      kb.u64(kKindBaseline).f64(opt_.baseline_window_ms).u64(cp.profile_dig);
    } else {
      const auto pos = (task - 1) % cp.positions;
      kb.u64(kKindFault).u64((task - 1) / cp.positions).u64(pos);
      kb.u64(cp.fdig[pos]);
    }
    return kb.finish();
  };
  std::vector<IterationResult> results(total_slots);
  // Observability slots mirror the result slots, merged in slot order after
  // the join.
  obs_.reset();
  if (opt_.obs) {
    obs_ = std::make_unique<CampaignObs>();
    obs_->tasks.resize(total_slots);
  }

  // One pool pass before the schedule: the per-cell warm-boot captures and
  // the cache resolution run as units side by side.
  //
  // Warm-boot snapshots: one bring-up per cell, shared read-only by every
  // run of that cell. Each run then clones a private SUB from the snapshot
  // in O(memory copy) instead of recompiling the OS image and re-running
  // boot + file-set population + server start.
  //
  // Cache resolution: fold every stored run into the slot a live run would
  // have filled, and schedule only the misses. Each resolution unit covers
  // one block of a cell's tasks and writes only those slots plus their hit
  // bytes, so the store's shared-lock gets and the decodes run in parallel.
  // Records cached under a different obs/trace shape carry different keys,
  // so a hit is always shape-compatible; the decode guard below is pure
  // defense.
  //
  // The pass's scheduler telemetry is dropped: SchedStats describes the
  // fault schedule only.
  store::CampaignStore* st = opt_.store;
  const bool reading = st != nullptr && opt_.store_read;
  const store::StoreStats stats0 = st != nullptr ? st->stats()
                                                 : store::StoreStats{};
  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<const snapshot::WarmSnapshot>> warm(n_cells);
  std::vector<std::uint8_t> hit(total_slots, 0);  ///< 1 = folded from store
  auto restore_run = [&](const CellPlan& cp, std::size_t task,
                         std::vector<std::uint8_t>& payload) {
    if (!st->get(run_key(cp, task), payload)) return false;
    try {
      auto rec = store::decode_run_record(payload);
      if (opt_.obs && !rec.has_obs) return false;
      results[cp.slot_base + task] = std::move(rec.result);
      if (obs_) {
        auto& slot = obs_->tasks[cp.slot_base + task];
        slot.cell = cp.name;
        slot.label = run_label(cp, task);
        slot.obs = std::move(rec.obs);
      }
      return true;
    } catch (const store::WireError&) {
      return false;
    }
  };
  {
    std::vector<WorkUnit> setup;
    for (std::size_t cell = 0; opt_.warm_boot && cell < n_cells; ++cell) {
      setup.push_back({[&warm, &cp = plan[cell], cell] {
                         warm[cell] = snapshot::capture_warm_boot(cp.version,
                                                                  cp.server);
                       },
                       kCaptureCost});
    }
    for (std::size_t cell = 0; reading && cell < n_cells; ++cell) {
      const std::size_t tasks = 1 + iters * plan[cell].positions;
      for (std::size_t lo = 0; lo < tasks; lo += kResolveBlock) {
        const std::size_t hi = std::min(tasks, lo + kResolveBlock);
        setup.push_back({[&restore_run, &hit, &cp = plan[cell], lo, hi] {
                           std::vector<std::uint8_t> payload;
                           for (std::size_t task = lo; task < hi; ++task) {
                             hit[cp.slot_base + task] =
                                 restore_run(cp, task, payload) ? 1 : 0;
                           }
                         },
                         static_cast<double>(hi - lo) / kResolveBlock});
      }
    }
    run_units(std::move(setup), sopt);
  }

  // Miss lists, costs and chunk plans, serially in slot order: the schedule
  // is the same whichever worker resolved which slot.
  const auto cached_runs =
      static_cast<std::uint64_t>(std::count(hit.begin(), hit.end(), 1));
  double total_cost = 0;
  std::uint64_t planned_faults = 0;
  for (auto& cp : plan) {
    cp.baseline_cached = hit[cp.slot_base] != 0;
    if (!cp.baseline_cached) total_cost += baseline_cost;
    const auto fault_costs = estimate_fault_costs(*cp.fl, cost_model);
    cp.miss.resize(iters);
    cp.iter_chunks.resize(iters);
    for (std::size_t it = 0; it < iters; ++it) {
      std::vector<double> miss_cost;
      for (std::size_t pos = 0; pos < cp.positions; ++pos) {
        const auto task = fault_task(cp, it, pos);
        if (hit[cp.slot_base + task] != 0) continue;
        cp.miss[it].push_back(task);
        miss_cost.push_back(fault_costs[pos * stride]);
        total_cost += miss_cost.back();
      }
      planned_faults += cp.miss[it].size();
      // Chunks are planned over the miss list only: cached runs never
      // occupy scheduler slots, so their cost is subtracted before the
      // first progress line, not amortized into the measured rate.
      cp.iter_chunks[it] = plan_chunks(miss_cost, sopt.jobs, opt_.chunk);
    }
  }
  if (opt_.progress != nullptr) {
    opt_.progress->set_total(planned_faults);
    opt_.progress->set_total_cost(total_cost);
    opt_.progress->set_cached(cached_runs);
  }
  if (st != nullptr && cached_runs > 0) {
    GF_INFO() << "campaign store: " << cached_runs
              << " cached runs folded, " << planned_faults
              << " fault runs to execute";
  }

  // Per-cell countdown over *work units* so campaign progress is narrated
  // live (one line per completed cell) even under steal interleaving.
  std::vector<std::atomic<std::size_t>> remaining(n_cells);
  std::atomic<std::size_t> cells_done{0};

  auto wall_us = [&] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - wall0)
        .count();
  };
  // One run, baseline or fault alike: a controller freshly built or reset
  // to the cell snapshot, seeded by the task id. The baseline runs profile
  // mode over the whole faultload; a fault run injects exactly one fault
  // (offset = its absolute index, stride spans the whole faultload). `ctl`
  // is the unit's controller: warm runs reset it (a reset controller is
  // indistinguishable from a fresh one, so nothing here depends on which
  // unit or worker the run rides in or what ran before it); the first run
  // of a unit and every cold-boot run build it. The post-run commit holds
  // everything restore_run needs to fold the run back without executing
  // it; the TaskObs copy happens at the run boundary, never on the VM hot
  // path.
  auto execute = [&](std::size_t cell, std::size_t task,
                     std::unique_ptr<Controller>& ctl) {
    const auto& cp = plan[cell];
    const auto label = run_label(cp, task);
    auto cfg = cell_config(cp.server, opt_);
    cfg.progress = opt_.progress;
    if (task > 0) {
      cfg.fault_offset = static_cast<int>((task - 1) % cp.positions * stride);
      cfg.fault_stride =
          static_cast<int>(std::max<std::size_t>(cp.fl->faults.size(), 1));
    }
    TaskObsSlot* slot = obs_ ? &obs_->tasks[cp.slot_base + task] : nullptr;
    if (slot != nullptr) {
      slot->cell = cp.name;
      slot->label = label;
      cfg.obs = &slot->obs;
      slot->obs.wall_start_us = wall_us();
    }
    if (opt_.warm_boot && ctl != nullptr) {
      ctl->reset(cfg);
    } else {
      ctl = nullptr;  // at most one live controller per worker
      ctl = make_controller(opt_, warm[cell], cp.version, cp.server, cfg);
    }
    const auto seed = derive_seed(opt_.seed, cell, task);
    auto& result = results[cp.slot_base + task];
    if (task == 0) {
      result.metrics =
          ctl->run_profile_mode(*cp.fl, opt_.baseline_window_ms, seed);
    } else {
      result = ctl->run_iteration(*cp.fl, seed);
      if (perturb) result.counters.self_restarts += 1;
    }
    if (slot != nullptr) slot->obs.wall_end_us = wall_us();
    if (st != nullptr) {
      store::RunRecord rec;
      rec.cell = cp.name;
      rec.label = label;
      rec.result = result;
      rec.has_obs = slot != nullptr;
      if (slot != nullptr) rec.obs = slot->obs;
      st->put(run_key(cp, task), store::encode_run_record(rec));
    }
  };
  auto cell_complete = [&](std::size_t cell) {
    const auto done = cells_done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opt_.progress != nullptr) {
      opt_.progress->cell_done(plan[cell].name, done, n_cells);
    } else {
      GF_INFO() << "campaign cell done: " << plan[cell].name << " (" << done
                << "/" << n_cells << " cells)";
    }
  };
  auto unit_done = [&](std::size_t cell, double cost) {
    if (opt_.progress != nullptr) opt_.progress->add_cost(cost);
    if (remaining[cell].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cell_complete(cell);
    }
  };
  // Work units, in deterministic construction order (cell-major, baseline
  // first, then iteration-major chunks over the miss lists). The scheduler
  // is free to run them in any order on any worker — units only write their
  // own slots. One controller per unit: every unit covers a single cell, so
  // its snapshot fits every run.
  std::vector<WorkUnit> units;
  auto add_unit = [&](std::size_t cell, std::vector<std::size_t> tasks,
                      double cost) {
    remaining[cell].fetch_add(1, std::memory_order_relaxed);
    units.push_back({[&execute, &unit_done, cell, tasks = std::move(tasks),
                      cost] {
                       std::unique_ptr<Controller> ctl;
                       for (const auto task : tasks) execute(cell, task, ctl);
                       unit_done(cell, cost);
                     },
                     cost});
  };
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const auto& cp = plan[cell];
    if (!cp.baseline_cached) add_unit(cell, {0}, baseline_cost);
    for (std::size_t it = 0; it < iters; ++it) {
      for (const auto& c : cp.iter_chunks[it]) {
        const auto first =
            cp.miss[it].begin() + static_cast<std::ptrdiff_t>(c.first);
        add_unit(cell, {first, first + static_cast<std::ptrdiff_t>(c.count)},
                 c.cost);
      }
    }
    // A cell fully satisfied from the store never reaches the scheduler;
    // narrate it here so the cell countdown stays complete on resume.
    if (remaining[cell].load(std::memory_order_relaxed) == 0) {
      cell_complete(cell);
    }
  }

  sched_ = std::make_unique<SchedStats>(run_units(std::move(units), sopt));
  GF_INFO() << "campaign schedule: " << sched_->total_units << " units on "
            << sched_->workers.size() << " workers, utilization "
            << sched_->utilization() << ", " << sched_->steals()
            << " steals (" << sched_->stolen() << " units)";

  std::vector<ExperimentCell> cells(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const auto& cp = plan[cell];
    cells[cell].os_name = os::os_version_name(cp.version);
    cells[cell].server_name = cp.server;
    cells[cell].baseline = results[cp.slot_base].metrics;
    for (std::size_t it = 0; it < iters; ++it) {
      const auto first = results.begin() + static_cast<std::ptrdiff_t>(
                                                fault_task(cp, it, 0) +
                                                cp.slot_base);
      cells[cell].iterations.push_back(merge_fault_runs(
          std::vector<IterationResult>(
              first, first + static_cast<std::ptrdiff_t>(cp.positions))));
    }
  }

  if (obs_) {
    // Deterministic join: fold the per-run bundles in slot order, then add
    // the campaign-level tallies no single run can know.
    obs_->merge_tasks();
    obs_->metrics.add("campaign.cells", n_cells);
    obs_->metrics.add("campaign.tasks", total_slots);
    obs_->metrics.add("scan.requests", (scan1.hits + scan1.misses) -
                                           (scan0.hits + scan0.misses));
    for (const auto& [version, fl] : faultloads_) {
      obs_->metrics.add("scan.faults", fl.faults.size());
    }
    obs_->metrics.add("snapshot.captures", opt_.warm_boot ? n_cells : 0);
    obs_->metrics.add(opt_.warm_boot ? "snapshot.warm_tasks"
                                     : "snapshot.cold_tasks",
                      total_slots);
    for (const auto& snap : warm) {
      if (snap) {
        obs_->metrics.gauge("snapshot.bringup_cycles", snap->capture_cycles);
      }
    }
  }
  store_stats_.reset();
  if (st != nullptr) {
    store_stats_ = std::make_unique<store::StoreStats>(
        st->stats().delta(stats0));
    GF_INFO() << "campaign store: " << store_stats_->hits << " hits, "
              << store_stats_->misses << " misses, " << store_stats_->puts
              << " puts; " << store_stats_->records << " live records ("
              << store_stats_->bytes << " payload bytes)";
  }
  if (opt_.progress != nullptr) opt_.progress->finish();
  return cells;
}

std::vector<IntrusivenessCell> CampaignRunner::run_intrusiveness() {
  scan_faultloads();

  const std::size_t n_cells = opt_.versions.size() * opt_.servers.size();
  std::vector<IntrusivenessCell> cells(n_cells);

  // Two units per cell: 0 = max-performance baseline, 1 = profile mode.
  // Both use the cell's task-0 seed so the degradation comparison is paired
  // (same workload stream), exactly like the sequential Table 4 bench, and
  // both build cold controllers: Table 4 is the cold reference. Every field
  // of a cell has exactly one writing unit.
  std::vector<WorkUnit> units;
  for (std::size_t idx = 0; idx < n_cells * 2; ++idx) {
    units.push_back({[this, &cells, idx] {
      auto& cell = cells[idx / 2];
      const auto version = opt_.versions[idx / 2 / opt_.servers.size()];
      const auto& server = opt_.servers[idx / 2 % opt_.servers.size()];
      const auto seed = derive_seed(opt_.seed, idx / 2, 0);
      const auto ctl = make_controller(opt_, nullptr, version, server,
                                       cell_config(server, opt_));
      if (idx % 2 == 0) {
        cell.os_name = os::os_version_name(version);
        cell.server_name = server;
        cell.max_perf = ctl->run_baseline(opt_.baseline_window_ms, seed);
      } else {
        cell.profile = ctl->run_profile_mode(faultload_for(version),
                                             opt_.baseline_window_ms, seed);
      }
    }});
  }
  run_units(std::move(units), sched_options(opt_));
  return cells;
}

}  // namespace gf::depbench
