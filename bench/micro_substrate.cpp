// Substrate micro-benchmarks (google-benchmark): VM dispatch rate, MiniC
// compilation, G-SWFIT scanning, inject/restore cost, end-to-end OS API
// call latency, and the result store's open (recovery) and get paths.
// These quantify the supporting claims: faultload generation is fast
// ("less than 5 minutes" in the paper) and runtime injection is a cheap
// patch operation.
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "depbench/controller.h"
#include "minic/compiler.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "snapshot/warmboot.h"
#include "spec/client.h"
#include "spec/fileset.h"
#include "store/key.h"
#include "store/store.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "vm/machine.h"
#include "web/server.h"

namespace {

using namespace gf;

isa::Image dispatch_image() {
  // Tight arithmetic loop: measures raw interpreter throughput. `cold` is
  // never called from `f` — it exists so a fault-window watch can be armed
  // inside the code hull without any armed slot on the measured path.
  return minic::compile(
      "fn cold(x) { return x + 1; } "
      "fn f(n) { var s = 0; var i = 0; while (i < n) { s = s + i * 3; "
      "i = i + 1; } return s; }",
      "bench", 0x1000);
}

void run_dispatch(benchmark::State& state, bool predecode,
                  bool arm_cold_watch = false, bool fusion = true,
                  std::uint64_t sample_stride = 0) {
  const auto img = dispatch_image();
  vm::Machine m;
  m.load_image(img);
  m.set_predecode(predecode);
  m.set_fusion(fusion);
  if (arm_cold_watch) {
    const auto cold = img.find_symbol("cold")->addr;
    m.arm_watch(cold, cold + 2 * isa::kInstrSize);
  }
  if (sample_stride > 0) m.arm_sampler(sample_stride);
  const auto addr = img.find_symbol("f")->addr;
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    const auto r = m.call(addr, {n}, 1u << 30);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(state.iterations() * n * 10);  // ~10 instrs/iter
}

void BM_VmDispatch(benchmark::State& state) {
  run_dispatch(state, true);  // the default machine configuration
}
BENCHMARK(BM_VmDispatch)->Arg(1000)->Arg(100000);

/// Same loop on the fallback path: per-step isa::decode plus the
/// last-hit-cached in_code() range walk.
void BM_VmDispatchNoPredecode(benchmark::State& state) {
  run_dispatch(state, false);
}
BENCHMARK(BM_VmDispatchNoPredecode)->Arg(100000);

/// A/B partner of BM_VmDispatch with superinstruction fusion disabled: the
/// delta against BM_VmDispatch *is* the fusion win on this loop (the
/// threaded-vs-switch lowering is a configure-time choice, reported in the
/// benchmark context as `vm_dispatch`). CI uploads both sides.
void BM_VmDispatchNoFusion(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/false, /*fusion=*/false);
}
BENCHMARK(BM_VmDispatchNoFusion)->Arg(100000);

/// Dispatch with a fault-window watch armed on a *never-executed* function:
/// the src/trace cost model is that an armed window changes only the slot
/// records of its own code and of the runs leading into it, so this must
/// track BM_VmDispatch within noise (tests/test_trace.cpp guards the ratio;
/// the acceptance bar is 3%).
void BM_VmDispatchTraceDisarmed(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/true);
}
BENCHMARK(BM_VmDispatchTraceDisarmed)->Arg(100000);

/// Dispatch with the deterministic PC sampler armed at the campaign's
/// default stride (4096 cycles): the next sample shares the budget's
/// event-horizon test, so the armed cost is the cold map insert amortised
/// 1/stride. Disarmed sampling is covered by BM_VmDispatch itself (the
/// countdown idles at 2^62, so the horizon is the budget).
void BM_VmDispatchProfiled(benchmark::State& state) {
  run_dispatch(state, true, /*arm_cold_watch=*/false, /*fusion=*/true,
               /*sample_stride=*/4096);
}
BENCHMARK(BM_VmDispatchProfiled)->Arg(100000);

/// The armed profiler's retention, measured in pairs: every iteration runs
/// the dispatch loop once disarmed and once armed at stride 4096 on one
/// Machine, alternating which goes first, so a load shift on a shared host
/// moves both halves alike. The `retention` counter is the armed rate over
/// the disarmed rate; run_benches.sh holds its median to >= 0.80.
void BM_VmDispatchProfiledPaired(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto img = dispatch_image();
  vm::Machine m;
  m.load_image(img);
  const auto addr = img.find_symbol("f")->addr;
  const std::int64_t n = state.range(0);
  Clock::duration took[2]{};  // disarmed, armed
  bool armed_first = false;
  for (auto _ : state) {
    for (const bool arm : {armed_first, !armed_first}) {
      if (arm) m.arm_sampler(4096);
      const auto start = Clock::now();
      benchmark::DoNotOptimize(m.call(addr, {n}, 1u << 30).ret);
      took[arm] += Clock::now() - start;
      if (arm) m.disarm_sampler();
    }
    armed_first = !armed_first;
  }
  state.counters["retention"] = static_cast<double>(took[0].count()) /
                                static_cast<double>(took[1].count());
  state.SetItemsProcessed(state.iterations() * 2 * n * 10);
}
BENCHMARK(BM_VmDispatchProfiledPaired)->Arg(100000);

/// Dispatch over guest memory traffic. BM_VmDispatch's loop never stores;
/// a campaign retires about 30% loads and 23% stores. Here every element
/// makes a call (CALL/RET and PUSH/POP on the stack), keeps its locals in
/// stack slots and reads and writes a 512-byte heap table: 34% of the
/// retired instructions load and 22% store. Items are retired instructions,
/// counted exactly.
void BM_VmDispatchMemMix(benchmark::State& state) {
  const auto img = minic::compile(
      "fn mix(p, i) { var a = load(p + ((i * 5) & 63) * 8); "
      "store(p + (i & 63) * 8, a + i); return a; } "
      "fn f(n) { var p = 0x100000; var s = 0; var i = 0; "
      "while (i < n) { s = s + mix(p, i); i = i + 1; } return s; }",
      "bench", 0x1000);
  vm::Machine m;
  m.load_image(img);
  const auto addr = img.find_symbol("f")->addr;
  const std::int64_t n = state.range(0);
  const auto before = m.dispatch_stats().instructions;
  for (auto _ : state) {
    const auto r = m.call(addr, {n}, 1u << 30);
    benchmark::DoNotOptimize(r.ret);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(m.dispatch_stats().instructions - before));
}
BENCHMARK(BM_VmDispatchMemMix)->Arg(10000);

void BM_MiniCCompileOs(benchmark::State& state) {
  for (auto _ : state) {
    auto img = minic::compile({os::common_source(),
                               os::ntdll_source(os::OsVersion::kVosXp),
                               os::kernel32_source(os::OsVersion::kVosXp)},
                              "vos", 0x10000);
    benchmark::DoNotOptimize(img.size());
  }
}
BENCHMARK(BM_MiniCCompileOs);

void BM_FaultloadScan(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVosXp);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  swfit::Scanner scanner;
  for (auto _ : state) {
    auto fl = scanner.scan(kernel.pristine_image(), fns);
    benchmark::DoNotOptimize(fl.faults.size());
  }
}
BENCHMARK(BM_FaultloadScan);

void BM_InjectRestore(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  std::size_t i = 0;
  for (auto _ : state) {
    injector.inject(fl.faults[i++ % fl.faults.size()]);
    injector.restore();
  }
}
BENCHMARK(BM_InjectRestore);

/// Inject + execute + restore + execute: on top of the patch cost this
/// realizes the predecode re-decode of the touched slots and the dispatch
/// of the patched/restored window, i.e. the full per-fault-swap overhead a
/// campaign pays.
void BM_InjectRestoreInvalidate(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& f = fl.faults[i++ % fl.faults.size()];
    const auto addr = kernel.api_addr(f.function);
    injector.inject(f);
    benchmark::DoNotOptimize(kernel.machine().call(addr, {0, 0}, 20000).trap);
    injector.restore();
    benchmark::DoNotOptimize(kernel.machine().call(addr, {0, 0}, 20000).trap);
  }
}
BENCHMARK(BM_InjectRestoreInvalidate);

void BM_ApiCallAlloc(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  for (auto _ : state) {
    const auto r = api.rtl_alloc(256);
    benchmark::DoNotOptimize(r.value);
    api.rtl_free(static_cast<std::uint64_t>(r.value));
  }
}
BENCHMARK(BM_ApiCallAlloc);

/// A/B partner of BM_ApiCallAlloc with the obs sink attached: the only live
/// per-call instrumentation in the whole substrate is this one null-check +
/// ApiMetrics::record, so the delta against BM_ApiCallAlloc *is* the
/// observability overhead of an OS API call (everything else is harvested
/// at run boundaries).
void BM_ApiCallAllocObs(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  obs::ApiMetrics sink;
  api.set_metrics(&sink);
  for (auto _ : state) {
    const auto r = api.rtl_alloc(256);
    benchmark::DoNotOptimize(r.value);
    api.rtl_free(static_cast<std::uint64_t>(r.value));
  }
}
BENCHMARK(BM_ApiCallAllocObs);

/// Journal ring append: span begin/end pair per iteration. Bounded ring,
/// no allocation once warm — the cost a controller pays per recorded event.
void BM_JournalAppend(benchmark::State& state) {
  obs::Journal j;
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    j.begin("fault", 1.0, cycle);
    j.end("fault", 2.0, cycle + 1);
    cycle += 2;
  }
  benchmark::DoNotOptimize(j.size());
}
BENCHMARK(BM_JournalAppend);

void BM_ApiCallOpenReadClose(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  kernel.disk().add_file("/bench", std::vector<std::uint8_t>(4096, 7));
  os::OsApi api(kernel);
  api.write_cstr(os::OsApi::kPathSlot, "/bench");
  for (auto _ : state) {
    const auto h = api.nt_open_file(os::OsApi::kPathSlot);
    api.nt_read_file(h.value, 0x150000, 4096);
    api.nt_close(h.value);
  }
}
BENCHMARK(BM_ApiCallOpenReadClose);

/// Dirty a handful of kernel-data pages the way a slot's guest work would,
/// so both reboot benches measure resetting a *used* kernel, not a pristine
/// one (the dirtying itself is a few checked stores — negligible next to
/// either reboot path).
void dirty_kernel(vm::Machine& m) {
  for (std::uint64_t off = 64; off < 4 * vm::Machine::kDirtyPageSize;
       off += vm::Machine::kDirtyPageSize) {
    benchmark::DoNotOptimize(m.write_u64(os::layout::kHeapCtl + off, 1));
  }
}

/// Reference: a full cold reboot per iteration (memset the kernel data
/// region, re-execute heap_init/vm_init on the VM).
void BM_ColdReboot(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  kernel.set_warm_reboot(false);
  for (auto _ : state) {
    dirty_kernel(kernel.machine());
    kernel.reboot();
  }
}
BENCHMARK(BM_ColdReboot);

/// The warm path: replay the recorded boot write-log over only the pages
/// dirtied since the last reboot. The snapshot subsystem's acceptance bar
/// is >= 10x BM_ColdReboot.
void BM_SnapshotRestore(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);  // first boot records the log
  for (auto _ : state) {
    dirty_kernel(kernel.machine());
    kernel.reboot();
  }
}
BENCHMARK(BM_SnapshotRestore);

/// Full cold SUB bring-up: MiniC compile + boot + file set + server start —
/// what every campaign task used to pay before warm-boot snapshots.
void BM_ControllerBuildCold(benchmark::State& state) {
  for (auto _ : state) {
    depbench::Controller ctl(os::OsVersion::kVos2000, "apex");
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
}
BENCHMARK(BM_ControllerBuildCold);

/// Warm SUB bring-up: reconstruct the controller from the shared per-cell
/// snapshot (restore machine state + COW disk + server process image).
void BM_ControllerBuildWarm(benchmark::State& state) {
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  for (auto _ : state) {
    depbench::Controller ctl(snap);
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
}
BENCHMARK(BM_ControllerBuildWarm);

/// What the campaign runner pays instead of BM_ControllerBuildWarm for every
/// fault of a chunk after the first: rewind a used controller to its
/// snapshot (dirty pages + whole kernel data region, COW disk, server
/// process image with shared cache bodies). Each iteration first dirties the
/// kernel and reboots it, as a finished run leaves it; both are sub-µs next
/// to the reset (BM_SnapshotRestore).
void BM_ControllerReset(benchmark::State& state) {
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  depbench::Controller ctl(snap);
  for (auto _ : state) {
    dirty_kernel(ctl.kernel().machine());
    ctl.kernel().reboot();
    ctl.reset({});
    benchmark::DoNotOptimize(ctl.kernel().ticks());
  }
}
BENCHMARK(BM_ControllerReset);

/// The content layer on its own: a warm apex serves a dynamic GET of the
/// largest class-3 file from its in-process cache (no guest code runs), and
/// the client validates the body. This is the host cost of producing and
/// checking response bytes that every campaign request pays.
void BM_ServeDynamicGet(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  const spec::Fileset fileset(kernel.disk());
  const auto server = web::make_server("apex", api);
  if (!server->start()) {
    state.SkipWithError("apex did not start");
    return;
  }
  const spec::FileInfo* largest = nullptr;
  for (const auto idx : fileset.class_members(3)) {
    const auto& f = fileset.files()[idx];
    if (largest == nullptr || f.size > largest->size) largest = &f;
  }
  web::Request req{web::Method::kGet, largest->path, false, ""};
  server->handle(req);  // the static miss fills the cache
  req.dynamic = true;
  for (auto _ : state) {
    const auto resp = server->handle(req);
    const bool ok = spec::SpecClient::validate(req, resp, largest->size);
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError("dynamic GET failed validation");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(largest->size));
}
BENCHMARK(BM_ServeDynamicGet);

/// A populated result store shaped like the one an incremental re-run of
/// the e2e `store_incremental` workload opens: about 8k records of about
/// 5.4 KB. Built once per process in a private temp directory, removed at
/// exit.
class StoreFixture {
 public:
  static constexpr std::uint64_t kRecords = 8192;

  StoreFixture() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "micro-store-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) return;
    dir_ = tmpl;
    store::CampaignStore st(dir_);
    std::vector<std::uint8_t> payload;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      payload.resize(5000 + (i * 37) % 800);
      for (std::size_t b = 0; b < payload.size(); ++b) {
        payload[b] = static_cast<std::uint8_t>(i * 131 + b * 7);
      }
      st.put(key(i), payload);
    }
  }
  ~StoreFixture() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  StoreFixture(const StoreFixture&) = delete;
  StoreFixture& operator=(const StoreFixture&) = delete;

  static store::ResultKey key(std::uint64_t i) {
    return store::KeyBuilder().u64(i).finish();
  }
  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

const StoreFixture& store_fixture() {
  static const StoreFixture fixture;
  return fixture;
}

/// Opening a populated store: map, decode the WAL, verify every payload
/// checksum (in parallel), rebuild the index.
void BM_StoreOpen(benchmark::State& state) {
  const auto& fx = store_fixture();
  if (fx.dir().empty()) {
    state.SkipWithError("cannot create the store directory");
    return;
  }
  for (auto _ : state) {
    const store::CampaignStore st(fx.dir());
    auto records = st.stats().records;
    benchmark::DoNotOptimize(records);
    if (records != StoreFixture::kRecords) {
      state.SkipWithError("store recovered the wrong record count");
      break;
    }
  }
}
// Real time: the verification threads' CPU is not the calling thread's.
BENCHMARK(BM_StoreOpen)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One cache hit: index lookup, pread of the payload, checksum. Keys are
/// visited in a stride that defeats any locality in commit order.
void BM_StoreGet(benchmark::State& state) {
  const auto& fx = store_fixture();
  if (fx.dir().empty()) {
    state.SkipWithError("cannot create the store directory");
    return;
  }
  store::CampaignStore st(fx.dir());
  std::vector<std::uint8_t> payload;
  std::uint64_t i = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    i = (i + 4099) % StoreFixture::kRecords;
    if (!st.get(StoreFixture::key(i), payload)) {
      state.SkipWithError("store get missed");
      break;
    }
    bytes += static_cast<std::int64_t>(payload.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_StoreGet);

void BM_FaultloadSerialize(benchmark::State& state) {
  os::Kernel kernel(os::OsVersion::kVosXp);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  for (auto _ : state) {
    const auto text = fl.serialize();
    auto back = swfit::Faultload::parse(text);
    benchmark::DoNotOptimize(back.faults.size());
  }
}
BENCHMARK(BM_FaultloadSerialize);

}  // namespace

int main(int argc, char** argv) {
  // Report which interpreter lowering this binary was built with — the
  // micro schema (tools/json_check --schema micro) and the A/B comparison
  // need it to interpret BM_VmDispatch* numbers.
  benchmark::AddCustomContext("vm_dispatch", vm::Machine::dispatch_kind());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
