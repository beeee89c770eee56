// Tests for the warm-boot snapshot subsystem: dirty-page tracking and
// snapshot/restore at the VM layer, boot-replay equivalence at the kernel
// layer, copy-on-write disk isolation, scan memoization, and the headline
// property — campaign results bit-identical with snapshots on or off, for
// any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "depbench/controller.h"
#include "depbench/runner.h"
#include "isa/assembler.h"
#include "minic/compiler.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "snapshot/warmboot.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "vm/machine.h"

namespace gf {
namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

void expect_same_machine_state(const vm::Machine::State& a,
                               const vm::Machine::State& b) {
  EXPECT_TRUE(a.mem == b.mem) << "memory images differ";
  EXPECT_TRUE(a.regs == b.regs) << "registers differ";
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

// ---------------------------------------------------------------------------
// VM layer: dirty pages, snapshot/restore, write capture
// ---------------------------------------------------------------------------

TEST(MachineSnapshotTest, CheckedWritesMarkPagesDirty) {
  vm::Machine m;
  const auto base = m.snapshot();  // establish a clean baseline
  EXPECT_FALSE(m.page_dirty(0x2000));

  ASSERT_TRUE(m.write_u64(0x2000, 0xDEADBEEFULL));
  EXPECT_TRUE(m.page_dirty(0x2000));
  EXPECT_FALSE(m.page_dirty(0x3000));

  // A write spanning a page boundary dirties both pages.
  const std::uint8_t buf[16] = {1, 2, 3, 4};
  ASSERT_TRUE(m.write_bytes(0x3FF8, buf, sizeof buf));
  EXPECT_TRUE(m.page_dirty(0x3000));
  EXPECT_TRUE(m.page_dirty(0x4000));

  m.restore(base);
  EXPECT_FALSE(m.page_dirty(0x2000));
  EXPECT_FALSE(m.page_dirty(0x3000));
  std::uint64_t v = 1;
  ASSERT_TRUE(m.read_u64(0x2000, v));
  EXPECT_EQ(v, 0u);
}

TEST(MachineSnapshotTest, RestoreRevertsExactlyToSnapshot) {
  vm::Machine m;
  ASSERT_TRUE(m.write_u64(0x8000, 42));
  m.set_reg(3, -7);
  const auto base = m.snapshot();

  ASSERT_TRUE(m.write_u64(0x8000, 99));
  ASSERT_TRUE(m.write_u64(0x20000, 123));
  m.set_reg(3, 1);
  m.set_cmp_flags(1);
  m.restore(base);

  expect_same_machine_state(m.snapshot(), base);
}

TEST(MachineSnapshotTest, WriteCaptureRecordsEveryCheckedWrite) {
  vm::Machine m;
  m.begin_write_capture();
  ASSERT_TRUE(m.write_u8(0x2000, 7));
  ASSERT_TRUE(m.write_u64(0x2008, 0x0102030405060708ULL));
  const auto spans = m.end_write_capture();

  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].addr, 0x2000u);
  ASSERT_EQ(spans[0].bytes.size(), 1u);
  EXPECT_EQ(spans[0].bytes[0], 7u);
  EXPECT_EQ(spans[1].addr, 0x2008u);
  EXPECT_EQ(spans[1].bytes.size(), 8u);
}

// Guest stores (St, StB, Push, Call) into pages that are already dirty
// take the dispatch loop's inline store path; a capture in progress must
// still see every one of them.
TEST(MachineSnapshotTest, GuestStoresIntoDirtyPagesAreCaptured) {
  const auto img = isa::assemble(R"(
    f:
      movi r3, 0x100000
      st [r3], r1
      stb [r3, 16], r2
      push r1
      pop r4
      call @g
    back:
      ret
    g:
      ret
  )", "t", 0x1000);
  vm::Machine m;
  m.load_image(img);
  const auto f = img.find_symbol("f")->addr;
  // A first run dirties the data and stack pages the second run stores to.
  ASSERT_TRUE(m.call(f, {0x1111, 0x22}, 1000).ok());
  const std::uint64_t top = m.mem_size();
  ASSERT_TRUE(m.page_dirty(0x100000));
  ASSERT_TRUE(m.page_dirty(top - 16));

  m.begin_write_capture();
  ASSERT_TRUE(m.call(f, {0x3333, 0x44}, 1000).ok());
  const auto spans = m.end_write_capture();

  auto u64 = [](const vm::WriteSpan& w) {
    std::uint64_t v = 0;
    EXPECT_EQ(w.bytes.size(), 8u);
    std::memcpy(&v, w.bytes.data(), std::min<std::size_t>(8, w.bytes.size()));
    return v;
  };
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].addr, top - 8);  // call()'s sentinel return address
  EXPECT_EQ(u64(spans[0]), vm::Machine::kReturnSentinel);
  EXPECT_EQ(spans[1].addr, 0x100000u);  // st
  EXPECT_EQ(u64(spans[1]), 0x3333u);
  EXPECT_EQ(spans[2].addr, 0x100010u);  // stb
  ASSERT_EQ(spans[2].bytes.size(), 1u);
  EXPECT_EQ(spans[2].bytes[0], 0x44u);
  EXPECT_EQ(spans[3].addr, top - 16);  // push
  EXPECT_EQ(u64(spans[3]), 0x3333u);
  EXPECT_EQ(spans[4].addr, top - 16);  // call's return address
  EXPECT_EQ(u64(spans[4]), img.find_symbol("back")->addr);
}

// An 8-byte guest store that starts on a dirty page and ends on a clean one
// must dirty the second page too, so restore reverts both.
TEST(MachineSnapshotTest, GuestStoreCrossingIntoCleanPageIsRestored) {
  const auto img = isa::assemble(R"(
    f:
      st [r1], r2
      ret
  )", "t", 0x1000);
  vm::Machine m;
  m.load_image(img);
  const std::uint64_t pattern = 0x0123456789ABCDEFULL;
  ASSERT_TRUE(m.write_u64(0x100FF8, pattern));
  ASSERT_TRUE(m.write_u64(0x101000, pattern));
  const auto base = m.snapshot();
  const auto f = img.find_symbol("f")->addr;

  ASSERT_TRUE(m.call(f, {0x100010, -1}, 1000).ok());  // dirties page 0x100000
  ASSERT_TRUE(m.page_dirty(0x100000));
  ASSERT_FALSE(m.page_dirty(0x101000));
  ASSERT_TRUE(m.call(f, {0x100FFC, -1}, 1000).ok());  // crosses into 0x101000
  EXPECT_TRUE(m.page_dirty(0x101000));
  std::uint64_t v = 0;
  ASSERT_TRUE(m.read_u64(0x101000, v));
  EXPECT_EQ(v, 0x01234567FFFFFFFFULL);  // low four bytes overwritten

  m.restore(base);
  expect_same_machine_state(m.snapshot(), base);
}

TEST(MachineSnapshotTest, RestoreInvalidatesPredecodedCode) {
  // Two compiles of the same function shape, differing only in an immediate:
  // patching v2's bytes over v1 must change behaviour, and restore() must
  // bring back both the bytes AND the predecoded instructions.
  const auto img1 = minic::compile("fn f(a) { return a + 1; }", "t1", 0x1000);
  const auto img2 = minic::compile("fn f(a) { return a + 2; }", "t2", 0x1000);
  ASSERT_EQ(img1.code().size(), img2.code().size());
  const auto addr = img1.find_symbol("f")->addr;

  vm::Machine m;
  m.load_image(img1);
  const auto base = m.snapshot();
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 6);

  ASSERT_TRUE(m.patch_code(img1.base(), img2.code().data(), img2.code().size()));
  EXPECT_TRUE(m.page_dirty(addr));
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 7);

  m.restore(base);
  EXPECT_EQ(m.call(addr, {5}, 1u << 16).ret, 6);
}

// ---------------------------------------------------------------------------
// Kernel layer: boot replay equivalence, corruption fallback, warm rebuild
// ---------------------------------------------------------------------------

/// Identical guest work on both kernels: dirty some heap/handle state so the
/// next reboot actually has pages to reset.
void exercise_guest(os::Kernel& k) {
  os::OsApi api(k);
  ASSERT_TRUE(api.write_cstr(os::OsApi::kPathSlot, "/conf/httpd.conf"));
  const auto h = api.nt_open_file(os::OsApi::kPathSlot);
  ASSERT_TRUE(h.completed);
  const auto p = api.rtl_alloc(256);
  ASSERT_TRUE(p.ok());
  if (h.value >= 0) api.nt_close(h.value);
}

TEST(KernelReplayTest, ReplayRebootIsBitIdenticalToColdReboot) {
  os::Kernel cold(os::OsVersion::kVos2000);
  cold.set_warm_reboot(false);
  os::Kernel warm(os::OsVersion::kVos2000);
  ASSERT_TRUE(warm.warm_reboot());

  // Construction is a cold boot on both; from here `cold` re-executes the
  // boot code every time while `warm` replays the recorded write log.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    exercise_guest(cold);
    exercise_guest(warm);
    cold.reboot();
    warm.reboot();
    expect_same_machine_state(cold.machine().snapshot(),
                              warm.machine().snapshot());
    EXPECT_EQ(cold.ticks(), warm.ticks());
  }
}

TEST(KernelReplayTest, CorruptedBootCodeFailsLoudlyOnBothPaths) {
  const std::vector<std::uint8_t> garbage(isa::kInstrSize, 0xFF);
  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    os::Kernel k(os::OsVersion::kVos2000);
    k.set_warm_reboot(warm);
    const auto* heap_init = k.pristine_image().find_symbol("heap_init");
    ASSERT_NE(heap_init, nullptr);
    ASSERT_TRUE(
        k.machine().patch_code(heap_init->addr, garbage.data(), garbage.size()));
    // The warm path must detect the mutated boot code, fall back to a real
    // cold boot, and fail exactly like the cold path does.
    EXPECT_THROW(k.reboot(), std::runtime_error);
  }
}

TEST(KernelReplayTest, WarmConstructedKernelResumesExactly) {
  os::Kernel original(os::OsVersion::kVos2000);
  exercise_guest(original);
  auto snap = original.snapshot();

  os::Kernel rebuilt(snap);
  EXPECT_EQ(rebuilt.version(), original.version());
  EXPECT_EQ(rebuilt.ticks(), original.ticks());
  expect_same_machine_state(rebuilt.machine().snapshot(), snap.machine);

  // Both kernels keep working and stay in lockstep through further reboots.
  original.reboot();
  rebuilt.reboot();
  expect_same_machine_state(original.machine().snapshot(),
                            rebuilt.machine().snapshot());
  EXPECT_EQ(original.ticks(), rebuilt.ticks());
}

// ---------------------------------------------------------------------------
// Injector interaction: patches mark pages dirty; restore reverts them
// ---------------------------------------------------------------------------

TEST(InjectorDirtyTest, InjectedPatchIsDirtyTrackedAndRestorable) {
  os::Kernel k(os::OsVersion::kVos2000);
  const auto fl = swfit::Scanner{}.scan(k.pristine_image(), all_api_names());
  ASSERT_FALSE(fl.faults.empty());
  const auto& f = fl.faults.front();
  const auto len = static_cast<std::size_t>(f.window()) * isa::kInstrSize;
  const auto off = static_cast<std::size_t>(f.addr - k.pristine_image().base());
  const auto* pristine = k.pristine_image().code().data() + off;

  auto& m = k.machine();
  const auto base = m.snapshot();
  swfit::Injector inj(k);
  ASSERT_TRUE(inj.inject(f));
  EXPECT_TRUE(m.page_dirty(f.addr));
  EXPECT_NE(std::memcmp(m.raw(f.addr, len), pristine, len), 0);

  // restore() must copy the patched code page back AND re-decode it.
  m.restore(base);
  EXPECT_EQ(std::memcmp(m.raw(f.addr, len), pristine, len), 0);
  EXPECT_FALSE(m.page_dirty(f.addr));
}

// ---------------------------------------------------------------------------
// Copy-on-write disk
// ---------------------------------------------------------------------------

TEST(SimDiskCowTest, CopiesShareContentUntilWritten) {
  os::SimDisk a;
  const int id = a.add_file("/www/file0.html", {'a', 'b', 'c', 'd'});

  os::SimDisk b = a;  // snapshot-style copy: shares the content buffer
  const std::uint8_t patch[2] = {'X', 'Y'};
  ASSERT_TRUE(b.write(id, 1, patch, 2).has_value());

  const auto* ca = a.content("/www/file0.html");
  const auto* cb = b.content("/www/file0.html");
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(*ca, (std::vector<std::uint8_t>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(*cb, (std::vector<std::uint8_t>{'a', 'X', 'Y', 'd'}));

  // Writing through the original afterwards must not leak into the copy.
  const std::uint8_t z = 'z';
  ASSERT_TRUE(a.write(id, 0, &z, 1).has_value());
  EXPECT_EQ((*b.content("/www/file0.html"))[0], 'a');
}

// ---------------------------------------------------------------------------
// Scan memoization
// ---------------------------------------------------------------------------

TEST(ScanCacheTest, RepeatScansHitTheMemo) {
  swfit::clear_scan_cache();
  os::Kernel k(os::OsVersion::kVos2000);
  const auto names = all_api_names();

  const auto first = swfit::Scanner{}.scan(k.pristine_image(), names);
  auto stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  const auto second = swfit::Scanner{}.scan(k.pristine_image(), names);
  stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  ASSERT_EQ(first.faults.size(), second.faults.size());
  for (std::size_t i = 0; i < first.faults.size(); ++i) {
    EXPECT_EQ(first.faults[i].addr, second.faults[i].addr);
    EXPECT_EQ(first.faults[i].type, second.faults[i].type);
  }

  // Different options must key a different entry, not a stale hit.
  swfit::ScanOptions opts;
  opts.max_block = opts.max_block > 1 ? opts.max_block - 1 : 2;
  swfit::Scanner{opts}.scan(k.pristine_image(), names);
  stats = swfit::scan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  swfit::clear_scan_cache();
}

// ---------------------------------------------------------------------------
// Controller / campaign equivalence: the headline property
// ---------------------------------------------------------------------------

namespace db = depbench;

void expect_same_metrics(const spec::WindowMetrics& a,
                         const spec::WindowMetrics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.duration_ms, b.duration_ms);
  EXPECT_DOUBLE_EQ(a.thr, b.thr);
  EXPECT_DOUBLE_EQ(a.rtm_ms, b.rtm_ms);
  EXPECT_DOUBLE_EQ(a.er_pct, b.er_pct);
  EXPECT_EQ(a.spc, b.spc);
  EXPECT_DOUBLE_EQ(a.cc_pct, b.cc_pct);
}

void expect_same_counters(const db::CampaignCounters& a,
                          const db::CampaignCounters& b) {
  EXPECT_EQ(a.mis, b.mis);
  EXPECT_EQ(a.kns, b.kns);
  EXPECT_EQ(a.kcp, b.kcp);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.self_restarts, b.self_restarts);
}

void expect_same_records(const std::vector<trace::ActivationRecord>& a,
                         const std::vector<trace::ActivationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].fault_index, b[i].fault_index);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].function, b[i].function);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].first_hit_cycle, b[i].first_hit_cycle);
    EXPECT_EQ(a[i].edge_count, b[i].edge_count);
    EXPECT_TRUE(a[i].edges == b[i].edges);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
  }
}

TEST(SnapshotEquivalenceTest, WarmControllerIterationMatchesColdBoot) {
  constexpr auto kVersion = os::OsVersion::kVos2000;
  swfit::Faultload fl;
  {
    os::Kernel scan_kernel(kVersion);
    fl = swfit::Scanner{}.scan(scan_kernel.pristine_image(), all_api_names());
  }
  db::ControllerConfig cfg;
  cfg.time_scale = 0.2;
  cfg.fault_stride = 17;
  cfg.trace = true;  // first_hit_cycle is an *absolute* VM cycle: the
                     // strictest observable the warm path could get wrong

  db::Controller cold(kVersion, "apex", cfg);
  const auto want = cold.run_iteration(fl, 42);

  const auto snap = snapshot::capture_warm_boot(kVersion, "apex");
  db::Controller warm(snap, cfg);
  const auto got = warm.run_iteration(fl, 42);

  expect_same_metrics(want.metrics, got.metrics);
  expect_same_counters(want.counters, got.counters);
  expect_same_records(want.activations, got.activations);
}

TEST(SnapshotEquivalenceTest, CampaignIdenticalWithSnapshotsOnOrOffForAnyJobs) {
  db::RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex", "abyssal"};
  opt.iterations = 1;
  opt.stride = 17;
  opt.time_scale = 0.2;
  opt.baseline_window_ms = 15000;
  opt.seed = 42;
  opt.trace = true;

  opt.warm_boot = false;
  opt.jobs = 1;
  const auto cold = db::CampaignRunner(opt).run_campaign();
  opt.warm_boot = true;
  const auto warm1 = db::CampaignRunner(opt).run_campaign();
  opt.jobs = 4;
  const auto warm4 = db::CampaignRunner(opt).run_campaign();

  for (const auto* run : {&warm1, &warm4}) {
    ASSERT_EQ(cold.size(), run->size());
    for (std::size_t c = 0; c < cold.size(); ++c) {
      SCOPED_TRACE(cold[c].os_name + "/" + cold[c].server_name);
      EXPECT_EQ(cold[c].server_name, (*run)[c].server_name);
      expect_same_metrics(cold[c].baseline, (*run)[c].baseline);
      ASSERT_EQ(cold[c].iterations.size(), (*run)[c].iterations.size());
      for (std::size_t i = 0; i < cold[c].iterations.size(); ++i) {
        expect_same_metrics(cold[c].iterations[i].metrics,
                            (*run)[c].iterations[i].metrics);
        expect_same_counters(cold[c].iterations[i].counters,
                             (*run)[c].iterations[i].counters);
        expect_same_records(cold[c].iterations[i].activations,
                            (*run)[c].iterations[i].activations);
      }
    }
  }
}

}  // namespace
}  // namespace gf
