// Predecode-invalidation coverage at system scale: the injector patches and
// restores VOS code thousands of times per campaign, and the VM's predecoded
// instruction cache must track every patch byte-exactly. These tests run the
// full VOS-2000 faultload through inject/restore and assert that a machine
// that lived through all of it is indistinguishable — traces, return values,
// cycle counts — from one that was never patched.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "os/api.h"
#include "os/kernel.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"

namespace gf::swfit {
namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

/// Drives a fixed API workload and returns (return values, cycles, trace).
/// The trace is a stride-1 sample map: the cycles each pc consumed.
struct Probe {
  std::vector<std::int64_t> values;
  std::uint64_t cycles = 0;
  std::map<std::uint64_t, std::uint64_t> trace;
};

Probe run_probe(os::Kernel& kernel) {
  kernel.machine().arm_sampler(1);
  os::OsApi api(kernel);
  api.write_cstr(os::OsApi::kPathSlot, "/probe");

  Probe p;
  if (!kernel.disk().find("/probe")) {
    kernel.disk().add_file("/probe", std::vector<std::uint8_t>(512, 3));
  }
  const auto start_cycles = kernel.machine().total_cycles();
  const auto mem = api.rtl_alloc(256);
  p.values.push_back(mem.value);
  const auto h = api.nt_open_file(os::OsApi::kPathSlot);
  p.values.push_back(h.value);
  p.values.push_back(api.nt_read_file(h.value, 0x150000, 512).value);
  p.values.push_back(api.nt_close(h.value).value);
  p.values.push_back(api.rtl_free(static_cast<std::uint64_t>(mem.value)).value);
  p.cycles = kernel.machine().total_cycles() - start_cycles;
  kernel.machine().disarm_sampler();
  p.trace = kernel.machine().samples();
  return p;
}

TEST(PredecodeInvalidation, InjectRestoreEveryFaultMatchesNeverPatchedMachine) {
  os::Kernel patched(os::OsVersion::kVos2000);
  os::Kernel reference(os::OsVersion::kVos2000);
  const auto fl = Scanner{}.scan(patched.pristine_image(), all_api_names());
  ASSERT_FALSE(fl.faults.empty());

  Injector injector(patched);
  for (const auto& f : fl.faults) {
    ASSERT_TRUE(injector.inject(f)) << f.function << " @ " << f.addr;
    injector.restore();
  }

  // Byte-exact restore of the active image…
  EXPECT_EQ(patched.active_image().code_digest(),
            patched.pristine_image().code_digest());

  // …and of the VM's executable state: the machine that survived the whole
  // faultload must produce the same return values, the same instruction
  // trace, and burn the same cycles as one that was never patched.
  patched.reboot();
  reference.reboot();
  const auto a = run_probe(patched);
  const auto b = run_probe(reference);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(PredecodeInvalidation, ActiveFaultExecutesMutatedCodePostSyncRange) {
  // The ranged sync must make an injected fault *visible* to the VM, not
  // just restore cleanly: while a fault is active, the probe must diverge
  // from the pristine machine for at least some faults.
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::Kernel reference(os::OsVersion::kVos2000);
  const auto fl = Scanner{}.scan(kernel.pristine_image(), all_api_names());

  kernel.reboot();
  reference.reboot();
  const auto clean = run_probe(reference);

  // Per sample: inject into a freshly-rebooted pristine SUB, probe with the
  // fault live, then restore and reboot (the controller's ordering: restore
  // always precedes the administrator reboot).
  Injector injector(kernel);
  int diverged = 0;
  const std::size_t step = std::max<std::size_t>(1, fl.faults.size() / 40);
  for (std::size_t i = 0; i < fl.faults.size(); i += step) {
    ASSERT_TRUE(injector.inject(fl.faults[i]));
    const auto probe = run_probe(kernel);
    if (probe.values != clean.values || probe.trace != clean.trace) ++diverged;
    injector.restore();
    kernel.reboot();
  }
  EXPECT_GT(diverged, 0);  // faults actually bite through the predecode cache

  // And after the last restore the machine is pristine again.
  kernel.reboot();
  const auto after = run_probe(kernel);
  EXPECT_EQ(after.values, clean.values);
  EXPECT_EQ(after.trace, clean.trace);
}

}  // namespace
}  // namespace gf::swfit
