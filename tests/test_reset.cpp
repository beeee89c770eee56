// Tests for controller reuse: Kernel::reset_to and Controller::reset must
// leave a warm SUB indistinguishable from one freshly built from the same
// snapshot, whatever ran on it before — the property that lets the campaign
// runner keep one controller per chunk instead of building one per fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/reuse.h"
#include "depbench/controller.h"
#include "os/api.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "snapshot/warmboot.h"
#include "swfit/scanner.h"
#include "testutil_seed.h"

namespace gf {
namespace {

std::vector<std::string> all_api_names() {
  std::vector<std::string> names;
  for (const auto& f : os::api_functions()) names.emplace_back(f.name);
  return names;
}

/// Guest work that allocates, opens a handle and writes the disk file `path`.
void exercise_guest(os::Kernel& k, const char* path) {
  os::OsApi api(k);
  ASSERT_TRUE(api.write_cstr(os::OsApi::kPathSlot, path));
  const auto h = api.nt_create_file(os::OsApi::kPathSlot);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(api.rtl_alloc(512).ok());
  ASSERT_TRUE(api.nt_write_file(h.value, os::OsApi::kPathSlot, 8).ok());
  api.nt_close(h.value);
}

TEST(KernelResetTest, ResetAfterRebootsMatchesAFreshWarmKernel) {
  // A snapshot taken after guest work, like the warm-boot capture: its
  // kernel data region holds more than the post-boot state (here an open
  // handle, like a started server's log file).
  os::Kernel original(os::OsVersion::kVos2000);
  {
    os::OsApi api(original);
    ASSERT_TRUE(api.write_cstr(os::OsApi::kPathSlot, "/tmp/captured.tmp"));
    ASSERT_TRUE(api.nt_create_file(os::OsApi::kPathSlot).ok());
  }
  const auto snap = original.snapshot();

  // Compared through state_digest(): Machine::snapshot() would reset the
  // dirty baseline the reset depends on.
  os::Kernel reused(snap);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    // A run may reboot (an administrator restart), which replays the boot
    // over the data region; the reset must still bring the region back to
    // the snapshot.
    exercise_guest(reused, "/tmp/run.tmp");
    reused.reboot();
    reused.reset_to(snap);

    os::Kernel fresh(snap);
    EXPECT_EQ(reused.machine().state_digest(), fresh.machine().state_digest());
    EXPECT_EQ(reused.ticks(), fresh.ticks());
    EXPECT_EQ(reused.disk().file_count(), fresh.disk().file_count());
    EXPECT_FALSE(reused.disk().find("/tmp/run.tmp").has_value());

    // ... and a reboot straight after the reset (an immediate administrator
    // restart) must re-zero the whole region, open handle included.
    fresh.reboot();
    reused.reboot();
    EXPECT_EQ(reused.machine().state_digest(), fresh.machine().state_digest());
  }
}

/// The indices of the pages in [lo, hi) for which page_dirty holds.
std::set<std::size_t> dirty_pages(const vm::Machine& m, std::size_t lo = 0,
                                  std::size_t hi = SIZE_MAX) {
  constexpr std::uint64_t kPage = vm::Machine::kDirtyPageSize;
  std::set<std::size_t> pages;
  for (std::size_t p = lo; p < hi && p * kPage < m.mem_size(); ++p) {
    if (m.page_dirty(p * kPage)) pages.insert(p);
  }
  return pages;
}

// A rewind costs only what the run wrote, and a reboot rewrites only the
// data-region pages that can hold a non-zero byte: those the snapshot lists
// and those the boot writes. Exact counts, so an over-eager reset or reboot
// (re-marking the whole region) fails.
TEST(ResetDirtyCountTest, RewindAndRebootDirtyOnlyPagesThatCanBeNonZero) {
  namespace lay = os::layout;
  constexpr std::uint64_t kPage = vm::Machine::kDirtyPageSize;
  const auto snap = snapshot::capture_warm_boot(os::OsVersion::kVos2000, "apex");
  const auto& ks = snap->kernel;
  const std::size_t lo = lay::kHeapCtl / kPage, hi = lay::kScratch / kPage;
  std::set<std::size_t> can_be_non_zero;  // data-region pages only
  for (const auto p : ks.machine.pages) {
    if (p >= lo && p < hi) can_be_non_zero.insert(p);
  }
  ASSERT_NE(ks.boot, nullptr);
  for (const auto& w : ks.boot->writes) {
    for (auto p = w.addr / kPage; p <= (w.addr + w.bytes.size() - 1) / kPage; ++p) {
      if (p >= lo && p < hi) can_be_non_zero.insert(static_cast<std::size_t>(p));
    }
  }

  os::Kernel built(ks);
  EXPECT_EQ(dirty_pages(built.machine()).size(), 0u);
  built.reboot();
  EXPECT_EQ(dirty_pages(built.machine(), lo, hi), can_be_non_zero);

  os::Kernel reused(ks);
  exercise_guest(reused, "/tmp/run.tmp");
  reused.reset_to(ks);
  EXPECT_EQ(dirty_pages(reused.machine()).size(), 0u);
  reused.reboot();
  EXPECT_EQ(dirty_pages(reused.machine(), lo, hi), can_be_non_zero);
}

TEST(KernelResetTest, RefusesAnotherVersionsSnapshot) {
  os::Kernel xp(os::OsVersion::kVosXp);
  const auto snap = xp.snapshot();
  os::Kernel k2000(os::OsVersion::kVos2000);
  EXPECT_THROW(k2000.reset_to(snap), std::invalid_argument);
}

TEST(ControllerResetTest, ColdBuiltControllerRefusesReset) {
  depbench::Controller cold(os::OsVersion::kVos2000, "abyssal");
  EXPECT_THROW(cold.reset({}), std::logic_error);
}

// The reuse-order oracle on every server: faults that make the monitor
// intervene (reboots, admin restarts, apex self-restarts), faults that leave
// disk writes, and benign ones, run once each on a fresh controller and then
// shuffled on one reset controller with obs, tracing and profiling on. The
// encoded run records must match byte for byte.
struct ServerCase {
  const char* server;
  os::OsVersion version;
  std::size_t stride;  ///< pool = every stride-th fault of the full faultload
};

class ReuseOrderTest : public ::testing::TestWithParam<ServerCase> {};

/// The body of a GET of every file-set file, served by a controller built
/// from `snap` (a clone of its server image).
std::vector<std::vector<std::uint8_t>> bodies_served_from(
    const std::shared_ptr<const snapshot::WarmSnapshot>& snap) {
  depbench::Controller ctl(snap);
  std::vector<std::vector<std::uint8_t>> bodies;
  for (const auto& f : snap->fileset.files()) {
    const auto resp = ctl.server().handle({web::Method::kGet, f.path, false, ""});
    EXPECT_EQ(resp.status, 200) << f.path;
    bodies.push_back(resp.body);
  }
  return bodies;
}

TEST_P(ReuseOrderTest, ResetControllerMatchesFreshPerFault) {
  const auto& c = GetParam();
  const auto seed = testutil::test_seed(0x5EEDBA5Eu);
  SCOPED_TRACE(testutil::seed_banner(seed));

  swfit::Faultload fl;
  {
    os::Kernel scan_kernel(c.version);
    fl = swfit::Scanner{}.scan(scan_kernel.pristine_image(), all_api_names());
  }
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < fl.faults.size(); i += c.stride) pool.push_back(i);

  const auto snap = snapshot::capture_warm_boot(c.version, c.server);
  const auto bodies_before = bodies_served_from(snap);

  depbench::ControllerConfig cfg;
  cfg.connections = std::string(c.server) == "apex" ? 37 : 34;
  cfg.time_scale = 0.02;
  cfg.trace = true;
  cfg.profile_stride = 2048;
  const auto runs = check::run_reuse_order(snap, fl, pool, cfg, 42, seed);

  int interventions = 0, disk_writers = 0, benign = 0;
  for (const auto& r : runs) {
    SCOPED_TRACE("fault " + std::to_string(r.fault_index));
    EXPECT_TRUE(r.fresh == r.reused) << "reset controller diverged";
    const bool intervened = r.counters.admf() > 0 || r.counters.self_restarts > 0;
    interventions += intervened ? 1 : 0;
    benign += intervened ? 0 : 1;
    disk_writers += r.disk_written ? 1 : 0;
  }
  // The pool must exercise every state a reset has to undo.
  EXPECT_GT(interventions, 0);
  EXPECT_GT(disk_writers, 0);
  EXPECT_GT(benign, 0);

  // Cached response bodies are shared with the snapshot, never mutated: a
  // server cloned from its image still answers every file with the bytes
  // it answered before the runs.
  EXPECT_EQ(bodies_served_from(snap), bodies_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllServers, ReuseOrderTest,
    ::testing::Values(ServerCase{"apex", os::OsVersion::kVos2000, 7},
                      ServerCase{"abyssal", os::OsVersion::kVos2000, 29},
                      ServerCase{"sambar", os::OsVersion::kVosXp, 31},
                      ServerCase{"savant", os::OsVersion::kVosXp, 31}),
    [](const auto& info) { return std::string(info.param.server); });

}  // namespace
}  // namespace gf
