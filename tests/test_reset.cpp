// Tests for controller reuse: Kernel::reset_to and Controller::reset must
// leave a warm SUB indistinguishable from one freshly built from the same
// snapshot, whatever ran on it before — the property that lets the campaign
// runner keep one controller per chunk instead of building one per fault.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/reuse.h"
#include "depbench/controller.h"
#include "os/api.h"
#include "os/kernel.h"
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
    // A run ends with a scrub reboot, which replays the boot over the data
    // region and clears its dirty bits; the reset must still bring the
    // region back to the snapshot.
    exercise_guest(reused, "/tmp/run.tmp");
    reused.reboot();
    reused.reset_to(snap);

    os::Kernel fresh(snap);
    EXPECT_EQ(reused.machine().state_digest(), fresh.machine().state_digest());
    EXPECT_EQ(reused.ticks(), fresh.ticks());
    EXPECT_EQ(reused.disk().file_count(), fresh.disk().file_count());
    EXPECT_FALSE(reused.disk().find("/tmp/run.tmp").has_value());

    // ... and keep the replay's dirty accounting sound for the next run: a
    // reboot straight after the reset (an immediate administrator restart)
    // must re-zero the whole region, open handle included.
    fresh.reboot();
    reused.reboot();
    EXPECT_EQ(reused.machine().state_digest(), fresh.machine().state_digest());
  }
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
  std::vector<std::vector<std::uint8_t>> bodies_before;
  for (const auto& [path, body] : snap->server.blobs) {
    bodies_before.push_back(*body);
  }

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

  // Cached response bodies are shared with the snapshot, never mutated.
  ASSERT_EQ(snap->server.blobs.size(), bodies_before.size());
  for (std::size_t i = 0; i < bodies_before.size(); ++i) {
    EXPECT_EQ(*snap->server.blobs[i].second, bodies_before[i]);
  }
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
