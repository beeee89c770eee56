// Tests for the HTTP model and the four benchmark-target web servers,
// including their differentiated behaviour under injected OS faults.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "os/api.h"
#include "os/kernel.h"
#include "spec/client.h"
#include "spec/fileset.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "web/server.h"

namespace gf::web {
namespace {

TEST(Http, PathSeedIsStable) {
  EXPECT_EQ(path_seed("/a"), path_seed("/a"));
  EXPECT_NE(path_seed("/a"), path_seed("/b"));
}

TEST(Http, ExpectedBodyDeterministic) {
  const auto a = expected_body("/x", 64, false);
  const auto b = expected_body("/x", 64, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
}

TEST(Http, DynamicTransformIsInvolution) {
  for (int b = 0; b < 256; ++b) {
    const auto x = static_cast<std::uint8_t>(b);
    EXPECT_EQ(dynamic_transform(dynamic_transform(x)), x);
  }
}

TEST(Http, DynamicBodyDiffersFromStatic) {
  EXPECT_NE(expected_body("/x", 16, true), expected_body("/x", 16, false));
}

// The whole-buffer helpers must equal the per-byte definitions at every
// length around the vector widths and from an unaligned start.
TEST(Http, BulkFormsEqualPerByteDefinition) {
  const std::uint64_t seed = path_seed("/file_set/dir00000/class3_0");
  for (const std::size_t len : {0, 1, 15, 16, 17, 31, 32, 33, 4097}) {
    for (const std::size_t start : {0, 1}) {
      SCOPED_TRACE(testing::Message() << "len " << len << " start " << start);
      std::vector<std::uint8_t> buf(start + len, 0xEE);
      const std::span<std::uint8_t> out(buf.data() + start, len);
      fill_expected(seed, out);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], expected_content_byte(seed, i)) << i;
      }
      dynamic_transform(out);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], dynamic_transform(expected_content_byte(seed, i))) << i;
      }
      if (start > 0) {
        EXPECT_EQ(buf[0], 0xEE);  // nothing before the span
      }
    }
  }
}

class ServerTest : public ::testing::TestWithParam<const char*> {
 protected:
  ServerTest()
      : kernel_(os::OsVersion::kVos2000),
        api_(kernel_),
        fileset_(kernel_.disk()),
        server_(make_server(GetParam(), api_)) {}

  os::Kernel kernel_;
  os::OsApi api_;
  spec::Fileset fileset_;
  std::unique_ptr<WebServer> server_;
};

INSTANTIATE_TEST_SUITE_P(AllServers, ServerTest,
                         ::testing::Values("apex", "abyssal", "sambar",
                                           "savant"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(ServerTest, StartsOnHealthyOs) {
  EXPECT_TRUE(server_->start());
  EXPECT_EQ(server_->state(), ServerState::kRunning);
  server_->stop();
  EXPECT_EQ(server_->state(), ServerState::kStopped);
}

TEST_P(ServerTest, ServesEveryFilesetFileCorrectly) {
  ASSERT_TRUE(server_->start());
  for (const auto& f : fileset_.files()) {
    const Request req{Method::kGet, f.path, false, ""};
    const auto resp = server_->handle(req);
    ASSERT_EQ(resp.status, 200) << f.path;
    EXPECT_EQ(resp.body, expected_body(f.path, f.size, false)) << f.path;
  }
}

TEST_P(ServerTest, ServesDynamicContent) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[10];
  const Request req{Method::kGet, f.path, true, ""};
  const auto resp = server_->handle(req);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, expected_body(f.path, f.size, true));
}

TEST_P(ServerTest, HandlesPosts) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[3];
  const Request req{Method::kPost, f.path, false, "user=a&pass=b"};
  const auto resp = server_->handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body.size(), 128u);
}

TEST_P(ServerTest, MissingFileIs404) {
  ASSERT_TRUE(server_->start());
  const Request req{Method::kGet, "/no/such/file", false, ""};
  EXPECT_EQ(server_->handle(req).status, 404);
}

TEST_P(ServerTest, RequestsWhileStoppedAre503) {
  const Request req{Method::kGet, "/x", false, ""};
  EXPECT_EQ(server_->handle(req).status, 503);
}

TEST_P(ServerTest, StatsAccumulate) {
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[0];
  server_->handle({Method::kGet, f.path, false, ""});
  server_->handle({Method::kGet, "/missing", false, ""});
  EXPECT_EQ(server_->stats().requests, 2u);
  EXPECT_EQ(server_->stats().ok, 1u);
  EXPECT_EQ(server_->stats().errors, 1u);
}

TEST_P(ServerTest, SurvivesHundredsOfMixedRequests) {
  ASSERT_TRUE(server_->start());
  spec::WorkloadGenerator gen(fileset_, 5);
  for (int i = 0; i < 600; ++i) {
    const auto req = gen.next();
    const auto resp = server_->handle(req);
    ASSERT_EQ(resp.status, 200) << i << " " << req.path;
  }
  EXPECT_EQ(server_->state(), ServerState::kRunning);
}

TEST_P(ServerTest, RestartAfterStopWorks) {
  ASSERT_TRUE(server_->start());
  server_->stop();
  ASSERT_TRUE(server_->start());
  const auto& f = fileset_.files()[0];
  EXPECT_EQ(server_->handle({Method::kGet, f.path, false, ""}).status, 200);
}

// --- warm-boot process images -------------------------------------------------

auto stats_tuple(const ServerStats& s) {
  return std::tuple(s.requests, s.ok, s.errors, s.crashes, s.self_restarts);
}

// A clone taken mid-serve is the whole process: restored into the original
// after it served on (and rebound itself), it answers the continuation
// exactly like the original did from the clone point. The guest side is
// rewound with the kernel snapshot taken at the same point.
class ServerImageTest : public ServerTest {};

INSTANTIATE_TEST_SUITE_P(AllServers, ServerImageTest,
                         ::testing::Values("apex", "abyssal", "sambar",
                                           "savant"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(ServerImageTest, CloneAndRestoreReplayTheContinuation) {
  ASSERT_TRUE(server_->start());
  // Long enough to pass every server's housekeeping and audit periods.
  spec::WorkloadGenerator before(fileset_, 11);
  for (int i = 0; i < 150; ++i) server_->handle(before.next());
  const auto kernel_at_clone = kernel_.snapshot();
  const auto clone = server_->clone(api_);

  spec::WorkloadGenerator gen(fileset_, 12);
  std::vector<Request> reqs;
  std::vector<Response> expected;
  for (int i = 0; i < 150; ++i) {
    reqs.push_back(gen.next());
    expected.push_back(server_->handle(reqs.back()));
  }
  const auto expected_stats = stats_tuple(server_->stats());

  kernel_.reset_to(kernel_at_clone);
  server_->restore_process(*clone);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto resp = server_->handle(reqs[i]);
    ASSERT_EQ(resp.status, expected[i].status) << i << " " << reqs[i].path;
    ASSERT_EQ(resp.body, expected[i].body) << i << " " << reqs[i].path;
  }
  EXPECT_EQ(stats_tuple(server_->stats()), expected_stats);

  kernel_.reset_to(kernel_at_clone);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto resp = clone->handle(reqs[i]);
    ASSERT_EQ(resp.status, expected[i].status) << i << " " << reqs[i].path;
    ASSERT_EQ(resp.body, expected[i].body) << i << " " << reqs[i].path;
  }
  EXPECT_EQ(stats_tuple(clone->stats()), expected_stats);
}

TEST_P(ServerImageTest, RestoreRefusesAnotherServerKindsImage) {
  ASSERT_TRUE(server_->start());
  for (const char* other : {"apex", "abyssal", "sambar", "savant"}) {
    if (std::string(other) == GetParam()) continue;
    SCOPED_TRACE(other);
    const auto foreign = make_server(other, api_)->image();
    EXPECT_THROW(server_->restore_process(*foreign), std::invalid_argument);
    EXPECT_EQ(server_->state(), ServerState::kRunning);  // left untouched
  }
  const auto own = make_server(GetParam(), api_)->image();
  server_->restore_process(*own);
  EXPECT_EQ(server_->state(), ServerState::kStopped);
}

TEST(ServerFactory, RejectsUnknownNames) {
  os::Kernel k(os::OsVersion::kVos2000);
  os::OsApi api(k);
  EXPECT_THROW(make_server("nginx", api), std::invalid_argument);
}

TEST(ServerTraits, OnlyApexSelfRestarts) {
  os::Kernel k(os::OsVersion::kVos2000);
  os::OsApi api(k);
  EXPECT_TRUE(make_server("apex", api)->has_self_restart());
  EXPECT_FALSE(make_server("abyssal", api)->has_self_restart());
  EXPECT_FALSE(make_server("sambar", api)->has_self_restart());
  EXPECT_FALSE(make_server("savant", api)->has_self_restart());
}

// --- behaviour under faults --------------------------------------------------

struct FaultImpact {
  int errors = 0;
  int deaths = 0;
  int hangs = 0;
  int clean_faults = 0;  ///< faults with no client-visible effect at all
  int faults = 0;
};

FaultImpact run_fault_sweep(const char* server_name, int stride) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  spec::Fileset fileset(kernel.disk());
  auto server = make_server(server_name, api);
  std::vector<std::string> fns;
  for (const auto& f : os::api_functions()) fns.emplace_back(f.name);
  const auto fl = swfit::Scanner{}.scan(kernel.pristine_image(), fns);
  swfit::Injector injector(kernel);
  spec::WorkloadGenerator gen(fileset, 11);

  FaultImpact impact;
  for (std::size_t i = 0; i < fl.faults.size(); i += stride) {
    kernel.reboot();
    if (!server->start()) continue;
    // Steady-state warm-up before the fault (campaign conditions: caches
    // and pools are hot when a fault arrives).
    for (int op = 0; op < 120; ++op) server->handle(gen.next());
    if (server->state() != ServerState::kRunning) continue;
    injector.inject(fl.faults[i]);
    ++impact.faults;
    bool any_effect = false;
    for (int op = 0; op < 25; ++op) {
      const auto req = gen.next();
      const auto resp = server->handle(req);
      if (server->state() == ServerState::kCrashed) {
        ++impact.deaths;
        any_effect = true;
        break;
      }
      if (server->state() == ServerState::kHung ||
          server->state() == ServerState::kSpinning) {
        ++impact.hangs;
        any_effect = true;
        break;
      }
      const bool ok =
          spec::SpecClient::validate(req, resp, gen.size_of(req.path));
      impact.errors += !ok;
      any_effect = any_effect || !ok;
    }
    impact.clean_faults += !any_effect;
    injector.restore();
    server->stop();
  }
  return impact;
}

TEST(FaultDifferentiation, ApexIsMoreRobustThanAbyssal) {
  const auto apex = run_fault_sweep("apex", 7);
  const auto abyssal = run_fault_sweep("abyssal", 7);
  // Per-fault structural property: the trusting server dies at least as
  // often as the one with per-request crash containment. (The ER%/ADMf
  // service-level comparison is a campaign property and lives in
  // test_depbench.ApexOutperformsAbyssalUnderFaults.)
  EXPECT_LE(apex.deaths, abyssal.deaths);
  // Faults must actually bite, and some must be tolerated, on both servers.
  EXPECT_GT(abyssal.errors + abyssal.deaths + abyssal.hangs, 0);
  EXPECT_GT(apex.errors + apex.deaths + apex.hangs, 0);
  EXPECT_GT(apex.clean_faults, 0);
  EXPECT_GT(abyssal.clean_faults, 0);
}

TEST(FaultDifferentiation, HarnessSurvivesFullSweepOnEveryServer) {
  for (const char* name : {"sambar", "savant"}) {
    const auto impact = run_fault_sweep(name, 23);
    (void)impact;  // no crash of the host process is the assertion
  }
}

}  // namespace
}  // namespace gf::web
