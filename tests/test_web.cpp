// Tests for the HTTP model and the four benchmark-target web servers,
// including their differentiated behaviour under injected OS faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "isa/isa.h"
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

// --- body cap -------------------------------------------------------------------

// append_body's bound rests on this: no document is longer than kMaxBody, so
// a body of kMaxBody + 1 bytes fails validation whatever its bytes are.
TEST(BodyCap, EveryFilesetFileFitsTheCap) {
  const spec::FilesetConfig cfg;
  for (int c = 0; c < 4; ++c) {
    for (int j = 0; j < cfg.files_per_class; ++j) {
      EXPECT_LE(spec::Fileset::file_size(c, j), kMaxBody) << c << " " << j;
    }
  }
  EXPECT_EQ(spec::Fileset::file_size(3, 0), kMaxBody);
}

struct CapRun {
  std::vector<int> status;
  std::vector<ServerState> state;
  std::vector<bool> valid;
  std::vector<std::vector<std::uint8_t>> body;
  spec::WindowMetrics window;
};

// Serves requests on a VOS-2000 whose NtReadFile returns `count` without
// touching the buffer (a fault that returns a guest address as the byte
// count does this), with the server keeping at most `cap` body bytes.
CapRun serve_with_read_count(const char* name, std::int32_t count, std::size_t cap) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  os::OsApi api(kernel);
  spec::Fileset fileset(kernel.disk());
  auto server = make_server(name, api);
  server->set_body_cap(cap);
  EXPECT_TRUE(server->start());
  const auto at = kernel.api_addr("NtReadFile");
  EXPECT_TRUE(kernel.active_image().patch(at, {isa::Op::kMovI, 0, 0, 0, count}));
  EXPECT_TRUE(kernel.active_image().patch(at + isa::kInstrSize, {isa::Op::kRet}));
  kernel.sync_code(at, 2 * isa::kInstrSize);

  CapRun run;
  const auto& doc = fileset.files()[40];
  // The second static GET of a path is apex's cache hit.
  for (const Request& req : {Request{Method::kGet, doc.path, false, ""},
                             Request{Method::kGet, doc.path, false, ""},
                             Request{Method::kGet, doc.path, true, ""}}) {
    auto resp = server->handle(req);
    run.status.push_back(resp.status);
    run.state.push_back(server->state());
    run.valid.push_back(spec::SpecClient::validate(req, resp, doc.size));
    run.body.push_back(std::move(resp.body));
  }
  spec::WorkloadGenerator gen(fileset, 3);
  spec::ClientConfig client;
  client.connections = 4;
  run.window = spec::SpecClient(client).run_window(*server, gen, 0, 2000);
  return run;
}

void expect_same_outcome(const CapRun& got, const CapRun& ref) {
  EXPECT_EQ(got.status, ref.status);
  EXPECT_EQ(got.state, ref.state);
  EXPECT_EQ(got.valid, ref.valid);
  ASSERT_EQ(got.body.size(), ref.body.size());
  for (std::size_t i = 0; i < got.body.size(); ++i) {
    EXPECT_LE(got.body[i].size(), kMaxBody + 1) << i;
    const auto n = std::min(got.body[i].size(), ref.body[i].size());
    EXPECT_TRUE(std::equal(got.body[i].begin(), got.body[i].begin() + n,
                           ref.body[i].begin()))
        << i;
    if (ref.body[i].size() <= kMaxBody) {
      EXPECT_EQ(got.body[i], ref.body[i]) << i;
    }
  }
  EXPECT_EQ(got.window.ops, ref.window.ops);
  EXPECT_EQ(got.window.errors, ref.window.errors);
  EXPECT_EQ(got.window.bytes, ref.window.bytes);
  EXPECT_EQ(got.window.thr, ref.window.thr);
  EXPECT_EQ(got.window.rtm_ms, ref.window.rtm_ms);
  EXPECT_EQ(got.window.er_pct, ref.window.er_pct);
  EXPECT_EQ(got.window.spc, ref.window.spc);
  EXPECT_EQ(got.window.cc_pct, ref.window.cc_pct);
}

class BodyCapTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllServers, BodyCapTest,
                         ::testing::Values("apex", "abyssal", "sambar",
                                           "savant"),
                         [](const auto& info) { return std::string(info.param); });

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

// A 4 MiB read count leaves at most kMaxBody + 1 body bytes on the host,
// apex's cached copy included, with the unbounded reference's statuses,
// verdicts and window metrics.
TEST_P(BodyCapTest, FourMiBReadCountKeepsTheCap) {
  const std::int32_t count = 4 << 20;
  const auto ref = serve_with_read_count(GetParam(), count, kUnbounded);
  // The reference really served the count, the second time too.
  ASSERT_EQ(ref.body[0].size(), static_cast<std::size_t>(count));
  ASSERT_EQ(ref.body[1].size(), static_cast<std::size_t>(count));
  const auto got = serve_with_read_count(GetParam(), count, kMaxBody + 1);
  EXPECT_EQ(got.body[0].size(), kMaxBody + 1);
  EXPECT_FALSE(got.valid[0]);
  expect_same_outcome(got, ref);
}

// A count running past guest memory still fails as a read through a bad
// pointer, and a zero count still serves an empty body.
TEST_P(BodyCapTest, OutOfRangeAndZeroCountsAreUnchanged) {
  const std::int32_t past = static_cast<std::int32_t>(os::layout::kMemSize);
  const auto ref = serve_with_read_count(GetParam(), past, kUnbounded);
  const auto got = serve_with_read_count(GetParam(), past, kMaxBody + 1);
  if (std::string(GetParam()) != "apex") {  // apex contains it per request
    EXPECT_EQ(got.state[0], ServerState::kCrashed);
  }
  expect_same_outcome(got, ref);
  expect_same_outcome(serve_with_read_count(GetParam(), 0, kMaxBody + 1),
                      serve_with_read_count(GetParam(), 0, kUnbounded));
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
