// Tests for the SPECWeb99-like layer: file set, workload generator, metrics
// and the discrete-event client.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "os/api.h"
#include "os/kernel.h"
#include "spec/client.h"

namespace gf::spec {
namespace {

TEST(FilesetTest, PopulatesAllClasses) {
  os::SimDisk disk;
  Fileset fs(disk, {4, 9});
  EXPECT_EQ(fs.files().size(), 4u * 4u * 9u);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(fs.class_members(c).size(), 36u) << c;
  }
}

TEST(FilesetTest, FilesExistOnDiskWithExpectedContent) {
  os::SimDisk disk;
  Fileset fs(disk);
  for (const auto& f : fs.files()) {
    const auto content = disk.content(f.path);
    ASSERT_TRUE(content.has_value()) << f.path;
    ASSERT_EQ(content->size(), f.size);
    const auto seed = web::path_seed(f.path);
    for (std::size_t i = 0; i < content->size(); i += 97) {
      EXPECT_EQ((*content)[i], web::expected_content_byte(seed, i));
    }
  }
}

TEST(FilesetTest, SizesFollowClassRule) {
  EXPECT_EQ(Fileset::file_size(0, 0), 256u);
  EXPECT_EQ(Fileset::file_size(3, 5), 64u * 1024u);
  EXPECT_LT(Fileset::file_size(2, 8), 64u * 1024u);  // fits the body cap
}

TEST(FilesetTest, MeanSizeNearSpecWebScale) {
  os::SimDisk disk;
  Fileset fs(disk);
  // ~14 KiB expected transfer (scaled SPECWeb99); the timing model is
  // calibrated around this value.
  EXPECT_GT(fs.mean_file_size(), 10000.0);
  EXPECT_LT(fs.mean_file_size(), 20000.0);
}

TEST(WorkloadTest, DeterministicForSeed) {
  os::SimDisk disk;
  Fileset fs(disk);
  WorkloadGenerator a(fs, 9), b(fs, 9);
  for (int i = 0; i < 200; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_EQ(ra.path, rb.path);
    EXPECT_EQ(ra.method, rb.method);
    EXPECT_EQ(ra.dynamic, rb.dynamic);
  }
}

TEST(WorkloadTest, MixMatchesSpecWeb) {
  os::SimDisk disk;
  Fileset fs(disk);
  WorkloadGenerator gen(fs, 3);
  int posts = 0, dynamics = 0, statics = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto req = gen.next();
    if (req.method == web::Method::kPost) {
      ++posts;
      EXPECT_FALSE(req.body.empty());
    } else if (req.dynamic) {
      ++dynamics;
    } else {
      ++statics;
    }
  }
  EXPECT_NEAR(statics * 100.0 / n, 70.0, 2.0);
  EXPECT_NEAR(dynamics * 100.0 / n, 25.0, 2.0);
  EXPECT_NEAR(posts * 100.0 / n, 5.0, 1.0);
}

TEST(WorkloadTest, AllPathsExistInFileset) {
  os::SimDisk disk;
  Fileset fs(disk);
  WorkloadGenerator gen(fs, 5);
  for (int i = 0; i < 2000; ++i) {
    const auto req = gen.next();
    EXPECT_GT(gen.size_of(req.path), 0u) << req.path;
  }
}

// The request stream of a fixed seed is pinned by digest (the generator's
// draw order feeds every campaign result), and size_of answers exactly what
// a brute-force search of files() answers, for the stream's paths and for
// paths no document has.
TEST(WorkloadTest, FixedSeedStreamAndSizesMatchBruteForce) {
  auto brute_size = [](const Fileset& fs, const std::string& path) {
    for (const auto& f : fs.files()) {
      if (f.path == path) return f.size;
    }
    return std::size_t{0};
  };
  for (const FilesetConfig cfg : {FilesetConfig{}, FilesetConfig{6, 5}}) {
    os::SimDisk disk;
    const Fileset fs(disk, cfg);
    WorkloadGenerator gen(fs, 21);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    auto mix = [&digest](std::string_view bytes) {
      for (const char c : bytes) {
        digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
    };
    for (int i = 0; i < 1000; ++i) {
      const auto req = gen.next();
      mix(req.method == web::Method::kPost ? "P" : req.dynamic ? "D" : "S");
      mix(req.path);
      mix(std::string_view("\0", 1));
      mix(req.body);
      mix(std::string_view("\0", 1));
      ASSERT_EQ(gen.size_of(req.path), brute_size(fs, req.path)) << req.path;
      ASSERT_GT(gen.size_of(req.path), 0u) << req.path;
    }
    EXPECT_EQ(digest, cfg.num_dirs == 4 ? 0xb5c2c234eec0b327ULL
                                        : 0x9c1bdb3a1a100ff0ULL)
        << std::hex << digest;
    for (const std::string path :
         {"", "/conf/httpd.conf", "/file_set/dir00000/class0_0x",
          "/file_set/dir0000/class0_0", "/file_set/dir00000/class00_0",
          "/file_set/dir00000/class4_0", "/file_set/dir00000/class0_9",
          "/file_set/dir00006/class0_0", "/file_set/dir-0001/class0_0",
          "/file_set/dir00001/class3_", "/file_set/dir99999999999/class0_0",
          "/file_set/dir00003/class3_4", "/file_set/dir00005/class2_8"}) {
      EXPECT_EQ(gen.size_of(path), brute_size(fs, path)) << path;
    }
    for (const auto& f : fs.files()) {
      EXPECT_EQ(gen.size_of(f.path), f.size) << f.path;
    }
  }
}

TEST(WorkloadTest, DirectoryPopularityIsZipf) {
  os::SimDisk disk;
  Fileset fs(disk, {6, 9});
  WorkloadGenerator gen(fs, 13);
  std::map<std::string, int> dir_counts;
  for (int i = 0; i < 20000; ++i) {
    const auto req = gen.next();
    dir_counts[req.path.substr(0, req.path.find_last_of('/'))]++;
  }
  EXPECT_GT(dir_counts["/file_set/dir00000"], dir_counts["/file_set/dir00005"]);
}

TEST(MetricsTest, ConformanceRules) {
  ConnStats good{100, 0, 2000000};  // 2 MB over 30 s -> 533 kbps
  EXPECT_TRUE(is_conforming(good, 30000, 320, 1.0));
  ConnStats slow{100, 0, 500000};  // 133 kbps
  EXPECT_FALSE(is_conforming(slow, 30000, 320, 1.0));
  ConnStats errory{100, 2, 2000000};  // 2% errors
  EXPECT_FALSE(is_conforming(errory, 30000, 320, 1.0));
  ConnStats idle{0, 0, 0};
  EXPECT_FALSE(is_conforming(idle, 30000, 320, 1.0));
}

TEST(MetricsTest, FinalizeComputesRates) {
  WindowMetrics m;
  m.duration_ms = 10000;
  m.ops = 100;
  m.errors = 10;
  finalize_metrics(m, {}, 9000.0, 320, 1.0);
  EXPECT_DOUBLE_EQ(m.thr, 10.0);      // all ops per second
  EXPECT_DOUBLE_EQ(m.rtm_ms, 100.0);  // latency over the 90 successes
  EXPECT_DOUBLE_EQ(m.er_pct, 10.0);
}

TEST(MetricsTest, AverageMetrics) {
  WindowMetrics a, b;
  a.thr = 100;
  b.thr = 110;
  a.spc = 30;
  b.spc = 35;
  a.er_pct = 4;
  b.er_pct = 6;
  const auto avg = average_metrics({a, b});
  EXPECT_DOUBLE_EQ(avg.thr, 105.0);
  EXPECT_EQ(avg.spc, 33);  // rounded
  EXPECT_DOUBLE_EQ(avg.er_pct, 5.0);
  EXPECT_EQ(average_metrics({}).ops, 0u);
}

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : kernel_(os::OsVersion::kVos2000),
        api_(kernel_),
        fileset_(kernel_.disk()),
        gen_(fileset_, 21),
        server_(web::make_server("apex", api_)) {}

  os::Kernel kernel_;
  os::OsApi api_;
  Fileset fileset_;
  WorkloadGenerator gen_;
  std::unique_ptr<web::WebServer> server_;
};

TEST_F(ClientTest, BaselineRunHasNoErrors) {
  ASSERT_TRUE(server_->start());
  SpecClient client;
  const auto m = client.run_window(*server_, gen_, 0, 20000);
  EXPECT_GT(m.ops, 1000u);
  EXPECT_EQ(m.errors, 0u);
  EXPECT_GT(m.thr, 50.0);
  EXPECT_GT(m.rtm_ms, 100.0);
  EXPECT_EQ(m.spc, client.config().connections);
}

TEST_F(ClientTest, DeterministicForSameSeed) {
  ASSERT_TRUE(server_->start());
  SpecClient client;
  WorkloadGenerator g1(fileset_, 77), g2(fileset_, 77);
  const auto m1 = client.run_window(*server_, g1, 0, 10000);
  server_->stop();
  kernel_.reboot();
  ASSERT_TRUE(server_->start());
  const auto m2 = client.run_window(*server_, g2, 0, 10000);
  EXPECT_EQ(m1.ops, m2.ops);
  EXPECT_EQ(m1.errors, m2.errors);
  EXPECT_EQ(m1.bytes, m2.bytes);
}

TEST_F(ClientTest, TickCallbackObservesSimTime) {
  ASSERT_TRUE(server_->start());
  SpecClient client;
  double last = -1;
  bool monotone = true;
  const auto m = client.run_window(*server_, gen_, 0, 5000, [&](double now) {
    monotone = monotone && now >= last;
    last = now;
  });
  EXPECT_TRUE(monotone);
  EXPECT_GT(last, 0.0);
  EXPECT_LE(last, m.duration_ms);
}

TEST_F(ClientTest, DownServerProducesErrors) {
  // Never started: every op is refused.
  SpecClient client;
  const auto m = client.run_window(*server_, gen_, 0, 5000);
  EXPECT_EQ(m.ops, m.errors);
  EXPECT_EQ(m.spc, 0);
}

TEST_F(ClientTest, ValidateChecksStatusSizeAndContent) {
  const auto& f = fileset_.files()[0];
  ASSERT_GT(f.size, 18u);
  // Sampled validation: the first and last bytes plus every 17th byte are
  // checked, nothing between them. A full compare would flag bodies the
  // sampled check accepts and so change ER% for the same faults.
  for (const bool dynamic : {false, true}) {
    SCOPED_TRACE(dynamic ? "dynamic GET" : "static GET");
    web::Request req{web::Method::kGet, f.path, dynamic, ""};
    web::Response good{200, web::expected_body(f.path, f.size, dynamic)};
    EXPECT_TRUE(SpecClient::validate(req, good, f.size));
    web::Response bad_status{500, good.body};
    EXPECT_FALSE(SpecClient::validate(req, bad_status, f.size));
    web::Response short_body{200, {good.body.begin(), good.body.end() - 1}};
    EXPECT_FALSE(SpecClient::validate(req, short_body, f.size));
    auto corrupt_at = [&](std::size_t i) {
      web::Response r = good;
      r.body[i] ^= 0xFF;
      return r;
    };
    EXPECT_FALSE(SpecClient::validate(req, corrupt_at(0), f.size));
    EXPECT_TRUE(SpecClient::validate(req, corrupt_at(1), f.size));
    EXPECT_FALSE(SpecClient::validate(req, corrupt_at(17), f.size));
    EXPECT_FALSE(SpecClient::validate(req, corrupt_at(f.size - 1), f.size));
  }
}

TEST_F(ClientTest, HigherLoadDoesNotLowerThroughputBelowCapacity) {
  ASSERT_TRUE(server_->start());
  ClientConfig c1;
  c1.connections = 10;
  const auto low = SpecClient(c1).run_window(*server_, gen_, 0, 15000);
  server_->stop();
  kernel_.reboot();
  ASSERT_TRUE(server_->start());
  ClientConfig c2;
  c2.connections = 30;
  const auto high = SpecClient(c2).run_window(*server_, gen_, 0, 15000);
  EXPECT_GT(high.thr, low.thr);
}

}  // namespace
}  // namespace gf::spec
