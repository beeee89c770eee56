// Tests for the observability subsystem (src/obs + the campaign wiring):
// primitive semantics (histogram buckets, registry merges, journal ring,
// JSON parser), the campaign determinism contract (merged registry and
// journal byte-identical for any --jobs; fault-indexed counters invariant
// across --chunk), and trace-export integrity (balanced B/E spans,
// monotone timestamps, JSONL round-trip).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "obs/chrome_trace.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "store/store.h"

namespace gf {
namespace {

using obs::json::Value;

// ---------------------------------------------------------------- primitives

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i counts values with bit_width i: 0 -> 0, 1 -> 1, [2,3] -> 2, ...
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  // Values past the covered range land in the last bucket.
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::Histogram::kBuckets - 1);
}

TEST(HistogramTest, ObserveAndMergeAreExactSums) {
  obs::Histogram a;
  a.observe(1);
  a.observe(100);
  obs::Histogram b;
  b.observe(7);

  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.sum, 101u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);

  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 108u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 36.0);
}

TEST(RegistryTest, CountersSumGaugesMax) {
  obs::Registry a;
  a.add("c", 2);
  a.gauge("g", 5);
  obs::Registry b;
  b.add("c", 3);
  b.add("only_b");
  b.gauge("g", 4);

  a.merge(b);
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_EQ(a.gauges().at("g"), 5u);  // max, not sum
  EXPECT_EQ(a.counter("missing"), 0u);
}

TEST(RegistryTest, JsonIsCanonicalAcrossInsertionOrder) {
  obs::Registry a;
  a.add("zeta", 1);
  a.add("alpha", 2);
  a.observe("h", 10);
  obs::Registry b;
  b.observe("h", 10);
  b.add("alpha", 2);
  b.add("zeta", 1);
  EXPECT_EQ(a.to_json(), b.to_json());

  std::string err;
  const auto v = obs::json::parse(a.to_json(), &err);
  ASSERT_TRUE(v) << err;
  ASSERT_TRUE(v->find("counters") != nullptr);
  EXPECT_DOUBLE_EQ(v->find("counters")->find("alpha")->number, 2.0);
  EXPECT_DOUBLE_EQ(v->find("histograms")->find("h")->find("count")->number,
                   1.0);
}

TEST(ApiMetricsTest, ExportSkipsZeroFailureCounters) {
  obs::ApiMetrics m;
  m.record("NtClose", 30, /*ok=*/true, /*crashed=*/false, /*hung=*/false);
  m.record("NtClose", 50, /*ok=*/false, /*crashed=*/false, /*hung=*/false);
  obs::Registry r;
  m.export_into(r);
  EXPECT_EQ(r.counter("api.NtClose.calls"), 2u);
  EXPECT_EQ(r.counter("api.NtClose.errors"), 1u);
  // No crashes/hangs happened, so those keys must not exist at all.
  EXPECT_EQ(r.counters().count("api.NtClose.crashes"), 0u);
  EXPECT_EQ(r.counters().count("api.NtClose.hangs"), 0u);
  EXPECT_EQ(r.histograms().at("api.NtClose.cycles").sum, 80u);
}

TEST(JournalTest, RingDropsOldestAndCountsThem) {
  obs::Journal j(4);
  for (int i = 0; i < 6; ++i) {
    j.instant("e" + std::to_string(i), i, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.dropped(), 2u);
  const auto events = j.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e2");  // oldest survivor first
  EXPECT_EQ(events.back().name, "e5");

  // A wrapped ring announces the loss: a {"truncated": N} head record, then
  // the survivors with seq numbering starting at dropped() so the gap is
  // visible either way.
  std::ostringstream os;
  obs::write_jsonl(os, "t", j);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"truncated\": 2"), std::string::npos) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"seq\": 2"), std::string::npos) << line;
  EXPECT_NE(line.find("e2"), std::string::npos) << line;

  // An unwrapped journal emits no truncation record.
  obs::Journal small(8);
  small.instant("only", 1, 1);
  std::ostringstream os2;
  obs::write_jsonl(os2, "t", small);
  EXPECT_EQ(os2.str().find("truncated"), std::string::npos);
  EXPECT_NE(os2.str().find("\"seq\": 0"), std::string::npos);
}

// --- journal renderer against a printf reference ---------------------------

/// JSON string escaping written out independently of json::escape.
std::string ref_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    char buf[8];
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// The JSONL a journal holding the last `capacity` of `pushed` renders to,
/// one snprintf per line with %.10g for `ms`.
std::string ref_jsonl(const std::string& track, std::size_t capacity,
                      const std::vector<obs::Event>& pushed) {
  const std::size_t dropped =
      pushed.size() > capacity ? pushed.size() - capacity : 0;
  const std::string head = "{\"track\": \"" + ref_escape(track) + "\", ";
  std::string out;
  char buf[160];
  if (dropped > 0) {
    std::snprintf(buf, sizeof buf, "\"truncated\": %zu}\n", dropped);
    out += head + buf;
  }
  for (std::size_t i = dropped; i < pushed.size(); ++i) {
    const auto& e = pushed[i];
    std::snprintf(buf, sizeof buf, "\"seq\": %zu, \"ph\": \"%c\", \"name\": \"",
                  i, obs::phase_letter(e.phase));
    out += head + buf + ref_escape(e.name);
    char ms[32] = "0";  // NaN and inf render as 0
    if (std::isfinite(e.sim_ms)) {
      std::snprintf(ms, sizeof ms, "%.10g", e.sim_ms);
    }
    std::snprintf(buf, sizeof buf, "\", \"ms\": %s, \"cycle\": %llu", ms,
                  static_cast<unsigned long long>(e.cycle));
    out += buf;
    if (!e.args.empty()) out += ", \"args\": " + e.args;
    out += "}\n";
  }
  return out;
}

obs::Journal journal_of(std::size_t capacity,
                        const std::vector<obs::Event>& pushed) {
  obs::Journal j(capacity);
  for (const auto& e : pushed) {
    switch (e.phase) {
      case obs::Phase::kInstant:
        j.instant(e.name, e.sim_ms, e.cycle, e.args);
        break;
      case obs::Phase::kBegin:
        j.begin(e.name, e.sim_ms, e.cycle, e.args);
        break;
      case obs::Phase::kEnd:
        j.end(e.name, e.sim_ms, e.cycle);
        break;
    }
  }
  return j;
}

TEST(JournalRenderTest, EscapesAndNumbersMatchPrintfReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           inf,
                           -inf,
                           -0.0,
                           0.0,
                           5e-324,
                           1e-5,
                           1e-4,
                           1e10,
                           12345678901.0,
                           1.5e300,
                           -2.5,
                           1.0 / 3.0,
                           123.456};
  const std::string names[] = {"plain", "quo\"te", "back\\slash",
                               std::string("nul\0byte", 8), "ctl\x01\x1f\x7f",
                               "nl\ncr\rtab\tbs\bff\f", "utf8 \xc3\xa9"};
  std::vector<obs::Event> pushed;
  std::uint64_t cycle = 0;
  for (const double ms : values) {
    for (const auto& name : names) {
      const auto phase = static_cast<obs::Phase>(pushed.size() % 3);
      pushed.push_back({phase, name, ms, cycle,
                        phase == obs::Phase::kEnd || cycle % 2 == 1
                            ? std::string()
                            : "{\"k\": 1}"});
      cycle = cycle * 3 + 7;
    }
  }
  pushed.push_back({obs::Phase::kInstant, "max", 1, UINT64_MAX, {}});
  const std::string track = "VOS-2000/apex \"q\" \\ \x02/iter0.f1";
  const auto j = journal_of(1024, pushed);

  std::string out = "prefix\n";  // appends, never overwrites
  obs::append_jsonl(out, track, j);
  const auto want = ref_jsonl(track, 1024, pushed);
  EXPECT_EQ(out, "prefix\n" + want);

  std::ostringstream os;
  obs::write_jsonl(os, track, j);
  EXPECT_EQ(os.str(), want);

  // Each line is valid JSON carrying the unescaped strings back.
  std::istringstream lines(want);
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    const auto v = obs::json::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    EXPECT_EQ(v->find("track")->string, track);
    EXPECT_EQ(v->find("name")->string, pushed[i++].name);
  }
  EXPECT_EQ(i, pushed.size());
}

TEST(JournalRenderTest, WrappedRingHasHeadLineAndSeqGap) {
  std::vector<obs::Event> pushed;
  for (int i = 0; i < 11; ++i) {
    pushed.push_back({obs::Phase::kInstant, "e" + std::to_string(i), i * 0.25,
                      static_cast<std::uint64_t>(i), {}});
  }
  // Capacity 4: 7 dropped, survivors e7..e10 with seq 7..10. Check several
  // wrap positions of the ring's write index.
  for (std::size_t n = 5; n <= pushed.size(); ++n) {
    const std::vector<obs::Event> prefix(pushed.begin(), pushed.begin() + n);
    const auto j = journal_of(4, prefix);
    std::string out;
    obs::append_jsonl(out, "t", j);
    EXPECT_EQ(out, ref_jsonl("t", 4, prefix)) << n << " events";
  }
  const auto j = journal_of(4, pushed);
  std::string out;
  obs::append_jsonl(out, "t", j);
  EXPECT_EQ(out.substr(0, out.find('\n')),
            "{\"track\": \"t\", \"truncated\": 7}");
  EXPECT_NE(out.find("\"seq\": 7, \"ph\": \"i\", \"name\": \"e7\""),
            std::string::npos);
  EXPECT_EQ(out.find("\"seq\": 6"), std::string::npos);
}

TEST(JournalTest, ChromeTraceMarksTruncationOnWrappedTracks) {
  obs::Journal j(2);
  for (int i = 0; i < 5; ++i) {
    j.instant("e" + std::to_string(i), i, static_cast<std::uint64_t>(i));
  }
  obs::TaskTrack track;
  track.cell = "c";
  track.label = "l";
  track.tid = 1;
  track.journal = &j;
  const auto trace = obs::chrome_trace_json({track});
  EXPECT_NE(trace.find("journal truncated"), std::string::npos);
  EXPECT_NE(trace.find("{\"truncated\": 3}"), std::string::npos);

  // The truncation instant sits at the first survivor's timestamp, so the
  // track stays monotone and the whole document still validates.
  std::string err;
  EXPECT_TRUE(obs::json::parse(trace, &err)) << err;

  obs::Journal intact(8);
  intact.instant("ok", 1, 1);
  track.journal = &intact;
  EXPECT_EQ(obs::chrome_trace_json({track}).find("truncated"),
            std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformed) {
  std::string err;
  EXPECT_FALSE(obs::json::parse("{\"a\": }", &err));
  EXPECT_FALSE(obs::json::parse("[1, 2", &err));
  EXPECT_FALSE(obs::json::parse("{} trailing", &err));
  // A number a double cannot hold would render as 0: refused.
  EXPECT_FALSE(obs::json::parse("[1e999]", &err));
  EXPECT_EQ(err, "number out of range at byte 1");
  EXPECT_FALSE(obs::json::parse("-1e999", &err));
  EXPECT_EQ(err, "number out of range at byte 0");
  const auto v = obs::json::parse("{\"a\": [1, true, null, \"s\"]}", &err);
  ASSERT_TRUE(v) << err;
  ASSERT_TRUE(v->find("a") != nullptr);
  EXPECT_EQ(v->find("a")->array.size(), 4u);
}

TEST(JsonTest, CountsAreExactUnsignedIntegerLiterals) {
  const auto v = obs::json::parse(
      "[18446744073709551615, 9007199254740993, 18446744073709551616, 7.0, "
      "-1, 1e2, 0]");
  ASSERT_TRUE(v);
  const obs::json::Field f(*v, "x");
  const auto items = f.items();
  EXPECT_EQ(items[0].count(), 18446744073709551615u);
  EXPECT_EQ(items[1].count(), 9007199254740993u);  // past double precision
  for (std::size_t i = 2; i < 6; ++i) {
    try {
      items[i].count();
      ADD_FAILURE() << "accepted " << v->array[i].number;
    } catch (const obs::json::DecodeError& e) {
      EXPECT_EQ(std::string(e.what()),
                "x[" + std::to_string(i) + "]: expected unsigned integer");
    }
  }
  EXPECT_EQ(items[6].count<int>(), 0);
  EXPECT_THROW(items[1].count<int>(), obs::json::DecodeError);
}

// ------------------------------------------------------- campaign contracts

depbench::RunnerOptions obs_options() {
  depbench::RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 2;
  opt.stride = 31;
  opt.time_scale = 0.05;
  opt.baseline_window_ms = 2000;
  opt.seed = 7;
  opt.obs = true;
  opt.trace = true;
  return opt;
}

std::string journal_text(const depbench::CampaignObs& obs) {
  std::ostringstream os;
  depbench::write_campaign_journal(os, obs);
  return os.str();
}

TEST(CampaignObsTest, MetricsIdenticalAcrossJobs) {
  auto opt = obs_options();
  opt.jobs = 1;
  depbench::CampaignRunner sequential(opt);
  sequential.run_campaign();
  opt.jobs = 8;
  depbench::CampaignRunner parallel(opt);
  parallel.run_campaign();

  const auto* a = sequential.campaign_obs();
  const auto* b = parallel.campaign_obs();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(a->metrics.empty());
  // The whole contract in one comparison: canonical rendering of the merged
  // registry and the slot-ordered journal are byte-identical.
  EXPECT_EQ(a->metrics.to_json(), b->metrics.to_json());
  EXPECT_EQ(journal_text(*a), journal_text(*b));
}

TEST(CampaignObsTest, ShardInvariantCounters) {
  auto opt = obs_options();
  opt.chunk = 0;
  depbench::CampaignRunner adaptive(opt);
  adaptive.run_campaign();
  opt.chunk = 1;
  depbench::CampaignRunner single(opt);
  single.run_campaign();

  const auto& a = adaptive.campaign_obs()->metrics;
  const auto& b = single.campaign_obs()->metrics;
  // Chunking repartitions the same fault indices, so everything keyed by
  // fault index must not move.
  for (const char* key :
       {"campaign.faults_injected", "inject.patches", "inject.restores",
        "inject.verifies", "trace.records"}) {
    EXPECT_EQ(a.counter(key), b.counter(key)) << key;
  }
  EXPECT_GT(a.counter("campaign.faults_injected"), 0u);
  EXPECT_EQ(a.counter("inject.verify_failures"), 0u);
}

// Every run folds its registry and API sink into the campaign's at its run
// boundary: afterwards no slot holds either, whether its run executed
// (fresh), came from the store (all-hit resume) or both (a partly cached
// rerun), and the merged registry equals the jobs=1 reference at chunk 1
// and 3.
TEST(CampaignObsTest, RunsFoldAtTheirBoundaryForAnyHitPattern) {
  auto base = obs_options();
  base.jobs = 1;
  depbench::CampaignRunner reference_runner(base);
  reference_runner.run_campaign();
  const auto reference = reference_runner.campaign_obs()->metrics.to_json();

  auto store_dir = [](const std::string& name) {
    const auto dir = ::testing::TempDir() + "gfobs_fold_" + name;
    std::remove((dir + "/segment.gfs").c_str());
    std::remove((dir + "/wal.gfj").c_str());
    return dir;
  };
  // Fills a fresh store with a jobs=1 campaign of `iterations`.
  auto populate = [&](const std::string& dir, int iterations) {
    store::CampaignStore st(dir);
    auto opt = base;
    opt.iterations = iterations;
    opt.store = &st;
    depbench::CampaignRunner(opt).run_campaign();
  };
  // One campaign at jobs 3 and `chunk` against `st` (or none); returns
  // its store traffic.
  auto check = [&](const char* what, int chunk, store::CampaignStore* st) {
    SCOPED_TRACE(std::string(what) + ", chunk " + std::to_string(chunk));
    auto opt = base;
    opt.jobs = 3;
    opt.chunk = chunk;
    opt.store = st;
    depbench::CampaignRunner runner(opt);
    runner.run_campaign();
    const auto* obs = runner.campaign_obs();
    EXPECT_NE(obs, nullptr);
    if (obs == nullptr) return store::StoreStats{};
    EXPECT_EQ(obs->metrics.to_json(), reference);
    EXPECT_FALSE(obs->tasks.empty());
    for (const auto& slot : obs->tasks) {
      EXPECT_TRUE(slot.obs.metrics.empty()) << slot.cell << "/" << slot.label;
      EXPECT_TRUE(slot.obs.api.functions.empty())
          << slot.cell << "/" << slot.label;
    }
    return st != nullptr ? *runner.store_stats() : store::StoreStats{};
  };

  const auto all_hit_dir = store_dir("all_hit");
  populate(all_hit_dir, base.iterations);
  for (const int chunk : {1, 3}) {
    check("fresh", chunk, nullptr);

    store::CampaignStore all_hit(all_hit_dir);
    const auto resumed = check("all-hit resume", chunk, &all_hit);
    EXPECT_EQ(resumed.misses, 0u);
    EXPECT_GT(resumed.hits, 0u);

    // The store holds the baseline and the first iteration only.
    const auto partly_dir = store_dir("partly");
    populate(partly_dir, 1);
    store::CampaignStore partly(partly_dir);
    const auto rerun = check("partly cached rerun", chunk, &partly);
    EXPECT_GT(rerun.hits, 0u);
    EXPECT_GT(rerun.misses, 0u);
  }
}

TEST(CampaignObsTest, TraceExportIntegrity) {
  auto opt = obs_options();
  depbench::CampaignRunner runner(opt);
  runner.run_campaign();
  const auto* obs = runner.campaign_obs();
  ASSERT_NE(obs, nullptr);

  // Every journal line must round-trip through the strict parser.
  std::istringstream lines(journal_text(*obs));
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    std::string err;
    const auto v = obs::json::parse(line, &err);
    ASSERT_TRUE(v) << "line " << n_lines << ": " << err;
    EXPECT_TRUE(v->find("track") != nullptr);
    EXPECT_TRUE(v->find("ph") != nullptr);
  }
  EXPECT_GT(n_lines, 0u);

  // The Chrome trace must be well-formed: every event carries ph/name/pid/
  // tid, timestamps are monotone per (pid, tid) track, and B/E spans nest.
  std::string err;
  const auto trace = obs::json::parse(depbench::campaign_chrome_trace(*obs),
                                      &err);
  ASSERT_TRUE(trace) << err;
  const auto* events = trace->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->type == Value::Type::kArray);
  EXPECT_GT(events->array.size(), 0u);

  std::map<std::string, std::pair<long, double>> track;  // depth, last ts
  for (const auto& e : events->array) {
    ASSERT_EQ(e.type, Value::Type::kObject);
    const auto* ph = e.find("ph");
    ASSERT_TRUE(ph != nullptr && ph->type == Value::Type::kString);
    ASSERT_TRUE(e.find("name") != nullptr);
    ASSERT_TRUE(e.find("pid") != nullptr);
    ASSERT_TRUE(e.find("tid") != nullptr);
    if (ph->string == "M") continue;
    const auto* ts = e.find("ts");
    ASSERT_TRUE(ts != nullptr && ts->type == Value::Type::kNumber);
    const auto key = obs::json::number(e.find("pid")->number) + "/" +
                     obs::json::number(e.find("tid")->number);
    auto& [depth, last] = track[key];
    EXPECT_GE(ts->number, last) << "track " << key;
    last = ts->number;
    if (ph->string == "B") ++depth;
    if (ph->string == "E") {
      ASSERT_GT(depth, 0) << "unmatched E on track " << key;
      --depth;
    }
  }
  for (const auto& [key, st] : track) {
    EXPECT_EQ(st.first, 0) << "unclosed span on track " << key;
  }
}

}  // namespace
}  // namespace gf
