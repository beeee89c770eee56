// Campaign store tests: key derivation must be injective over the field
// sequence, the run-record codec must be canonical, the WAL+segment commit
// must survive torn tails and detect corruption, and — the load-bearing
// contract — the merged campaign artifacts must be byte-identical for ANY
// cache-hit pattern, including a resume after a mid-campaign SIGKILL.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "depbench/campaign_report.h"
#include "depbench/runner.h"
#include "os/kernel.h"
#include "store/campaign_codec.h"
#include "store/key.h"
#include "store/store.h"
#include "store/wire.h"
#include "swfit/scanner.h"

namespace gf::store {
namespace {

// ------------------------------------------------------------------- keys

TEST(KeyBuilderTest, DeterministicAndHexSpelling) {
  const auto k1 = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  const auto k2 = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1.hex().size(), 32u);
  EXPECT_EQ(k1.hex().find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(KeyBuilderTest, EveryFieldChangesTheKey) {
  const auto base = KeyBuilder().u64(7).str("apex").f64(0.05).finish();
  EXPECT_NE(base, KeyBuilder().u64(8).str("apex").f64(0.05).finish());
  EXPECT_NE(base, KeyBuilder().u64(7).str("abyssal").f64(0.05).finish());
  EXPECT_NE(base, KeyBuilder().u64(7).str("apex").f64(0.06).finish());
}

TEST(KeyBuilderTest, NoConcatenationAmbiguity) {
  // "ab" + "c" and "a" + "bc" concatenate to the same bytes; the length
  // prefix must still separate them.
  const auto a = KeyBuilder().str("ab").str("c").finish();
  const auto b = KeyBuilder().str("a").str("bc").finish();
  EXPECT_NE(a, b);
  // A u64 and the string of its little-endian bytes must not collide either
  // (distinct type tags).
  const auto u = KeyBuilder().u64(0).finish();
  const auto s = KeyBuilder().str(std::string(8, '\0')).finish();
  EXPECT_NE(u, s);
}

TEST(KeyBuilderTest, SignedZeroAndBitPatternsDistinct) {
  EXPECT_NE(KeyBuilder().f64(0.0).finish(), KeyBuilder().f64(-0.0).finish());
}

// ------------------------------------------------------------------ codec

RunRecord sample_record() {
  RunRecord rec;
  rec.cell = "VOS-2000/apex";
  rec.label = "iter0.f12";
  rec.result.counters.mis = 2;
  rec.result.counters.kns = 1;
  rec.result.counters.faults_injected = 3;
  trace::ActivationRecord ar;
  ar.fault_index = 12;
  ar.function = "vos_alloc";
  ar.hits = 5;
  ar.first_hit_cycle = 4242;
  ar.outcome = trace::Outcome::kExternalFailure;
  rec.result.activations.push_back(ar);
  return rec;
}

TEST(RunCodecTest, RoundTripIsCanonical) {
  const auto rec = sample_record();
  const auto bytes = encode_run_record(rec);
  const auto back = decode_run_record(bytes);
  EXPECT_EQ(back.cell, rec.cell);
  EXPECT_EQ(back.label, rec.label);
  EXPECT_EQ(back.has_obs, rec.has_obs);
  EXPECT_EQ(back.result.counters.mis, rec.result.counters.mis);
  ASSERT_EQ(back.result.activations.size(), 1u);
  EXPECT_EQ(back.result.activations[0].function, "vos_alloc");
  EXPECT_EQ(back.result.activations[0].hits, 5u);
  // Canonical: re-encoding the decode reproduces the original bytes.
  EXPECT_EQ(encode_run_record(back), bytes);
}

TEST(RunCodecTest, PeekReadsCellAndLabelOnly) {
  const auto bytes = encode_run_record(sample_record());
  std::string cell, label;
  ASSERT_TRUE(peek_run_meta(bytes, cell, label));
  EXPECT_EQ(cell, "VOS-2000/apex");
  EXPECT_EQ(label, "iter0.f12");
  EXPECT_FALSE(peek_run_meta({}, cell, label));
}

TEST(RunCodecTest, TruncationThrowsWireError) {
  auto bytes = encode_run_record(sample_record());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_run_record(bytes), WireError);
  EXPECT_THROW(decode_run_record({}), WireError);
}

// ------------------------------------------------------------------ store

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gfstore_" + name;
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());
  return dir;
}

std::vector<std::uint8_t> payload_of(const std::string& s) {
  return {s.begin(), s.end()};
}

ResultKey key_of(std::uint64_t n) { return KeyBuilder().u64(n).finish(); }

void append_bytes(const std::string& path, const std::string& junk) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
  std::fclose(f);
}

void flip_byte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

long file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

TEST(CampaignStoreTest, PutGetPersistsAcrossReopen) {
  const auto dir = fresh_dir("reopen");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("one"));
    st.put(key_of(2), payload_of("two-two"));
    st.put(key_of(3), payload_of("three"));
    EXPECT_EQ(st.stats().puts, 3u);
    EXPECT_EQ(st.stats().records, 3u);
  }
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 3u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 0u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("two-two"));
  ASSERT_TRUE(st.get(key_of(3), p));
  EXPECT_EQ(p, payload_of("three"));
  EXPECT_FALSE(st.get(key_of(4), p));
  EXPECT_EQ(st.stats().hits, 2u);
  EXPECT_EQ(st.stats().misses, 1u);
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, LastPutWinsAndGcCompactsDeadVersions) {
  const auto dir = fresh_dir("dupes");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("version-1"));
  st.put(key_of(1), payload_of("version-2!"));
  EXPECT_EQ(st.list().size(), 1u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("version-2!"));

  // Both versions' bytes sit in the segment; gc drops the dead one.
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 19);
  EXPECT_EQ(st.gc(0), 0u);  // no live record dropped
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 10);
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("version-2!"));
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, GcEvictsOldestUnderBudget) {
  const auto dir = fresh_dir("evict");
  CampaignStore st(dir);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    st.put(key_of(i), payload_of("0123456789"));  // 10 bytes each
  }
  EXPECT_EQ(st.gc(20), 2u);  // 40 live bytes, budget 20: drop the 2 oldest
  EXPECT_EQ(st.list().size(), 2u);
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(1), p));
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_TRUE(st.get(key_of(3), p));
  EXPECT_TRUE(st.get(key_of(4), p));
  EXPECT_EQ(st.stats().bytes, 20u);
}

TEST(CampaignStoreTest, TornWalTailIsTruncatedOnOpen) {
  const auto dir = fresh_dir("tornwal");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaa"));
    st.put(key_of(2), payload_of("bbb"));
    st.put(key_of(3), payload_of("ccc"));
  }
  // A garbage "entry" (bad magic) plus a partial tail — the crash left the
  // WAL mid-append.
  append_bytes(dir + "/wal.gfj", std::string(48, '\xff') + "partial");
  {
    CampaignStore st(dir);
    EXPECT_EQ(st.stats().recovered_records, 3u);
    EXPECT_EQ(st.stats().torn_bytes_dropped, 55u);
    std::vector<std::uint8_t> p;
    ASSERT_TRUE(st.get(key_of(3), p));
    EXPECT_EQ(p, payload_of("ccc"));
  }
  // The truncation is durable: a second open sees a clean store.
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 3u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 0u);
}

TEST(CampaignStoreTest, TornSegmentTailIsTruncatedOnOpen) {
  const auto dir = fresh_dir("tornseg");
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaa"));
    st.put(key_of(2), payload_of("bbb"));
  }
  // Crash between the segment append and the WAL append: unreferenced
  // payload bytes at the segment tail, no WAL entry for them.
  append_bytes(dir + "/segment.gfs", "orphaned-payload");
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 2u);
  EXPECT_EQ(st.stats().torn_bytes_dropped, 16u);
  EXPECT_EQ(file_size(dir + "/segment.gfs"), 6);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("bbb"));
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, TearHookRecoversInPlaceAndStoreStaysUsable) {
  const auto dir = fresh_dir("tearhook");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("first"));
  st.put(key_of(2), payload_of("second"));
  const long wal_before = file_size(dir + "/wal.gfj");
  st.put(key_of(3), payload_of("third"));
  const long wal_after = file_size(dir + "/wal.gfj");
  ASSERT_GT(wal_after, wal_before);

  // Tear the third commit's WAL entry clean off plus a few segment payload
  // bytes — the fuzzer's in-process crash model. Recovery re-runs in place:
  // the surviving prefix must stay intact and the store must remain
  // writable without a reopen.
  st.tear_tail_for_test(/*seg_drop=*/3,
                        /*wal_drop=*/static_cast<std::uint64_t>(wal_after -
                                                                wal_before));
  EXPECT_EQ(st.verify(), 0u);
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(3), p));
  ASSERT_TRUE(st.get(key_of(2), p));
  EXPECT_EQ(p, payload_of("second"));

  st.put(key_of(4), payload_of("fourth"));
  ASSERT_TRUE(st.get(key_of(4), p));
  EXPECT_EQ(p, payload_of("fourth"));
}

TEST(CampaignStoreTest, CorruptPayloadInvalidatesFromThereOn) {
  const auto dir = fresh_dir("corrupt");
  long off2 = 0;
  {
    CampaignStore st(dir);
    st.put(key_of(1), payload_of("aaaa"));
    st.put(key_of(2), payload_of("bbbb"));
    st.put(key_of(3), payload_of("cccc"));
    off2 = static_cast<long>(st.list()[1].offset);
  }
  // External corruption inside record 2's payload: recovery is strictly a
  // tail truncation, so record 2 AND the later record 3 are dropped.
  flip_byte(dir + "/segment.gfs", off2 + 1);
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 1u);
  std::vector<std::uint8_t> p;
  ASSERT_TRUE(st.get(key_of(1), p));
  EXPECT_EQ(p, payload_of("aaaa"));
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_FALSE(st.get(key_of(3), p));
}

TEST(CampaignStoreTest, VerifyDetectsLiveCorruption) {
  const auto dir = fresh_dir("verify");
  CampaignStore st(dir);
  st.put(key_of(1), payload_of("aaaa"));
  st.put(key_of(2), payload_of("bbbb"));
  EXPECT_EQ(st.verify(), 0u);
  flip_byte(dir + "/segment.gfs", static_cast<long>(st.list()[1].offset));
  EXPECT_EQ(st.verify(), 1u);
  // The corrupt record reads as a miss, never as wrong bytes.
  std::vector<std::uint8_t> p;
  EXPECT_FALSE(st.get(key_of(2), p));
  EXPECT_TRUE(st.get(key_of(1), p));
}

// Bookkeeping is incremental (a running byte total, a commit sequence
// number per record); it must agree with a full recount after any mix of
// overwrites, and survive a reopen unchanged.
TEST(CampaignStoreTest, OverwritesKeepBytesAndCommitOrderExact) {
  const auto dir = fresh_dir("overwrite");
  std::vector<std::uint64_t> want_order;  // latest commit last
  auto commit = [&want_order](CampaignStore& st, std::uint64_t k,
                              std::size_t len) {
    st.put(key_of(k),
           std::vector<std::uint8_t>(len, static_cast<std::uint8_t>(k)));
    std::erase(want_order, k);
    want_order.push_back(k);
  };
  auto check = [&want_order](const CampaignStore& st) {
    const auto rows = st.list();
    ASSERT_EQ(rows.size(), want_order.size());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].key, key_of(want_order[i])) << "row " << i;
      sum += rows[i].length;
    }
    EXPECT_EQ(st.stats().bytes, sum);
    EXPECT_EQ(st.stats().records, rows.size());
  };
  {
    CampaignStore st(dir);
    for (std::uint64_t i = 0; i < 300; ++i) {
      commit(st, (i * 7) % 41, 1 + (i * 13) % 97);  // most puts overwrite
    }
    check(st);
  }
  CampaignStore st(dir);
  EXPECT_EQ(st.stats().recovered_records, 300u);
  check(st);
  commit(st, 5, 3);
  commit(st, 1000, 8);
  check(st);
  EXPECT_EQ(st.gc(0), 0u);
  check(st);
}

// get() holds the store lock shared: readers on several threads resolve
// concurrently with a writer, every hit returns the exact committed bytes,
// and the hit/miss counters account for every call.
TEST(CampaignStoreTest, ConcurrentGetsDuringPutsAreExact) {
  const auto dir = fresh_dir("concurrent");
  CampaignStore st(dir);
  auto bytes_of = [](std::uint64_t k) {
    return std::vector<std::uint8_t>(64 + k % 200,
                                     static_cast<std::uint8_t>(k * 31));
  };
  constexpr std::uint64_t kInitial = 200;
  constexpr std::uint64_t kLate = 200;
  for (std::uint64_t k = 0; k < kInitial; ++k) st.put(key_of(k), bytes_of(k));

  constexpr int kReaders = 4;
  constexpr int kRounds = 5;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> early_misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<std::uint8_t> p;
      for (int round = 0; round < kRounds; ++round) {
        for (std::uint64_t k = 0; k < kInitial + kLate; ++k) {
          calls.fetch_add(1);
          if (st.get(key_of(k), p)) {
            if (p != bytes_of(k)) wrong.fetch_add(1);
          } else if (k < kInitial) {
            early_misses.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (std::uint64_t k = kInitial; k < kInitial + kLate; ++k) {
      st.put(key_of(k), bytes_of(k));
    }
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(early_misses.load(), 0u) << "a committed record read as a miss";
  const auto s = st.stats();
  EXPECT_EQ(s.hits + s.misses, calls.load());
  EXPECT_EQ(s.records, kInitial + kLate);
  EXPECT_EQ(st.verify(), 0u);
}

TEST(CampaignStoreTest, CommitHookSeesEveryCommit) {
  const auto dir = fresh_dir("hook");
  CampaignStore st(dir);
  std::vector<std::uint64_t> counts;
  st.set_commit_hook([&counts](std::uint64_t c) { counts.push_back(c); });
  st.put(key_of(1), payload_of("a"));
  st.put(key_of(2), payload_of("b"));
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace gf::store

// ------------------------------------------- campaign cache-hit identity

namespace gf::depbench {
namespace {

RunnerOptions store_options() {
  RunnerOptions opt;
  opt.versions = {os::OsVersion::kVos2000};
  opt.servers = {"apex"};
  opt.iterations = 1;
  opt.stride = 41;
  opt.time_scale = 0.05;
  opt.baseline_window_ms = 2000;
  opt.seed = 11;
  opt.obs = true;
  opt.trace = true;
  return opt;
}

/// Every deterministic artifact of the campaign, as the artifact table
/// renders it.
std::vector<std::pair<std::string, std::string>> run_artifacts(
    const RunnerOptions& opt, store::StoreStats* stats_out = nullptr) {
  CampaignRunner runner(opt);
  const auto cells = runner.run_campaign();
  if (stats_out != nullptr) {
    EXPECT_NE(runner.store_stats(), nullptr) << "store was wired";
    if (runner.store_stats() != nullptr) *stats_out = *runner.store_stats();
  }
  return render_campaign_artifacts(
      {cells, runner.options(), runner.campaign_obs()});
}

std::string store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "gfstore_" + name;
  std::remove((dir + "/segment.gfs").c_str());
  std::remove((dir + "/wal.gfj").c_str());
  return dir;
}

TEST(StoreCampaignTest, ColdResumeAndNoCacheAreByteIdentical) {
  const auto base = store_options();
  const auto ref = run_artifacts(base);  // no store at all
  ASSERT_EQ(ref.size(), 5u);  // manifest, report, journal, activations x2

  const auto dir = store_dir("identity");
  store::StoreStats st;
  {  // cold: empty store, everything executes and commits
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_GT(st.misses, 0u);
    EXPECT_EQ(st.puts, st.misses);
  }
  const auto total = st.misses;
  {  // resume: every run is a cache hit, across a different jobs value
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    opt.jobs = 3;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.hits, total);
    EXPECT_EQ(st.puts, 0u);
  }
  {  // --no-cache: ignores the populated store, re-executes, re-commits
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.store = &cs;
    opt.store_read = false;
    const auto got = run_artifacts(opt, &st);
    EXPECT_EQ(got, ref);
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.puts, total);
  }
}

TEST(StoreCampaignTest, SeedChangeInvalidatesEveryKey) {
  const auto dir = store_dir("seed");
  store::StoreStats st;
  {
    store::CampaignStore cs(dir);
    auto opt = store_options();
    opt.store = &cs;
    run_artifacts(opt, &st);
    EXPECT_EQ(st.hits, 0u);
  }
  store::CampaignStore cs(dir);
  auto opt = store_options();
  opt.store = &cs;
  opt.seed = 12;  // every key folds the campaign seed
  run_artifacts(opt, &st);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

/// A faultload edit that changes one fault type: the rarest type present in
/// the schedule sampled at `stride` gets its mutations reverted to the
/// original windows ("the fault was fixed"). Originals are untouched, so
/// the profile baseline and every other fault's key stay cached.
struct FaultTypeEdit {
  swfit::Faultload before;
  swfit::Faultload after;
  std::size_t positions = 0;  ///< sampled schedule positions
  std::size_t edited = 0;     ///< sampled positions of the edited type
};

FaultTypeEdit edit_rarest_fault_type(std::size_t stride) {
  os::Kernel kernel(os::OsVersion::kVos2000);
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  FaultTypeEdit e;
  e.before = swfit::Scanner{}.scan(kernel.pristine_image(), names);
  e.positions = (e.before.faults.size() + stride - 1) / stride;
  std::array<std::size_t, swfit::kNumFaultTypes> sampled{};
  for (std::size_t p = 0; p < e.positions; ++p) {
    ++sampled[static_cast<std::size_t>(e.before.faults[p * stride].type)];
  }
  std::size_t type = 0;
  for (std::size_t t = 0; t < sampled.size(); ++t) {
    if (sampled[t] == 0) continue;
    if (sampled[type] == 0 || sampled[t] < sampled[type]) type = t;
  }
  e.edited = sampled[type];
  e.after = e.before;
  for (auto& f : e.after.faults) {
    if (static_cast<std::size_t>(f.type) == type) f.mutated = f.original;
  }
  return e;
}

TEST(StoreCampaignTest, IncrementalRerunExecutesOnlyEditedFaultType) {
  auto base = store_options();
  const auto edit =
      edit_rarest_fault_type(static_cast<std::size_t>(base.stride));
  ASSERT_FALSE(edit.before.faults.empty());
  ASSERT_GT(edit.edited, 0u);

  const auto dir = store_dir("incremental");
  store::StoreStats st;
  {
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.faultload = &edit.before;
    opt.store = &cs;
    run_artifacts(opt, &st);
    EXPECT_EQ(st.misses, edit.positions + 1);  // faults + profile baseline
  }
  store::CampaignStore cs(dir);
  auto opt = base;
  opt.faultload = &edit.after;
  opt.store = &cs;
  run_artifacts(opt, &st);
  EXPECT_EQ(st.misses, edit.edited);
  EXPECT_EQ(st.hits, edit.positions + 1 - edit.edited);
}

// Cache resolution runs on the worker pool; the incremental re-run's
// artifacts and store traffic must not depend on how many workers did it.
TEST(StoreCampaignTest, IncrementalRerunIdenticalAcrossJobs) {
  auto base = store_options();
  base.iterations = 2;
  base.stride = 9;  // enough tasks for several resolution units per cell
  const auto edit =
      edit_rarest_fault_type(static_cast<std::size_t>(base.stride));
  ASSERT_GT(edit.edited, 0u);

  const auto filled = store_dir("jobs_template");
  {
    store::CampaignStore cs(filled);
    auto opt = base;
    opt.faultload = &edit.before;
    opt.store = &cs;
    opt.jobs = 4;
    run_artifacts(opt);
  }
  auto rerun = [&](int jobs, store::StoreStats& stats) {
    const auto dir = store_dir("jobs_" + std::to_string(jobs));
    std::filesystem::create_directories(dir);
    for (const char* f : {"/segment.gfs", "/wal.gfj"}) {
      std::filesystem::copy_file(
          filled + f, dir + f,
          std::filesystem::copy_options::overwrite_existing);
    }
    store::CampaignStore cs(dir);
    auto opt = base;
    opt.faultload = &edit.after;
    opt.store = &cs;
    opt.jobs = jobs;
    return run_artifacts(opt, &stats);
  };
  store::StoreStats one, four;
  const auto serial = rerun(1, one);
  const auto parallel = rerun(4, four);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(four.to_json(), one.to_json());
  EXPECT_EQ(one.misses, 2 * edit.edited);
  EXPECT_EQ(one.hits, 2 * (edit.positions - edit.edited) + 1);
}

TEST(StoreCampaignTest, KilledCampaignResumesByteIdentical) {
  const auto base = store_options();
  const auto ref = run_artifacts(base);
  const auto dir = store_dir("kill");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: run the campaign against the store and SIGKILL ourselves from
    // inside the 4th commit — mid-campaign, with the store lock held and
    // other workers mid-run. Nothing here may use gtest.
    store::CampaignStore cs(dir);
    cs.set_commit_hook([](std::uint64_t count) {
      if (count >= 4) std::raise(SIGKILL);
    });
    auto opt = base;
    opt.store = &cs;
    opt.jobs = 2;
    CampaignRunner runner(opt);
    runner.run_campaign();
    _exit(0);  // unreachable when the kill fires
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child must die by signal";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Resume: recovery keeps the committed runs, the rest re-execute, and the
  // merged artifacts are indistinguishable from the uninterrupted campaign.
  store::CampaignStore cs(dir);
  store::StoreStats st;
  auto opt = base;
  opt.store = &cs;
  const auto got = run_artifacts(opt, &st);
  EXPECT_EQ(got, ref);
  EXPECT_GT(st.hits, 0u) << "the killed run's commits must survive";
  EXPECT_GT(st.misses, 0u) << "the kill must have left work unfinished";
}

}  // namespace
}  // namespace gf::depbench
