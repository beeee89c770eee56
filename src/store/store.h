// Persistent, crash-safe, content-addressed campaign result store.
//
// The paper's campaigns are embarrassingly re-runnable: a Table 5 cell is
// re-executed every time a faultload, OS build or config changes, even
// though most per-fault outcomes are unchanged. PR 5 made every single-fault
// run a pure function of its key tuple (store/key.h), which is exactly the
// precondition for a Bazel/ccache-style result cache. This module is that
// cache's disk layer; the campaign runner does the key derivation and the
// cached-result folding (depbench/runner.cpp).
//
// On-disk layout (directory `DIR` passed to the constructor):
//   DIR/segment.gfs   append-only payload bytes, no framing of its own
//   DIR/wal.gfj       append-only fixed-size commit records
//
// Commit protocol: append the payload to the segment, flush, then append
// one 48-byte WAL entry {magic "GFW2", key, offset, length, payload
// checksum, entry checksum}, flush. Both checksums are checksum64
// (store/key.h), which a cache hit pays over every payload it serves. A
// record EXISTS iff its WAL entry is complete and both
// checksums match — so a crash (SIGKILL, power) between the two appends
// simply leaves unreferenced bytes at the segment tail. Recovery on open
// walks the WAL in order, stops at the first torn or corrupt entry, and
// truncates both files back to the last good commit; everything before it
// is intact by construction (appends never rewrite). Recovery maps both
// files read-only instead of copying them: it decodes the WAL entries in
// order, then verifies their payload checksums in parallel over contiguous
// ranges of entries (inline, on the calling thread, when the store is small
// enough that a thread start would cost more than it saves), and keeps
// every entry before the first failure. A directory whose first entry is
// an intact entry of the previous format ("GFW1", FNV-1a checksums) is
// refused with a StoreError and left untouched, never truncated to empty.
//
// Duplicate keys are legal (a `--no-cache` run re-executes and re-commits);
// the *last* commit wins, and gc() compacts the dead versions away.
//
// One writer per directory: an open store holds flock(LOCK_EX) on DIR, and
// a second open (from any process) throws StoreError.
//
// Thread safety: one reader-writer lock. get(), list(),
// verify() and stats() hold it shared, so campaign workers resolve cache
// hits concurrently: get() is one pread on the store's read-only segment
// descriptor plus the payload checksum, and its hit/miss/byte counters are
// atomics, exact under any interleaving. put(), gc() and
// tear_tail_for_test() hold it exclusively. The store never blocks the VM
// hot path — all traffic happens at run boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/key.h"

namespace gf::store {

class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Store traffic counters. Cumulative per store instance; the campaign
/// runner snapshots before/after a campaign and reports the delta. These
/// are wall-state-coupled (they depend on what happens to be cached), so —
/// like SchedStats — they are kept OUT of the deterministic campaign
/// artifacts and emitted via --store-json instead.
struct StoreStats {
  std::uint64_t hits = 0;          ///< get() found a valid record
  std::uint64_t misses = 0;        ///< get() found nothing
  std::uint64_t puts = 0;          ///< committed records
  std::uint64_t bytes_read = 0;    ///< payload bytes served by get()
  std::uint64_t bytes_written = 0; ///< payload + WAL bytes committed
  std::uint64_t records = 0;       ///< live (latest-version) records
  std::uint64_t bytes = 0;         ///< live payload bytes
  std::uint64_t recovered_records = 0;  ///< valid commits found at open
  std::uint64_t torn_bytes_dropped = 0; ///< bytes truncated at open

  /// this - base, field-wise (counters only; index snapshot kept as-is).
  StoreStats delta(const StoreStats& base) const noexcept;
  /// Folds as store.* counters into an obs registry (store-json rendering;
  /// never the campaign manifest registry — see the determinism note).
  void export_into(obs::Registry& r) const;
  /// Canonical JSON, schema "genfault-store/1".
  std::string to_json() const;
  /// Decodes a to_json() rendering (throws obs::json::DecodeError).
  static StoreStats from_json(const obs::json::Field& f);
};

/// One live record, in commit order (the `gfbench store ls` row).
struct RecordInfo {
  ResultKey key;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

class CampaignStore {
 public:
  /// Opens (creating if needed) the store at `dir`, running tail recovery.
  /// The store holds an exclusive lock on `dir` until it is destroyed.
  /// Throws StoreError when the directory cannot be created or locked (it
  /// is locked while another store, in any process, has it open), the
  /// files cannot be opened, or they hold the previous store format.
  explicit CampaignStore(std::string dir);
  ~CampaignStore();

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  /// Whether `dir` holds a store (one a CampaignStore has opened). Opens
  /// nothing and takes no lock.
  static bool exists(const std::string& dir);

  /// Looks up `key`; fills `payload` and returns true on a hit.
  bool get(const ResultKey& key, std::vector<std::uint8_t>& payload);

  /// Commits (payload bytes under `key`): segment append + flush, WAL
  /// append + flush. Atomic under the crash model above.
  void put(const ResultKey& key, const std::vector<std::uint8_t>& payload);

  /// Live records in commit order (of each key's latest version).
  std::vector<RecordInfo> list() const;

  /// Re-reads every live record and re-checks its payload checksum.
  /// Returns the number of corrupt records (0 = clean).
  std::size_t verify();

  /// Compacts the store: drops dead (superseded) versions, then — when
  /// `max_bytes` > 0 — evicts the oldest live records until the live
  /// payload fits. Rewrites segment+WAL atomically (tmp + rename).
  /// Returns the number of records dropped.
  std::size_t gc(std::uint64_t max_bytes);

  StoreStats stats() const;
  const std::string& dir() const noexcept { return dir_; }

  /// Test/CI hook: called after every successful commit with the running
  /// commit count, while the store lock is held. The kill-and-resume suite
  /// uses it to SIGKILL the process mid-campaign at a precise commit.
  void set_commit_hook(std::function<void(std::uint64_t)> hook) {
    commit_hook_ = std::move(hook);
  }

  /// Fault-injection hook for the structure fuzzer (src/check): simulates a
  /// crash that tore the last `seg_drop` bytes off the segment and the last
  /// `wal_drop` bytes off the WAL (both clamped to the file sizes), exactly
  /// the on-disk states an interrupted commit can leave behind. The handles
  /// are closed, the files truncated, and recovery re-runs in place — the
  /// store stays usable and must expose only intact committed records.
  void tear_tail_for_test(std::uint64_t seg_drop, std::uint64_t wal_drop);

 private:
  struct Slot {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
    std::uint64_t payload_sum = 0;
    std::uint64_t seq = 0;  ///< commit sequence number: orders list() and gc
  };

  void recover();
  void open_handles();
  void close_handles();
  /// Index entries sorted by commit sequence number (oldest first).
  std::vector<std::pair<ResultKey, Slot>> by_commit_order() const;
  /// Inserts or replaces `key`'s slot, keeping records and bytes current.
  void index_commit(const ResultKey& key, const Slot& slot);
  bool read_payload(const Slot& s, std::vector<std::uint8_t>& payload) const;

  /// The store directory, created if missing, under flock(LOCK_EX) for the
  /// store's lifetime: two open stores on one directory would interleave
  /// their appends and truncate each other's tails. Throws StoreError.
  struct DirLock {
    explicit DirLock(const std::string& dir);
    ~DirLock();
    DirLock(const DirLock&) = delete;
    DirLock& operator=(const DirLock&) = delete;
    int fd = -1;
  };

  std::string dir_;
  DirLock lock_;
  std::string segment_path_;
  std::string wal_path_;
  mutable std::shared_mutex mu_;
  std::FILE* segment_ = nullptr;  ///< append handle
  std::FILE* wal_ = nullptr;      ///< append handle
  int read_fd_ = -1;              ///< read-only segment descriptor (pread)
  std::uint64_t segment_end_ = 0;
  std::map<ResultKey, Slot> index_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t commit_count_ = 0;
  std::function<void(std::uint64_t)> commit_hook_;
  StoreStats stats_;  ///< everything but the three get() counters below
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace gf::store
