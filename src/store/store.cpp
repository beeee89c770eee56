#include "store/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <thread>

#include "obs/json.h"
#include "store/wire.h"
#include "util/log.h"

namespace gf::store {

namespace {

// WAL entry: magic + key + slot + payload checksum + entry checksum over
// everything preceding. Fixed size so a torn tail is detected by length
// before it is ever parsed.
constexpr std::uint32_t kWalMagic = 0x31574647;  // "GFW1" little-endian
constexpr std::size_t kWalEntrySize = 48;

// The two files of a store directory.
constexpr const char* kSegmentFile = "/segment.gfs";
constexpr const char* kWalFile = "/wal.gfj";

struct WalEntry {
  ResultKey key;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint64_t payload_fnv = 0;
};

std::vector<std::uint8_t> encode_wal_entry(const WalEntry& e) {
  BufWriter w;
  w.u32(kWalMagic);
  w.u64(e.key.hi);
  w.u64(e.key.lo);
  w.u64(e.offset);
  w.u32(e.length);
  w.u64(e.payload_fnv);
  w.u64(fnv1a(w.data().data(), w.data().size()));
  return w.take();
}

/// Decodes one entry; false when the magic or entry checksum is wrong.
bool decode_wal_entry(const std::uint8_t* p, WalEntry& out) {
  BufReader r(p, kWalEntrySize);
  if (r.u32() != kWalMagic) return false;
  out.key.hi = r.u64();
  out.key.lo = r.u64();
  out.offset = r.u64();
  out.length = r.u32();
  out.payload_fnv = r.u64();
  return r.u64() == fnv1a(p, kWalEntrySize - 8);
}

/// A whole file mapped read-only for the duration of recovery. A missing
/// or empty file maps as empty; any other failure throws StoreError, so an
/// unreadable store is never mistaken for an empty one and truncated.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 && errno == ENOENT) return;
    struct ::stat st{};
    void* p = MAP_FAILED;
    if (fd >= 0 && ::fstat(fd, &st) == 0) {
      size_ = static_cast<std::size_t>(st.st_size);
      p = size_ == 0 ? nullptr
                     : ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    const int err = errno;
    if (fd >= 0) ::close(fd);
    if (p == MAP_FAILED) {
      throw StoreError("store: cannot map " + path + ": " +
                       std::strerror(err));
    }
    data_ = static_cast<const std::uint8_t*>(p);
  }
  ~MappedFile() {
    if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Payload bytes one verification thread must have to itself before
/// recovery starts it: below this a thread start costs more than it saves.
constexpr std::uint64_t kVerifyBytesPerThread = 1u << 20;
constexpr std::size_t kMaxVerifyThreads = 8;

/// Index of the first entry whose payload fails its checksum, or
/// entries.size() when every payload is intact. Contiguous ranges of
/// entries are hashed on their own threads; a small store (or a host that
/// refuses a thread) is hashed inline on the calling thread.
std::size_t first_bad_payload(const std::vector<WalEntry>& entries,
                              const std::uint8_t* segment) {
  const std::size_t n = entries.size();
  std::uint64_t bytes = 0;
  for (const auto& e : entries) bytes += e.length;
  const std::size_t parts = static_cast<std::size_t>(std::min<std::uint64_t>(
      {bytes / kVerifyBytesPerThread,
       std::max(1u, std::thread::hardware_concurrency()), kMaxVerifyThreads,
       n}));
  std::vector<std::size_t> first(std::max<std::size_t>(parts, 1), n);
  auto scan = [&](std::size_t part) {
    for (std::size_t i = n * part / first.size(),
                     hi = n * (part + 1) / first.size();
         i < hi; ++i) {
      const auto& e = entries[i];
      if (fnv1a(segment + e.offset, e.length) != e.payload_fnv) {
        first[part] = i;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(first.size());
  for (std::size_t part = 1; part < first.size(); ++part) {
    try {
      threads.emplace_back(scan, part);
    } catch (const std::system_error&) {
      scan(part);
    }
  }
  scan(0);
  for (auto& t : threads) t.join();
  return *std::min_element(first.begin(), first.end());
}

void truncate_or_throw(const std::string& path, std::uint64_t len) {
  if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
    throw StoreError("store: cannot truncate " + path + ": " +
                     std::strerror(errno));
  }
}

using SS = StoreStats;
const obs::json::Member<SS> kStoreStats[] = {
    {"hits", &SS::hits},         {"misses", &SS::misses},
    {"puts", &SS::puts},         {"bytes_read", &SS::bytes_read},
    {"bytes_written", &SS::bytes_written}, {"records", &SS::records},
    {"bytes", &SS::bytes},       {"recovered_records", &SS::recovered_records},
    {"torn_bytes_dropped", &SS::torn_bytes_dropped}};

}  // namespace

StoreStats StoreStats::delta(const StoreStats& base) const noexcept {
  StoreStats d = *this;
  d.hits -= base.hits;
  d.misses -= base.misses;
  d.puts -= base.puts;
  d.bytes_read -= base.bytes_read;
  d.bytes_written -= base.bytes_written;
  return d;
}

void StoreStats::export_into(obs::Registry& r) const {
  r.add("store.hits", hits);
  r.add("store.misses", misses);
  r.add("store.puts", puts);
  r.add("store.bytes_read", bytes_read);
  r.add("store.bytes_written", bytes_written);
  r.gauge("store.records", records);
  r.gauge("store.bytes", bytes);
  r.add("store.recovered_records", recovered_records);
  r.add("store.torn_bytes_dropped", torn_bytes_dropped);
}

std::string StoreStats::to_json() const {
  return "{\"schema\": \"genfault-store/1\", " +
         obs::json::members_json(*this, kStoreStats) + "}";
}

StoreStats StoreStats::from_json(const obs::json::Field& f) {
  auto s = obs::json::read_members(f, kStoreStats, {"schema"});
  f["schema"].expect("genfault-store/1");
  return s;
}

CampaignStore::DirLock::DirLock(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw StoreError("store: cannot create " + dir + ": " + std::strerror(errno));
  }
  fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw StoreError("store: cannot open " + dir + ": " + std::strerror(errno));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    throw StoreError(err == EWOULDBLOCK
                         ? "store: " + dir + " is in use by another open store"
                         : "store: cannot lock " + dir + ": " + std::strerror(err));
  }
}

CampaignStore::DirLock::~DirLock() { ::close(fd); }  // releases the flock

CampaignStore::CampaignStore(std::string dir)
    : dir_(std::move(dir)), lock_(dir_) {
  segment_path_ = dir_ + kSegmentFile;
  wal_path_ = dir_ + kWalFile;
  recover();
  open_handles();
}

CampaignStore::~CampaignStore() { close_handles(); }

bool CampaignStore::exists(const std::string& dir) {
  struct stat st{};
  return ::stat((dir + kWalFile).c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void CampaignStore::close_handles() {
  if (segment_ != nullptr) std::fclose(segment_);
  if (wal_ != nullptr) std::fclose(wal_);
  if (read_fd_ >= 0) ::close(read_fd_);
  segment_ = nullptr;
  wal_ = nullptr;
  read_fd_ = -1;
}

void CampaignStore::open_handles() {
  segment_ = std::fopen(segment_path_.c_str(), "ab");
  wal_ = std::fopen(wal_path_.c_str(), "ab");
  read_fd_ = ::open(segment_path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (segment_ == nullptr || wal_ == nullptr || read_fd_ < 0) {
    close_handles();
    throw StoreError("store: cannot open files in " + dir_);
  }
}

void CampaignStore::index_commit(const ResultKey& key, const Slot& slot) {
  const auto [it, inserted] = index_.try_emplace(key, slot);
  if (!inserted) {
    stats_.bytes -= it->second.length;
    it->second = slot;
  }
  stats_.bytes += slot.length;
  stats_.records = index_.size();
}

void CampaignStore::recover() {
  index_.clear();
  next_seq_ = 0;
  stats_.records = 0;
  stats_.bytes = 0;
  std::uint64_t wal_size = 0;
  std::uint64_t segment_size = 0;
  std::uint64_t good_entries = 0;
  std::uint64_t segment_good_end = 0;
  {
    const MappedFile wal(wal_path_);
    const MappedFile segment(segment_path_);
    wal_size = wal.size();
    segment_size = segment.size();

    std::vector<WalEntry> entries;
    entries.reserve(wal.size() / kWalEntrySize);
    for (std::size_t at = 0; at + kWalEntrySize <= wal.size();
         at += kWalEntrySize) {
      WalEntry e;
      if (!decode_wal_entry(wal.data() + at, e)) break;
      if (e.length > segment.size() || e.offset > segment.size() - e.length) {
        break;
      }
      entries.push_back(e);
    }
    // The payload must be fully present and intact: a commit whose segment
    // bytes were torn (crash between the two appends cannot cause this, but
    // external corruption can) invalidates this entry and every later one —
    // recovery is strictly a tail truncation, never a hole punch.
    good_entries = first_bad_payload(entries, segment.data());
    for (std::size_t i = 0; i < good_entries; ++i) {
      const auto& e = entries[i];
      index_commit(e.key, Slot{e.offset, e.length, e.payload_fnv, next_seq_++});
      segment_good_end = std::max(segment_good_end, e.offset + e.length);
    }
  }  // unmapped before any truncation

  const std::uint64_t wal_good_end = good_entries * kWalEntrySize;
  const std::uint64_t torn =
      (wal_size - wal_good_end) +
      (segment_size > segment_good_end ? segment_size - segment_good_end : 0);
  if (wal_good_end < wal_size) truncate_or_throw(wal_path_, wal_good_end);
  if (segment_good_end < segment_size) {
    truncate_or_throw(segment_path_, segment_good_end);
  }
  segment_end_ = segment_good_end;

  stats_.recovered_records = good_entries;
  stats_.torn_bytes_dropped = torn;
  if (torn > 0) {
    GF_INFO() << "store " << dir_ << ": recovered " << good_entries
              << " records, truncated " << torn << " torn tail bytes";
  }
}

bool CampaignStore::read_payload(const Slot& s,
                                 std::vector<std::uint8_t>& payload) const {
  payload.resize(s.length);
  std::size_t done = 0;
  while (done < payload.size()) {
    const ssize_t n =
        ::pread(read_fd_, payload.data() + done, payload.size() - done,
                static_cast<off_t>(s.offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  const bool ok = done == payload.size() &&
                  fnv1a(payload.data(), payload.size()) == s.payload_fnv;
  if (!ok) payload.clear();
  return ok;
}

bool CampaignStore::get(const ResultKey& key,
                        std::vector<std::uint8_t>& payload) {
  const std::shared_lock lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || !read_payload(it->second, payload)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(payload.size(), std::memory_order_relaxed);
  return true;
}

void CampaignStore::put(const ResultKey& key,
                        const std::vector<std::uint8_t>& payload) {
  const std::lock_guard lock(mu_);
  WalEntry e{key, segment_end_, static_cast<std::uint32_t>(payload.size()),
             fnv1a(payload.data(), payload.size())};
  // Commit protocol: payload first, flush; WAL entry second, flush. Until
  // the WAL flush lands the record does not exist, so any crash point
  // leaves a store that recovery restores to the previous commit.
  if (std::fwrite(payload.data(), 1, payload.size(), segment_) !=
          payload.size() ||
      std::fflush(segment_) != 0) {
    throw StoreError("store: segment append failed in " + dir_);
  }
  const auto entry = encode_wal_entry(e);
  if (std::fwrite(entry.data(), 1, entry.size(), wal_) != entry.size() ||
      std::fflush(wal_) != 0) {
    throw StoreError("store: wal append failed in " + dir_);
  }
  segment_end_ += payload.size();

  index_commit(key, Slot{e.offset, e.length, e.payload_fnv, next_seq_++});
  ++stats_.puts;
  stats_.bytes_written += payload.size() + entry.size();
  ++commit_count_;
  if (commit_hook_) commit_hook_(commit_count_);
}

std::vector<std::pair<ResultKey, CampaignStore::Slot>>
CampaignStore::by_commit_order() const {
  std::vector<std::pair<ResultKey, Slot>> out(index_.begin(), index_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.seq < b.second.seq;
  });
  return out;
}

std::vector<RecordInfo> CampaignStore::list() const {
  const std::shared_lock lock(mu_);
  std::vector<RecordInfo> out;
  out.reserve(index_.size());
  for (const auto& [key, slot] : by_commit_order()) {
    out.push_back({key, slot.offset, slot.length});
  }
  return out;
}

std::size_t CampaignStore::verify() {
  const std::shared_lock lock(mu_);
  std::size_t corrupt = 0;
  std::vector<std::uint8_t> payload;
  for (const auto& [key, slot] : index_) {
    if (!read_payload(slot, payload)) ++corrupt;
  }
  return corrupt;
}

std::size_t CampaignStore::gc(std::uint64_t max_bytes) {
  const std::lock_guard lock(mu_);
  // Live set in commit order; evict oldest-first until under budget.
  const auto keep = by_commit_order();
  std::uint64_t live_bytes = stats_.bytes;
  std::size_t evict = 0;
  if (max_bytes > 0) {
    while (evict < keep.size() && live_bytes > max_bytes) {
      live_bytes -= keep[evict].second.length;
      ++evict;
    }
  }
  // Compact into tmp files, then atomically swap both in. A crash between
  // the two renames leaves a new segment with the old WAL — every WAL entry
  // then fails its payload checksum against the rewritten segment, so
  // recovery degrades to an empty (not corrupt) store.
  const std::string seg_tmp = segment_path_ + ".tmp";
  const std::string wal_tmp = wal_path_ + ".tmp";
  std::FILE* seg = std::fopen(seg_tmp.c_str(), "wb");
  std::FILE* wal = std::fopen(wal_tmp.c_str(), "wb");
  if (seg == nullptr || wal == nullptr) {
    if (seg != nullptr) std::fclose(seg);
    if (wal != nullptr) std::fclose(wal);
    throw StoreError("store: cannot create gc tmp files in " + dir_);
  }
  std::map<ResultKey, Slot> new_index;
  std::uint64_t offset = 0;
  bool ok = true;
  std::vector<std::uint8_t> payload;
  for (std::size_t i = evict; i < keep.size() && ok; ++i) {
    const auto& [key, slot] = keep[i];
    ok = read_payload(slot, payload);
    if (!ok) break;
    ok = std::fwrite(payload.data(), 1, payload.size(), seg) == payload.size();
    const auto entry = encode_wal_entry(
        {key, offset, slot.length, slot.payload_fnv});
    ok = ok && std::fwrite(entry.data(), 1, entry.size(), wal) == entry.size();
    new_index.insert_or_assign(
        key, Slot{offset, slot.length, slot.payload_fnv, new_index.size()});
    offset += slot.length;
  }
  ok = ok && std::fflush(seg) == 0 && std::fflush(wal) == 0;
  std::fclose(seg);
  std::fclose(wal);
  if (!ok) throw StoreError("store: gc rewrite failed in " + dir_);

  close_handles();
  if (std::rename(seg_tmp.c_str(), segment_path_.c_str()) != 0 ||
      std::rename(wal_tmp.c_str(), wal_path_.c_str()) != 0) {
    throw StoreError("store: gc rename failed in " + dir_);
  }
  index_ = std::move(new_index);
  next_seq_ = index_.size();
  segment_end_ = offset;
  stats_.records = index_.size();
  stats_.bytes = offset;
  open_handles();
  return evict;
}

void CampaignStore::tear_tail_for_test(std::uint64_t seg_drop,
                                       std::uint64_t wal_drop) {
  const std::lock_guard lock(mu_);
  close_handles();
  auto tear = [](const std::string& path, std::uint64_t drop) {
    struct ::stat st{};
    if (::stat(path.c_str(), &st) != 0) return;
    const auto size = static_cast<std::uint64_t>(st.st_size);
    truncate_or_throw(path, size > drop ? size - drop : 0);
  };
  tear(segment_path_, seg_drop);
  tear(wal_path_, wal_drop);
  recover();
  open_handles();
}

StoreStats CampaignStore::stats() const {
  const std::shared_lock lock(mu_);
  StoreStats s = stats_;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gf::store
