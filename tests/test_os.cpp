// Tests for the VOS kernel and the MiniC implementations of the 21 API
// functions, for both OS versions. These run real guest code on the VM.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "os/api.h"
#include "os/filesystem.h"
#include "os/kernel.h"
#include "os/layout.h"
#include "vm/machine.h"

namespace gf::os {
namespace {

namespace lay = layout;

class OsTest : public ::testing::TestWithParam<OsVersion> {
 protected:
  OsTest() : kernel_(GetParam()), api_(kernel_) {}

  /// Writes an ansi path into the path slot and returns its guest address.
  std::uint64_t guest_path(const std::string& s) {
    EXPECT_TRUE(api_.write_cstr(OsApi::kPathSlot, s));
    return OsApi::kPathSlot;
  }

  std::uint64_t guest_wide(const std::string& s) {
    EXPECT_TRUE(api_.write_wstr(OsApi::kWidePathSlot, s));
    return OsApi::kWidePathSlot;
  }

  Kernel kernel_;
  OsApi api_;
};

INSTANTIATE_TEST_SUITE_P(BothVersions, OsTest,
                         ::testing::Values(OsVersion::kVos2000, OsVersion::kVosXp),
                         [](const auto& info) {
                           return info.param == OsVersion::kVos2000 ? "Vos2000"
                                                                    : "VosXp";
                         });

TEST_P(OsTest, ImageContainsAllApiFunctions) {
  for (const auto& fn : api_functions()) {
    EXPECT_NE(kernel_.pristine_image().find_symbol(fn.name), nullptr) << fn.name;
  }
  EXPECT_EQ(api_functions().size(), 21u);  // Table 2 surface
}

TEST_P(OsTest, HeapAllocReturnsDistinctAlignedBlocks) {
  std::set<std::int64_t> ptrs;
  for (int i = 0; i < 50; ++i) {
    const auto r = api_.rtl_alloc(100);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r.value, 0);
    EXPECT_EQ(r.value % 16, 0);
    EXPECT_TRUE(ptrs.insert(r.value).second) << "duplicate block";
    EXPECT_GE(static_cast<std::uint64_t>(r.value), lay::kHeapArena);
    EXPECT_LT(static_cast<std::uint64_t>(r.value), lay::kHeapArenaEnd);
  }
}

TEST_P(OsTest, HeapBlocksDoNotOverlap) {
  struct Block {
    std::int64_t lo, hi;
  };
  std::vector<Block> blocks;
  for (int i = 1; i <= 30; ++i) {
    const auto r = api_.rtl_alloc(i * 24);
    ASSERT_TRUE(r.ok());
    blocks.push_back({r.value, r.value + i * 24});
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      EXPECT_TRUE(blocks[i].hi <= blocks[j].lo || blocks[j].hi <= blocks[i].lo)
          << i << " vs " << j;
    }
  }
}

TEST_P(OsTest, HeapFreeAndReuse) {
  const auto a = api_.rtl_alloc(256);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(a.value)).ok());
  // Freed memory is reusable: allocating again must succeed.
  const auto b = api_.rtl_alloc(256);
  ASSERT_TRUE(b.ok());
  ASSERT_GT(b.value, 0);
}

TEST_P(OsTest, HeapSurvivesManyAllocFreeCycles) {
  // With reuse the arena never exhausts; without it this would run out.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::int64_t> ptrs;
    for (int i = 0; i < 20; ++i) {
      const auto r = api_.rtl_alloc(1024);
      ASSERT_TRUE(r.ok()) << "round " << round;
      ASSERT_GT(r.value, 0) << "round " << round;
      ptrs.push_back(r.value);
    }
    for (const auto p : ptrs) {
      ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(p)).ok());
    }
  }
}

TEST_P(OsTest, HeapRejectsBadFrees) {
  EXPECT_LT(api_.rtl_free(0).value, 0);
  EXPECT_LT(api_.rtl_free(0x5000).value, 0);  // outside the arena
  const auto a = api_.rtl_alloc(64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(api_.rtl_free(static_cast<std::uint64_t>(a.value)).ok());
  // Double free: the magic is gone, must be rejected.
  EXPECT_LT(api_.rtl_free(static_cast<std::uint64_t>(a.value)).value, 0);
}

TEST_P(OsTest, HeapAllocRejectsNonPositiveSizes) {
  EXPECT_EQ(api_.rtl_alloc(0).value, 0);
  EXPECT_EQ(api_.rtl_alloc(-5).value, 0);
}

TEST_P(OsTest, HeapExhaustionReturnsNull) {
  // The arena is 4 MiB; a 16 MiB request cannot be satisfied.
  EXPECT_EQ(api_.rtl_alloc(16 << 20).value, 0);
}

TEST_P(OsTest, CreateWriteReadFileRoundTrip) {
  const auto h = api_.nt_create_file(guest_path("/tmp/x.txt"));
  ASSERT_GT(h.value, 0);
  const std::string payload = "hello fault injection";
  ASSERT_TRUE(api_.write_bytes(0x150000, payload.data(), payload.size()));
  const auto w = api_.nt_write_file(h.value, 0x150000,
                                    static_cast<std::int64_t>(payload.size()));
  EXPECT_EQ(w.value, static_cast<std::int64_t>(payload.size()));
  ASSERT_TRUE(api_.nt_close(h.value).ok());

  const auto h2 = api_.nt_open_file(guest_path("/tmp/x.txt"));
  ASSERT_GT(h2.value, 0);
  const auto r = api_.nt_read_file(h2.value, 0x151000, 100);
  EXPECT_EQ(r.value, static_cast<std::int64_t>(payload.size()));
  std::string back(payload.size(), 0);
  ASSERT_TRUE(api_.read_bytes(0x151000, back.data(), back.size()));
  EXPECT_EQ(back, payload);
  EXPECT_TRUE(api_.nt_close(h2.value).ok());
}

TEST_P(OsTest, SequentialReadsAdvancePosition) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c', 'd', 'e', 'f'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 2).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150008, 2).value, 2);
  char c[2];
  api_.read_bytes(0x150008, c, 2);
  EXPECT_EQ(c[0], 'c');
  EXPECT_EQ(c[1], 'd');
  // EOF after consuming the rest.
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150010, 100).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150010, 100).value, 0);
}

TEST_P(OsTest, OpenMissingFileFails) {
  EXPECT_EQ(api_.nt_open_file(guest_path("/does/not/exist")).value,
            lay::kStatusNotFound);
}

TEST_P(OsTest, InvalidHandlesRejected) {
  EXPECT_LT(api_.nt_close(0).value, 0);
  EXPECT_LT(api_.nt_close(-3).value, 0);
  EXPECT_LT(api_.nt_close(lay::kMaxHandles + 1).value, 0);
  EXPECT_LT(api_.nt_close(7).value, 0);  // never opened
  EXPECT_LT(api_.nt_read_file(7, 0x150000, 4).value, 0);
  EXPECT_LT(api_.nt_write_file(7, 0x150000, 4).value, 0);
}

// kSysDiskRead copies the file's pages straight into guest memory; each of
// its outcomes (-1, 0, n, memory trap) must reach the API caller unchanged.
TEST_P(OsTest, DiskReadOutcomesReachTheCaller) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c', 'd', 'e', 'f'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  const auto entry = lay::kHandleTable + static_cast<std::uint64_t>(h.value - 1) * 32;
  auto set_entry = [&](std::uint64_t field, std::int64_t v) {
    ASSERT_TRUE(api_.write_bytes(entry + field, &v, sizeof v));
  };

  // A file id the disk does not know: the device fails, the API reports
  // an I/O error.
  set_entry(8, 999);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 4).value, lay::kStatusIoError);
  const auto id = *kernel_.disk().find("/f");
  set_entry(8, id);

  // At and past EOF the device reads nothing.
  set_entry(16, 6);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 4).value, 0);
  set_entry(16, 1000);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 4).value, 0);
  set_entry(16, -1);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 4).value, lay::kStatusIoError);

  // A destination in the null page crashes the call.
  set_entry(16, 0);
  EXPECT_TRUE(api_.nt_read_file(h.value, 0x10, 4).crashed());

  // A short read is accepted when dst + len runs past memory but dst + n
  // fits: only the bytes read are copied.
  set_entry(16, 0);
  const auto dst = lay::kMemSize - 2048;
  const auto r = api_.nt_read_file(h.value, dst, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 6);
  char back[6];
  ASSERT_TRUE(api_.read_bytes(dst, back, sizeof back));
  EXPECT_EQ(std::string(back, sizeof back), "abcdef");
}

// A sparse file's holes reach the guest as zeros, and a destination range
// that does not fit whole is a memory trap, holes included.
TEST_P(OsTest, DiskReadFillsHolesAndChecksTheWholeRange) {
  const int id = kernel_.disk().create("/sparse");
  const std::vector<std::uint8_t> data(100, 'q');
  ASSERT_TRUE(kernel_.disk().write(id, 2 * SimDisk::kPageSize + 50, data.data(), 100));
  const auto h = api_.nt_open_file(guest_path("/sparse"));
  ASSERT_GT(h.value, 0);
  const std::uint64_t buf = 0x150000;
  const std::vector<std::uint8_t> junk(3 * SimDisk::kPageSize, 0xEE);
  ASSERT_TRUE(api_.write_bytes(buf, junk.data(), junk.size()));
  const auto r = api_.nt_read_file(h.value, buf, 3 * SimDisk::kPageSize);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value, 2 * SimDisk::kPageSize + 150);
  std::vector<std::uint8_t> back(static_cast<std::size_t>(r.value));
  ASSERT_TRUE(api_.read_bytes(buf, back.data(), back.size()));
  std::vector<std::uint8_t> want(back.size(), 0);
  std::fill(want.end() - 100, want.end(), 'q');
  EXPECT_TRUE(back == want);

  // A hole of 4 KiB read to 2 KiB below the top of memory does not fit.
  const auto h2 = api_.nt_open_file(guest_path("/sparse"));
  ASSERT_GT(h2.value, 0);
  EXPECT_TRUE(api_.nt_read_file(h2.value, lay::kMemSize - 2048, SimDisk::kPageSize).crashed());
}

// kSysDiskWrite reads its source with one checked guest access: the null
// page stays unmapped, and a corrupted file position fails as an I/O error.
TEST_P(OsTest, DiskWriteOutcomesReachTheCaller) {
  const auto h = api_.nt_create_file(guest_path("/tmp/w"));
  ASSERT_GT(h.value, 0);
  EXPECT_TRUE(api_.nt_write_file(h.value, 0x10, 4).crashed());

  const auto entry = lay::kHandleTable + static_cast<std::uint64_t>(h.value - 1) * 32;
  const std::int64_t huge = std::int64_t{1} << 50;
  ASSERT_TRUE(api_.write_bytes(entry + 16, &huge, sizeof huge));
  ASSERT_TRUE(api_.write_bytes(0x150000, "abcd", 4));
  EXPECT_EQ(api_.nt_write_file(h.value, 0x150000, 4).value, lay::kStatusIoError);
  EXPECT_EQ(kernel_.disk().size(*kernel_.disk().find("/tmp/w")), 0);
}

// write_wstr stores the UTF-16LE bytes in one bulk write; its outcome must
// equal a store of byte after byte, which stops at the first unmapped byte.
TEST_P(OsTest, WideStringBulkWriteMatchesPerByteStores) {
  auto& m = kernel_.machine();
  auto per_byte = [&m](std::uint64_t addr, const std::string& s) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (!m.write_u8(addr + i * 2, static_cast<std::uint8_t>(s[i]))) return false;
      if (!m.write_u8(addr + i * 2 + 1, 0)) return false;
    }
    return m.write_u8(addr + s.size() * 2, 0) &&
           m.write_u8(addr + s.size() * 2 + 1, 0);
  };
  const std::string s = "/index.html";
  const std::uint64_t top = m.mem_size();
  const std::uint64_t len = (s.size() + 1) * 2;
  std::vector<std::uint64_t> addrs = {0,          vm::Machine::kNullPageSize - len,
                                      vm::Machine::kNullPageSize - 3,
                                      vm::Machine::kNullPageSize - 1,
                                      vm::Machine::kNullPageSize, top,
                                      top + 1,    ~std::uint64_t{0} - 3};
  for (std::uint64_t back = 0; back <= len + 1; ++back) addrs.push_back(top - back);

  // Every candidate write lands in one of two windows: the null-page edge
  // and the top of memory.
  const std::uint64_t win = vm::Machine::kNullPageSize + 2 * len;
  auto windows = [&] {
    const auto* lo = m.raw(0, win);
    const auto* hi = m.raw(top - win, win);
    std::vector<std::uint8_t> out(lo, lo + win);
    out.insert(out.end(), hi, hi + win);
    return out;
  };
  auto put_windows = [&](const std::vector<std::uint8_t>& w) {
    ASSERT_TRUE(m.patch_code(0, w.data(), win));
    ASSERT_TRUE(m.patch_code(top - win, w.data() + win, win));
  };
  const auto pristine = windows();
  for (const auto addr : addrs) {
    const bool want = per_byte(addr, s);
    const auto want_mem = windows();
    put_windows(pristine);
    const bool got = api_.write_wstr(addr, s);
    EXPECT_EQ(got, want) << "addr " << addr;
    EXPECT_TRUE(windows() == want_mem) << "addr " << addr;
    put_windows(pristine);
  }
  // The in-range prefix really is written when the string runs off the end.
  ASSERT_FALSE(api_.write_wstr(top - 3, s));
  std::uint8_t tail[3] = {};
  ASSERT_TRUE(m.read_bytes(top - 3, tail, sizeof tail));
  EXPECT_EQ(tail[0], '/');
  EXPECT_EQ(tail[1], 0);
  EXPECT_EQ(tail[2], 'i');
}

TEST_P(OsTest, CloseReleasesHandleSlot) {
  kernel_.disk().add_file("/f", {'x'});
  std::int64_t first = 0;
  // Exhaust then release: handles must be recycled.
  for (int i = 0; i < lay::kMaxHandles; ++i) {
    const auto h = api_.nt_open_file(guest_path("/f"));
    ASSERT_GT(h.value, 0) << i;
    if (i == 0) first = h.value;
  }
  EXPECT_EQ(api_.nt_open_file(guest_path("/f")).value, lay::kStatusNoMemory);
  ASSERT_TRUE(api_.nt_close(first).ok());
  EXPECT_EQ(api_.nt_open_file(guest_path("/f")).value, first);
}

TEST_P(OsTest, ProtectAndQueryVirtualMemory) {
  const auto old = api_.nt_protect_vm(lay::kHeapArena, lay::kPageSize * 2, 1);
  EXPECT_EQ(old.value, 3);  // boot default: read+write
  const auto q = api_.nt_query_vm(lay::kHeapArena + lay::kPageSize,
                                  OsApi::kStructSlot);
  EXPECT_TRUE(q.ok());
  EXPECT_EQ(api_.read_u64_or(OsApi::kStructSlot + 16, 99), 1u);
  // Third page untouched.
  const auto q2 =
      api_.nt_query_vm(lay::kHeapArena + 2 * lay::kPageSize, OsApi::kStructSlot);
  EXPECT_TRUE(q2.ok());
  EXPECT_EQ(api_.read_u64_or(OsApi::kStructSlot + 16, 99), 3u);
}

TEST_P(OsTest, ProtectRejectsBadRanges) {
  EXPECT_LT(api_.nt_protect_vm(0x1000, 100, 1).value, 0);
  EXPECT_LT(api_.nt_protect_vm(lay::kHeapArena, 0, 1).value, 0);
  EXPECT_LT(api_.nt_protect_vm(lay::kHeapArena, -5, 1).value, 0);
  EXPECT_LT(api_.nt_query_vm(lay::kHeapArena, 0).value, 0);
}

TEST_P(OsTest, CriticalSectionEnterLeave) {
  const std::uint64_t cs = OsApi::kStructSlot;
  const std::uint64_t zero[4] = {};
  ASSERT_TRUE(api_.write_bytes(cs, zero, sizeof zero));
  EXPECT_TRUE(api_.rtl_enter_cs(cs).ok());
  EXPECT_EQ(api_.read_u64_or(cs + 8, 0), 1u);   // owner
  EXPECT_EQ(api_.read_u64_or(cs + 16, 0), 1u);  // recursion
  EXPECT_TRUE(api_.rtl_enter_cs(cs).ok());      // recursive acquire
  EXPECT_EQ(api_.read_u64_or(cs + 16, 0), 2u);
  EXPECT_TRUE(api_.rtl_leave_cs(cs).ok());
  EXPECT_TRUE(api_.rtl_leave_cs(cs).ok());
  EXPECT_EQ(api_.read_u64_or(cs + 8, 1), 0u);  // released
  EXPECT_EQ(api_.read_u64_or(cs, 1), 0u);      // lock count balanced
}

TEST_P(OsTest, LeaveWithoutEnterRejected) {
  const std::uint64_t cs = OsApi::kStructSlot;
  const std::uint64_t zero[4] = {};
  ASSERT_TRUE(api_.write_bytes(cs, zero, sizeof zero));
  EXPECT_LT(api_.rtl_leave_cs(cs).value, 0);
  EXPECT_LT(api_.rtl_enter_cs(0).value, 0);
  EXPECT_LT(api_.rtl_leave_cs(0).value, 0);
}

TEST_P(OsTest, InitAnsiString) {
  const auto src = guest_path("abc");
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_ansi_string(s, src).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 3u);        // length
  EXPECT_EQ(api_.read_u64_or(s + 8, 99), 4u);    // max length
  EXPECT_EQ(api_.read_u64_or(s + 16, 99), src);  // buffer aliases source
}

TEST_P(OsTest, InitAnsiStringNullSource) {
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_ansi_string(s, 0).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 0u);
  EXPECT_EQ(api_.read_u64_or(s + 16, 99), 0u);
}

TEST_P(OsTest, InitUnicodeString) {
  const auto src = guest_wide("hello");
  const std::uint64_t s = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_init_unicode_string(s, src).ok());
  EXPECT_EQ(api_.read_u64_or(s, 99), 10u);      // byte length
  EXPECT_EQ(api_.read_u64_or(s + 8, 99), 12u);  // with terminator
}

TEST_P(OsTest, UnicodeToMultiByteConvertsAscii) {
  const auto src = guest_wide("Index.Html");
  const std::uint64_t dst = 0x150000;
  const auto r = api_.rtl_unicode_to_multibyte(dst, 64, src, 20);
  EXPECT_EQ(r.value, 10);
  std::string out(10, 0);
  ASSERT_TRUE(api_.read_bytes(dst, out.data(), out.size()));
  EXPECT_EQ(out, "Index.Html");
}

TEST_P(OsTest, UnicodeToMultiByteReplacesWideChars) {
  auto& m = kernel_.machine();
  // One char with a non-zero high byte.
  ASSERT_TRUE(m.write_u8(0x152000, 0x42));
  ASSERT_TRUE(m.write_u8(0x152001, 0x03));
  const auto r = api_.rtl_unicode_to_multibyte(0x150000, 8, 0x152000, 2);
  EXPECT_EQ(r.value, 1);
  std::uint8_t c = 0;
  ASSERT_TRUE(m.read_u8(0x150000, c));
  EXPECT_EQ(c, '?');
}

TEST_P(OsTest, UnicodeToMultiByteHonorsDstMax) {
  const auto src = guest_wide("abcdefgh");
  EXPECT_EQ(api_.rtl_unicode_to_multibyte(0x150000, 3, src, 16).value, 3);
}

TEST_P(OsTest, UnicodeToMultiByteRejectsBadParams) {
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0, 8, 0x150000, 2).value, 0);
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0x150000, 0, 0x152000, 2).value, 0);
  EXPECT_LT(api_.rtl_unicode_to_multibyte(0x150000, 8, 0x152000, -2).value, 0);
}

TEST_P(OsTest, DosPathToNtPathPrefixesAndConverts) {
  const auto src = guest_wide("www/docs/file.html");
  const std::uint64_t dst = OsApi::kStructSlot;
  ASSERT_TRUE(api_.rtl_dos_path_to_nt(src, dst).ok());
  const auto len = api_.read_u64_or(dst, 0);
  const auto buf = api_.read_u64_or(dst + 16, 0);
  ASSERT_GT(buf, 0u);
  EXPECT_EQ(len, (18u + 4u) * 2u);
  // Expect "\??\www\docs\file.html" as 2-byte chars.
  std::string expect = "\\??\\www\\docs\\file.html";
  for (std::size_t i = 0; i < expect.size(); ++i) {
    std::uint8_t lo = 0, hi = 1;
    ASSERT_TRUE(kernel_.machine().read_u8(buf + i * 2, lo));
    ASSERT_TRUE(kernel_.machine().read_u8(buf + i * 2 + 1, hi));
    EXPECT_EQ(lo, static_cast<std::uint8_t>(expect[i])) << i;
    EXPECT_EQ(hi, 0) << i;
  }
  // The buffer came from the heap; FreeUnicodeString must return it.
  ASSERT_TRUE(api_.rtl_free_unicode_string(dst).ok());
  EXPECT_EQ(api_.read_u64_or(dst + 16, 1), 0u);
}

TEST_P(OsTest, FreeUnicodeStringOnEmptyStructIsOk) {
  const std::uint64_t s = OsApi::kStructSlot;
  const std::uint64_t zero[3] = {};
  ASSERT_TRUE(api_.write_bytes(s, zero, sizeof zero));
  EXPECT_TRUE(api_.rtl_free_unicode_string(s).ok());
}

TEST_P(OsTest, CloseHandleWrapsNtClose) {
  kernel_.disk().add_file("/f", {'x'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.close_handle(h.value).value, 1);
  EXPECT_EQ(api_.close_handle(h.value).value, 0);  // already closed
  EXPECT_EQ(api_.close_handle(0).value, 0);
}

TEST_P(OsTest, ReadFileWrapperReportsBytes) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  const auto r = api_.read_file(h.value, 0x150000, 10, OsApi::kOutSlot);
  EXPECT_EQ(r.value, 1);  // success BOOL
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 0), 3u);
  const auto bad = api_.read_file(999, 0x150000, 10, OsApi::kOutSlot);
  EXPECT_EQ(bad.value, 0);
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 7), 0u);
}

TEST_P(OsTest, WriteFileWrapperWritesToDisk) {
  const auto h = api_.nt_create_file(guest_path("/log"));
  ASSERT_GT(h.value, 0);
  ASSERT_TRUE(api_.write_bytes(0x150000, "entry", 5));
  const auto r = api_.write_file(h.value, 0x150000, 5, OsApi::kOutSlot);
  EXPECT_EQ(r.value, 1);
  EXPECT_EQ(api_.read_u64_or(OsApi::kOutSlot, 0), 5u);
  const auto content = kernel_.disk().content("/log");
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(std::string(content->begin(), content->end()), "entry");
}

TEST_P(OsTest, SetFilePointerSeeks) {
  kernel_.disk().add_file("/f", {'a', 'b', 'c', 'd'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  EXPECT_EQ(api_.set_file_pointer(h.value, 2).value, 2);
  EXPECT_EQ(api_.nt_read_file(h.value, 0x150000, 1).value, 1);
  char c = 0;
  api_.read_bytes(0x150000, &c, 1);
  EXPECT_EQ(c, 'c');
  EXPECT_EQ(api_.set_file_pointer(h.value, -1).value, -1);
  EXPECT_EQ(api_.set_file_pointer(999, 0).value, -1);
}

TEST_P(OsTest, GetLongPathNameCopies) {
  const auto src = guest_wide("/www/a.html");
  const auto n = api_.get_long_path_name(src, 0x150000, 64);
  EXPECT_EQ(n.value, 11);
  std::uint8_t lo = 0;
  kernel_.machine().read_u8(0x150000 + 2 * 2, lo);  // third char
  EXPECT_EQ(lo, 'w');
}

TEST_P(OsTest, ApiCallsAreObservable) {
  std::vector<std::string> calls;
  api_.set_post_call_hook(
      [&](const std::string& n, const ApiResult&) { calls.push_back(n); });
  api_.rtl_alloc(32);
  api_.nt_close(0);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], "RtlAllocateHeap");
  EXPECT_EQ(calls[1], "NtClose");
  EXPECT_EQ(api_.call_count(), 2u);
  EXPECT_GT(api_.total_cycles(), 0u);
}

TEST_P(OsTest, RebootResetsHeapAndHandles) {
  kernel_.disk().add_file("/f", {'x'});
  const auto h = api_.nt_open_file(guest_path("/f"));
  ASSERT_GT(h.value, 0);
  const auto p = api_.rtl_alloc(128);
  ASSERT_GT(p.value, 0);
  kernel_.reboot();
  // Handle table wiped, heap back to a full arena.
  EXPECT_LT(api_.nt_read_file(h.value, 0x150000, 1).value, 0);
  const auto p2 = api_.rtl_alloc(128);
  EXPECT_EQ(p2.value, p.value);  // identical first block after reset
  // Disk contents survive a reboot.
  EXPECT_TRUE(kernel_.disk().content("/f").has_value());
}

TEST_P(OsTest, UnknownApiNameThrows) {
  EXPECT_THROW(api_.call("NtBogus", {}), std::out_of_range);
}

// --- host path utilities ----------------------------------------------------

TEST(PathUtils, Normalize) {
  EXPECT_EQ(normalize_path("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(normalize_path("a\\b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/../b"), "/b");
  EXPECT_EQ(normalize_path("/../../x"), "/x");
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/"), "/");
}

TEST(PathUtils, Join) {
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "/b"), "/a/b");
  EXPECT_EQ(join_path("/a/", "b"), "/a/b");
  EXPECT_EQ(join_path("", "b"), "b");
}

TEST(PathUtils, Extension) {
  EXPECT_EQ(path_extension("/x/a.HTML"), "html");
  EXPECT_EQ(path_extension("/x/a"), "");
  EXPECT_EQ(path_extension("/x.d/a"), "");
}

TEST(PathUtils, ValidRequestPath) {
  EXPECT_TRUE(is_valid_request_path("/index.html"));
  EXPECT_FALSE(is_valid_request_path("index.html"));
  EXPECT_FALSE(is_valid_request_path(""));
  EXPECT_FALSE(is_valid_request_path(std::string("/a\x01b")));
}

// --- disk --------------------------------------------------------------------

TEST(SimDisk, CreateFindReadWrite) {
  SimDisk d;
  EXPECT_FALSE(d.find("/x").has_value());
  const int id = d.create("/x");
  EXPECT_EQ(d.find("/x"), id);
  const std::uint8_t data[] = {1, 2, 3};
  EXPECT_EQ(d.write(id, 0, data, 3), 3);
  EXPECT_EQ(d.size(id), 3);
  std::uint8_t v[2] = {};
  EXPECT_EQ(d.read(id, 1, v), 2);
  EXPECT_EQ(v[0], 2);
}

TEST(SimDisk, WriteExtendsWithZeros) {
  SimDisk d;
  const int id = d.create("/x");
  const std::uint8_t b = 9;
  EXPECT_EQ(d.write(id, 5, &b, 1), 1);
  EXPECT_EQ(d.size(id), 6);
  std::uint8_t v[6];
  std::fill(std::begin(v), std::end(v), 0xEE);
  EXPECT_EQ(d.read(id, 0, v), 6);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[5], 9);
}

TEST(SimDisk, ViewIsClippedAtEof) {
  SimDisk d;
  const int id = d.add_file("/x", {1, 2, 3});
  std::uint8_t buf[100];
  EXPECT_EQ(d.read(id, 1, buf), 2);
  EXPECT_EQ(d.read_size(id, 1, 100), 2);
  EXPECT_EQ(d.read(id, 3, std::span(buf, 1)), 0);
  EXPECT_EQ(d.read(id, 1000, std::span(buf, 1)), 0);
  EXPECT_EQ(d.read(id, 0, std::span(buf, 0)), 0);
  EXPECT_FALSE(d.read(id, -1, std::span(buf, 1)).has_value());
  EXPECT_FALSE(d.read_size(id, 0, -1).has_value());
}

TEST(SimDisk, BadIdsRejected) {
  SimDisk d;
  std::uint8_t b = 0;
  EXPECT_FALSE(d.read(0, 0, std::span(&b, 1)).has_value());
  EXPECT_FALSE(d.write(-1, 0, &b, 1).has_value());
  EXPECT_FALSE(d.size(3).has_value());
}

// Write positions come from guest memory that a fault can corrupt. A huge
// offset must fail like a device error, not throw bad_alloc out of the
// syscall handler or overflow offset + len.
TEST(SimDisk, WritePastMaxFileSizeFails) {
  SimDisk d;
  const int id = d.add_file("/x", {1, 2, 3});
  const std::uint8_t b[2] = {7, 8};
  EXPECT_FALSE(d.write(id, std::int64_t{1} << 50, b, 1).has_value());
  EXPECT_FALSE(d.write(id, SimDisk::kMaxFileSize, b, 1).has_value());
  EXPECT_FALSE(d.write(id, SimDisk::kMaxFileSize - 1, b, 2).has_value());
  EXPECT_EQ(d.size(id), 3);
}

TEST(SimDisk, WriteNearInt64MaxFails) {
  SimDisk d;
  const int id = d.add_file("/x", {1, 2, 3});
  const std::uint8_t b[2] = {7, 8};
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(d.write(id, kMax, b, 1).has_value());
  EXPECT_FALSE(d.write(id, kMax - 1, b, 2).has_value());
  EXPECT_FALSE(d.write(id, 0, b, kMax).has_value());
  EXPECT_EQ(d.size(id), 3);
}

TEST(SimDisk, CreateTruncatesExisting) {
  SimDisk d;
  d.add_file("/x", {1, 2, 3});
  d.create("/x");
  EXPECT_EQ(d.size(*d.find("/x")), 0);
}

// --- sparse disk ---------------------------------------------------------------

constexpr std::int64_t kPage = SimDisk::kPageSize;

// A write's host cost is the non-zero pages it leaves, never its offset.
TEST(SimDisk, FarWriteStoresOnePage) {
  SimDisk d;
  const int id = d.create("/x");
  const std::vector<std::uint8_t> page(kPage, 0x5A);
  EXPECT_EQ(d.write(id, SimDisk::kMaxFileSize - kPage, page.data(), kPage), kPage);
  EXPECT_EQ(d.size(id), SimDisk::kMaxFileSize);
  EXPECT_EQ(d.stored_bytes(id), kPage);
  std::vector<std::uint8_t> back(3 * kPage, 0xEE);
  EXPECT_EQ(d.read(id, SimDisk::kMaxFileSize - 2 * kPage, back), 2 * kPage);
  EXPECT_TRUE(std::all_of(back.begin(), back.begin() + kPage,
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::equal(page.begin(), page.end(), back.begin() + kPage));
}

// ... nor its length: a 4 MiB write from a guest range with k non-zero pages
// stores at most k + 2 pages, and an all-zero one stores none.
TEST(SimDisk, MostlyZeroGuestWriteStoresItsNonZeroPages) {
  constexpr std::uint64_t kLen = 4u << 20;
  constexpr std::uint64_t kSrc = 0x200000;
  vm::Machine m;
  SimDisk d;
  const std::vector<std::uint8_t> page(kPage, 0x77);
  const int zero = d.create("/zero");
  EXPECT_EQ(d.write(zero, 12345, m.raw(kSrc, kLen), kLen),
            static_cast<std::int64_t>(kLen));
  EXPECT_EQ(d.size(zero), 12345 + static_cast<std::int64_t>(kLen));
  EXPECT_EQ(d.stored_bytes(zero), 0);

  // Scattered non-zero pages, file offset in step with the guest pages.
  const std::int64_t k = 5;
  for (const std::uint64_t at : {0u, 7u, 100u, 511u, 1023u}) {
    ASSERT_TRUE(m.write_bytes(kSrc + at * kPage, page.data(), kPage));
  }
  const int scattered = d.create("/scattered");
  d.write(scattered, 3 * kPage, m.raw(kSrc, kLen), kLen);
  EXPECT_LE(d.stored_bytes(scattered), (k + 2) * kPage);
  EXPECT_EQ(d.stored_bytes(scattered), k * kPage);

  // A contiguous non-zero block at an offset out of step with the pages.
  vm::Machine block;
  for (std::int64_t i = 0; i < k; ++i) {
    ASSERT_TRUE(block.write_bytes(kSrc + (300 + i) * kPage, page.data(), kPage));
  }
  const int shifted = d.create("/shifted");
  d.write(shifted, 1000, block.raw(kSrc, kLen), kLen);
  EXPECT_LE(d.stored_bytes(shifted), (k + 2) * kPage);
  std::vector<std::uint8_t> back(static_cast<std::size_t>(kLen));
  ASSERT_EQ(d.read(shifted, 1000, back), static_cast<std::int64_t>(kLen));
  EXPECT_TRUE(std::equal(back.begin(), back.end(), block.raw(kSrc, kLen)));
}

// Zeros written over a page's last non-zero bytes free the page.
TEST(SimDisk, ZeroWritesReleasePages) {
  SimDisk d;
  const int id = d.add_file("/x", std::vector<std::uint8_t>(3 * kPage, 1));
  EXPECT_EQ(d.stored_bytes(id), 3 * kPage);
  const std::vector<std::uint8_t> zeros(kPage + 10, 0);
  d.write(id, kPage - 5, zeros.data(), kPage);
  EXPECT_EQ(d.stored_bytes(id), 3 * kPage);  // both edge pages keep bytes
  d.write(id, kPage, zeros.data(), kPage);
  EXPECT_EQ(d.stored_bytes(id), 2 * kPage);
  EXPECT_EQ(d.size(id), 3 * kPage);
}

// Flat reference for one file: its bytes below kNear in a vector, and the
// writes that reach kNear or past it in a log read last-writer-wins (a flat
// vector of a 1 GiB file is not an option).
struct FlatFile {
  static constexpr std::int64_t kNear = 32 * kPage;
  std::int64_t size = 0;
  std::vector<std::uint8_t> near;
  std::vector<std::pair<std::int64_t, std::vector<std::uint8_t>>> far;

  void write(std::int64_t off, const std::vector<std::uint8_t>& src) {
    const auto len = static_cast<std::int64_t>(src.size());
    size = std::max(size, off + len);
    near.resize(static_cast<std::size_t>(std::min(size, kNear)), 0);
    for (std::int64_t i = 0; i < len && off + i < kNear; ++i) {
      near[static_cast<std::size_t>(off + i)] = src[static_cast<std::size_t>(i)];
    }
    if (off + len > kNear) far.emplace_back(off, src);
  }
  std::uint8_t at(std::int64_t x) const {
    if (x < kNear) return near[static_cast<std::size_t>(x)];
    for (auto it = far.rbegin(); it != far.rend(); ++it) {
      const auto rel = x - it->first;
      if (rel >= 0 && rel < static_cast<std::int64_t>(it->second.size())) {
        return it->second[static_cast<std::size_t>(rel)];
      }
    }
    return 0;
  }
  std::int64_t nonzero_pages() const {
    std::set<std::int64_t> pages;
    for (std::size_t at = 0; at < near.size(); at += kPage) {
      const auto n = std::min<std::size_t>(kPage, near.size() - at);
      const auto* p = near.data() + at;
      if (p[0] != 0 || std::memcmp(p, p + 1, n - 1) != 0) pages.insert(at / kPage);
    }
    std::set<std::int64_t> far_pages;
    for (const auto& [off, src] : far) {
      const auto end = off + static_cast<std::int64_t>(src.size());
      for (auto p = std::max(off, kNear) / kPage; p * kPage < end; ++p) far_pages.insert(p);
    }
    for (const auto p : far_pages) {
      for (auto x = p * kPage; x < std::min(size, (p + 1) * kPage); ++x) {
        if (at(x) != 0) {
          pages.insert(p);
          break;
        }
      }
    }
    return static_cast<std::int64_t>(pages.size());
  }
};

// Seeded random operations on the sparse disk and on copies of it must read
// exactly like the flat reference: creates, truncations and whole-content
// replacements; dense and
// mostly-zero writes at random, page-straddling and far offsets; reads
// across holes and past EOF; copies written on either side.
TEST(SimDisk, MatchesFlatReferenceUnderRandomOperations) {
  constexpr int kFiles = 6;
  struct World {
    SimDisk disk;
    std::vector<FlatFile> files;
  };
  std::mt19937_64 rng(29);
  auto below = [&rng](std::int64_t n) {
    return n <= 0 ? 0 : static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  };
  std::vector<World> worlds(1);
  for (int f = 0; f < kFiles; ++f) worlds[0].disk.create("/f" + std::to_string(f));
  worlds[0].files.resize(kFiles);

  auto check_range = [](const World& w, int id, std::int64_t off, std::int64_t len) {
    const auto& ref = w.files[static_cast<std::size_t>(id)];
    std::vector<std::uint8_t> got(static_cast<std::size_t>(len), 0xEE);
    const auto n = w.disk.read(id, off, got);
    const auto count = off >= ref.size ? 0 : std::min(len, ref.size - off);
    ASSERT_EQ(n, count) << "file " << id << " off " << off << " len " << len;
    std::vector<std::uint8_t> want(got.size(), 0xEE);
    for (std::int64_t i = 0; i < count; ++i) {
      want[static_cast<std::size_t>(i)] = ref.at(off + i);
    }
    ASSERT_TRUE(got == want) << "file " << id << " off " << off << " len " << len;
  };
  auto check_file = [&](const World& w, int id) {
    const auto& ref = w.files[static_cast<std::size_t>(id)];
    ASSERT_EQ(w.disk.size(id), ref.size) << "file " << id;
    ASSERT_EQ(w.disk.stored_bytes(id), ref.nonzero_pages() * kPage) << "file " << id;
    check_range(w, id, 0, static_cast<std::int64_t>(ref.near.size()));
    for (const auto& [off, src] : ref.far) {
      check_range(w, id, std::max<std::int64_t>(0, off - kPage),
                  static_cast<std::int64_t>(src.size()) + 2 * kPage);
    }
  };

  for (int op = 0; op < 3000; ++op) {
    auto& w = worlds[static_cast<std::size_t>(below(static_cast<std::int64_t>(worlds.size())))];
    const int id = static_cast<int>(below(kFiles));
    auto& ref = w.files[static_cast<std::size_t>(id)];
    const auto kind = below(100);
    if (kind < 3) {  // truncate
      EXPECT_EQ(w.disk.create("/f" + std::to_string(id)), id);
      ref = FlatFile{};
    } else if (kind < 5) {  // replace with content, some pages all zero
      std::vector<std::uint8_t> content(static_cast<std::size_t>(below(8 * kPage)), 0);
      for (std::size_t at = 0; at < content.size(); at += kPage) {
        if (below(3) == 0) continue;
        for (auto i = at; i < std::min(content.size(), at + kPage); ++i) {
          content[i] = static_cast<std::uint8_t>(rng());
        }
      }
      EXPECT_EQ(w.disk.add_file("/f" + std::to_string(id), content), id);
      ref = FlatFile{};
      ref.write(0, content);
      ASSERT_EQ(w.disk.stored_bytes(id), ref.nonzero_pages() * kPage) << "op " << op;
    } else if (kind < 8) {  // copy a disk, then write on either side
      if (worlds.size() < 3) {
        worlds.push_back(w);
      } else {
        worlds[static_cast<std::size_t>(below(3))] = w;
      }
    } else if (kind < 55) {  // write
      const auto len = below(4) == 0 ? below(8 * kPage) : 1 + below(3 * kPage);
      std::vector<std::uint8_t> src(static_cast<std::size_t>(len), 0);
      const auto source = below(3);
      if (source == 0) {  // dense
        for (auto& b : src) b = static_cast<std::uint8_t>(rng());
      } else if (source == 1 && len > 0) {  // mostly zero
        for (auto i = below(4); i > 0; --i) {
          src[static_cast<std::size_t>(below(len))] = static_cast<std::uint8_t>(1 + below(255));
        }
      }  // else all zero
      std::int64_t off = 0;
      const auto where = below(10);
      if (where < 4) {
        off = below(FlatFile::kNear - len);
      } else if (where < 7) {  // straddle a page edge
        off = std::max<std::int64_t>(0, (1 + below(20)) * kPage - below(len + 1));
      } else if (where < 9) {  // far
        off = FlatFile::kNear + below(SimDisk::kMaxFileSize - len - FlatFile::kNear + 1);
      } else {
        off = SimDisk::kMaxFileSize - len;
      }
      if (below(20) == 0) {  // past the size bound: refused, nothing changes
        ASSERT_FALSE(w.disk.write(id, SimDisk::kMaxFileSize - len + 1 + below(kPage),
                                  src.data(), len)
                         .has_value());
      } else {
        ASSERT_EQ(w.disk.write(id, off, src.data(), len), len);
        ref.write(off, src);
      }
      ASSERT_EQ(w.disk.size(id), ref.size);
      ASSERT_EQ(w.disk.stored_bytes(id), ref.nonzero_pages() * kPage) << "op " << op;
    } else {  // read: across holes, around far writes, past EOF
      const auto len = below(4) == 0 ? below(12 * kPage) : below(2 * kPage);
      std::int64_t off = below(ref.size + 2 * kPage);
      if (!ref.far.empty() && below(2) == 0) {
        const auto& [at, src] = ref.far[static_cast<std::size_t>(below(static_cast<std::int64_t>(ref.far.size())))];
        off = std::max<std::int64_t>(0, at - kPage + below(static_cast<std::int64_t>(src.size()) + kPage));
      }
      check_range(w, id, off, len);
      EXPECT_FALSE(w.disk.read_size(id, -1 - below(kPage), len).has_value());
      EXPECT_FALSE(w.disk.read_size(id, off, -1).has_value());
    }
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 500 != 499) continue;
    for (const auto& each : worlds) {
      for (int f = 0; f < kFiles; ++f) {
        check_file(each, f);
        if (::testing::Test::HasFatalFailure()) return;
        // Equal content compares equal across disks, however it was written.
        const auto& a = each.files[static_cast<std::size_t>(f)];
        const auto& b = worlds[0].files[static_cast<std::size_t>(f)];
        if (a.far.empty() && b.far.empty()) {
          EXPECT_EQ(each.disk.same_content(worlds[0].disk, "/f" + std::to_string(f)),
                    a.size == b.size && a.near == b.near);
        }
      }
    }
  }
  for (const auto& w : worlds) {
    for (int id = 0; id < kFiles; ++id) {
      check_file(w, id);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gf::os
