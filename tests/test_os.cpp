// Tests for the VOS kernel and the MiniC implementations of the 21 API
// functions, for both OS versions. These run real guest code on the VM.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "os/api.h"
#include "os/filesystem.h"
#include "os/kernel.h"
#include "os/layout.h"

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

// kSysDiskRead copies from a view of the file straight into guest memory;
// each of its outcomes (-1, 0, n, memory trap) must reach the API caller
// unchanged.
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
  const auto* content = kernel_.disk().content("/log");
  ASSERT_NE(content, nullptr);
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
  EXPECT_NE(kernel_.disk().content("/f"), nullptr);
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
  const auto v = d.view(id, 1, 2);
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->size(), 2u);
  EXPECT_EQ((*v)[0], 2);
}

TEST(SimDisk, WriteExtendsWithZeros) {
  SimDisk d;
  const int id = d.create("/x");
  const std::uint8_t b = 9;
  EXPECT_EQ(d.write(id, 5, &b, 1), 1);
  EXPECT_EQ(d.size(id), 6);
  const auto v = d.view(id, 0, 6);
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->size(), 6u);
  EXPECT_EQ((*v)[0], 0);
  EXPECT_EQ((*v)[5], 9);
}

TEST(SimDisk, ViewIsClippedAtEof) {
  SimDisk d;
  const int id = d.add_file("/x", {1, 2, 3});
  EXPECT_EQ(d.view(id, 1, 100).value().size(), 2u);
  EXPECT_TRUE(d.view(id, 3, 1).value().empty());
  EXPECT_TRUE(d.view(id, 1000, 1).value().empty());
  EXPECT_TRUE(d.view(id, 0, 0).value().empty());
  EXPECT_FALSE(d.view(id, -1, 1).has_value());
  EXPECT_FALSE(d.view(id, 0, -1).has_value());
}

TEST(SimDisk, BadIdsRejected) {
  SimDisk d;
  std::uint8_t b = 0;
  EXPECT_FALSE(d.view(0, 0, 1).has_value());
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

}  // namespace
}  // namespace gf::os
