#include "os/api.h"

#include <algorithm>

namespace gf::os {

OsApi::OsApi(Kernel& kernel, std::uint64_t cycle_budget)
    : kernel_(kernel), cycle_budget_(cycle_budget) {}

ApiResult OsApi::call(const std::string& name,
                      const std::vector<std::int64_t>& args) {
  const auto addr = kernel_.api_addr(name);
  const auto r = kernel_.machine().call(addr, args, cycle_budget_);
  ++call_count_;
  total_cycles_ += r.cycles;
  ApiResult out;
  out.completed = r.ok();
  out.value = r.ret;
  out.trap = r.trap;
  out.cycles = r.cycles;
  if (metrics_) {
    metrics_->record(name, r.cycles, out.ok(), out.crashed(), out.hung());
  }
  if (post_hook_) post_hook_(name, out);
  return out;
}

ApiResult OsApi::nt_close(std::int64_t h) { return call("NtClose", {h}); }

ApiResult OsApi::nt_create_file(std::uint64_t path_addr) {
  return call("NtCreateFile", {static_cast<std::int64_t>(path_addr)});
}

ApiResult OsApi::nt_open_file(std::uint64_t path_addr) {
  return call("NtOpenFile", {static_cast<std::int64_t>(path_addr)});
}

ApiResult OsApi::nt_read_file(std::int64_t h, std::uint64_t buf, std::int64_t len) {
  return call("NtReadFile", {h, static_cast<std::int64_t>(buf), len});
}

ApiResult OsApi::nt_write_file(std::int64_t h, std::uint64_t buf, std::int64_t len) {
  return call("NtWriteFile", {h, static_cast<std::int64_t>(buf), len});
}

ApiResult OsApi::nt_protect_vm(std::uint64_t addr, std::int64_t size,
                               std::int64_t prot) {
  return call("NtProtectVirtualMemory",
              {static_cast<std::int64_t>(addr), size, prot});
}

ApiResult OsApi::nt_query_vm(std::uint64_t addr, std::uint64_t info) {
  return call("NtQueryVirtualMemory",
              {static_cast<std::int64_t>(addr), static_cast<std::int64_t>(info)});
}

ApiResult OsApi::rtl_alloc(std::int64_t size) {
  return call("RtlAllocateHeap", {size});
}

ApiResult OsApi::rtl_free(std::uint64_t ptr) {
  return call("RtlFreeHeap", {static_cast<std::int64_t>(ptr)});
}

ApiResult OsApi::rtl_enter_cs(std::uint64_t cs) {
  return call("RtlEnterCriticalSection", {static_cast<std::int64_t>(cs)});
}

ApiResult OsApi::rtl_leave_cs(std::uint64_t cs) {
  return call("RtlLeaveCriticalSection", {static_cast<std::int64_t>(cs)});
}

ApiResult OsApi::rtl_init_ansi_string(std::uint64_t dst, std::uint64_t src) {
  return call("RtlInitAnsiString",
              {static_cast<std::int64_t>(dst), static_cast<std::int64_t>(src)});
}

ApiResult OsApi::rtl_init_unicode_string(std::uint64_t dst, std::uint64_t src) {
  return call("RtlInitUnicodeString",
              {static_cast<std::int64_t>(dst), static_cast<std::int64_t>(src)});
}

ApiResult OsApi::rtl_unicode_to_multibyte(std::uint64_t dst, std::int64_t dst_max,
                                          std::uint64_t src,
                                          std::int64_t src_bytes) {
  return call("RtlUnicodeToMultiByteN",
              {static_cast<std::int64_t>(dst), dst_max,
               static_cast<std::int64_t>(src), src_bytes});
}

ApiResult OsApi::rtl_free_unicode_string(std::uint64_t s) {
  return call("RtlFreeUnicodeString", {static_cast<std::int64_t>(s)});
}

ApiResult OsApi::rtl_dos_path_to_nt(std::uint64_t src, std::uint64_t dst) {
  return call("RtlDosPathNameToNtPathName_U",
              {static_cast<std::int64_t>(src), static_cast<std::int64_t>(dst)});
}

ApiResult OsApi::close_handle(std::int64_t h) { return call("CloseHandle", {h}); }

ApiResult OsApi::read_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                           std::uint64_t out_read) {
  return call("ReadFile", {h, static_cast<std::int64_t>(buf), len,
                           static_cast<std::int64_t>(out_read)});
}

ApiResult OsApi::write_file(std::int64_t h, std::uint64_t buf, std::int64_t len,
                            std::uint64_t out_written) {
  return call("WriteFile", {h, static_cast<std::int64_t>(buf), len,
                            static_cast<std::int64_t>(out_written)});
}

ApiResult OsApi::set_file_pointer(std::int64_t h, std::int64_t pos) {
  return call("SetFilePointer", {h, pos});
}

ApiResult OsApi::get_long_path_name(std::uint64_t src, std::uint64_t dst,
                                    std::int64_t dst_chars) {
  return call("GetLongPathNameW",
              {static_cast<std::int64_t>(src), static_cast<std::int64_t>(dst),
               dst_chars});
}

bool OsApi::write_cstr(std::uint64_t addr, const std::string& s) {
  if (!kernel_.machine().write_bytes(addr, s.data(), s.size())) return false;
  return kernel_.machine().write_u8(addr + s.size(), 0);
}

bool OsApi::write_wstr(std::uint64_t addr, const std::string& s) {
  // The UTF-16LE bytes (terminator included) are built on the host and
  // stored in one checked write. Outcome as a store of byte after byte: a
  // start in the null page or past memory writes nothing, and a string
  // running off the end of memory keeps its in-range prefix, then fails.
  auto& m = kernel_.machine();
  if (addr < vm::Machine::kNullPageSize || addr >= m.mem_size()) return false;
  std::string wide((s.size() + 1) * 2, '\0');
  for (std::size_t i = 0; i < s.size(); ++i) wide[i * 2] = s[i];
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(wide.size(), m.mem_size() - addr));
  return m.write_bytes(addr, wide.data(), n) && n == wide.size();
}

bool OsApi::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  return kernel_.machine().read_bytes(addr, out, n);
}

bool OsApi::readable(std::uint64_t addr, std::size_t n) const {
  return n == 0 || (addr >= vm::Machine::kNullPageSize &&
                    kernel_.machine().raw(addr, n) != nullptr);
}

bool OsApi::write_bytes(std::uint64_t addr, const void* data, std::size_t n) {
  return kernel_.machine().write_bytes(addr, data, n);
}

std::uint64_t OsApi::read_u64_or(std::uint64_t addr, std::uint64_t fallback) const {
  std::uint64_t v = 0;
  if (!kernel_.machine().read_u64(addr, v)) return fallback;
  return v;
}

}  // namespace gf::os
