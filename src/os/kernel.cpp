#include "os/kernel.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "minic/compiler.h"

namespace gf::os {

namespace lay = layout;

namespace {

// Collapses a raw write log into byte-level last-write-wins spans: each byte
// a boot wrote appears once with its final value, and adjacent bytes merge
// into one run. Correct for any overlap pattern, and it turns the boot's
// ~hundred store-sized records (page-table loop, stack slots) into a handful
// of contiguous memcpys for the replay path.
std::vector<vm::WriteSpan> coalesce_spans(const std::vector<vm::WriteSpan>& raw) {
  std::map<std::uint64_t, std::uint8_t> bytes;
  for (const auto& w : raw) {
    for (std::size_t i = 0; i < w.bytes.size(); ++i) bytes[w.addr + i] = w.bytes[i];
  }
  std::vector<vm::WriteSpan> out;
  for (const auto& [addr, b] : bytes) {
    if (!out.empty() && out.back().addr + out.back().bytes.size() == addr) {
      out.back().bytes.push_back(b);
    } else {
      out.push_back({addr, {b}});
    }
  }
  return out;
}

}  // namespace

Kernel::Kernel(OsVersion version)
    : version_(version),
      pristine_(minic::compile(
          {common_source(), ntdll_source(version), kernel32_source(version)},
          std::string("vos-") + os_version_name(version), lay::kCodeBase)),
      pristine_digest_(pristine_.code_digest()),
      active_(pristine_),
      machine_(std::make_unique<vm::Machine>(lay::kMemSize)) {
  machine_->load_image(active_);
  install_machine_hooks();
  reboot();
}

Kernel::Kernel(const KernelSnapshot& snap)
    : version_(snap.version),
      disk_(snap.disk),
      pristine_(snap.pristine),
      pristine_digest_(snap.pristine_digest),
      active_(snap.active),
      machine_(std::make_unique<vm::Machine>(snap.machine)),
      boot_(snap.boot),
      tick_(snap.ticks) {
  // The snapshot memory already holds the active image's bytes: register
  // the executable range and decode once, no zero-fill and no second copy.
  machine_->map_image(active_);
  install_machine_hooks();
}

void Kernel::reset_to(const KernelSnapshot& snap) {
  if (snap.version != version_) {
    throw std::invalid_argument("kernel reset to another OS version's snapshot");
  }
  disk_ = snap.disk;  // copy-on-write: shares the file buffers
  tick_ = snap.ticks;
  boot_ = snap.boot;
  // The injector restores every patch it makes, so the active image almost
  // always still equals the snapshot's; compare before paying for a copy.
  const auto have = active_.code();
  const auto want = snap.active.code();
  if (have.size() != want.size() ||
      std::memcmp(have.data(), want.data(), want.size()) != 0) {
    active_ = snap.active;
  }
  machine_->restore(snap.machine);
}

void Kernel::install_machine_hooks() {
  machine_->set_stack_region(lay::kStackLo, lay::kStackHi);
  machine_->set_syscall_handler(
      [this](vm::Machine& m, std::int32_t num) { return handle_syscall(m, num); });
}

KernelSnapshot Kernel::snapshot() {
  KernelSnapshot s;
  s.version = version_;
  s.pristine = pristine_;
  s.pristine_digest = pristine_digest_;
  s.active = active_;
  s.machine = machine_->snapshot();
  s.boot = boot_;
  s.disk = disk_;
  s.ticks = tick_;
  return s;
}

void Kernel::sync_code() {
  ++counters_.code_syncs;
  machine_->reload_code(active_);
}

void Kernel::sync_code(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return;
  ++counters_.code_syncs;
  if (addr < active_.base() || addr + len > active_.end()) {
    sync_code();  // out-of-image window: fall back to the full copy
    return;
  }
  const auto off = static_cast<std::size_t>(addr - active_.base());
  machine_->patch_code(addr, active_.code().data() + off,
                       static_cast<std::size_t>(len));
}

std::uint64_t Kernel::api_addr(const std::string& name) const {
  const auto* sym = active_.find_symbol(name);
  if (sym == nullptr) throw std::out_of_range("no such API function: " + name);
  return sym->addr;
}

void Kernel::reboot() {
  ++counters_.reboots;
  if (warm_reboot_ && boot_ != nullptr && boot_code_intact()) {
    replay_boot();
    return;
  }
  cold_boot();
}

void Kernel::cold_boot() {
  ++counters_.cold_boots;
  // Zero the kernel data region (heap control, handle table, page table);
  // the machine writes only the pages that can hold a non-zero byte.
  machine_->zero(lay::kHeapCtl, lay::kScratch - lay::kHeapCtl);

  // Guest-side boot code builds the initial heap and page table.
  const auto* heap_init = pristine_.find_symbol("heap_init");
  const auto* vm_init = pristine_.find_symbol("vm_init");
  if (heap_init == nullptr || vm_init == nullptr) {
    throw std::runtime_error("OS image is missing boot symbols");
  }
  // The very first boot additionally records its memory effect: the boot
  // path is pure deterministic stores over the region just zeroed, so the
  // write log (plus cycle/flag deltas) is a complete replacement for
  // re-executing it on every later reboot.
  const bool record = boot_ == nullptr;
  const std::uint64_t cycles0 = machine_->total_cycles();
  if (record) machine_->begin_write_capture();
  // Boot runs against pristine code even when faults are injected: a real
  // reboot reloads the (possibly still faulty) module, but the *boot path*
  // (heap_init/vm_init) is not part of the API fault-injection surface, so
  // running it from the active image is equally fine — keep active to stay
  // faithful to "the fault persists until removed".
  const auto r1 = machine_->call(heap_init->addr, {}, 1u << 20);
  const auto r2 = machine_->call(vm_init->addr, {}, 1u << 20);
  if (!r1.ok() || !r2.ok()) {
    if (record) machine_->end_write_capture();
    throw std::runtime_error("VOS boot failed");
  }
  if (record) {
    auto replay = std::make_shared<BootReplay>();
    replay->writes = coalesce_spans(machine_->end_write_capture());
    replay->cycles = machine_->total_cycles() - cycles0;
    replay->flags = machine_->cmp_flags();
    replay->code = {{heap_init->addr, heap_init->size},
                    {vm_init->addr, vm_init->size}};
    boot_ = std::move(replay);
  }
}

bool Kernel::boot_code_intact() const noexcept {
  // An injected (or wildly-stored) mutation of the boot code itself must
  // keep producing cold-boot semantics, including "VOS boot failed"; replay
  // is only valid while the boot bytes in VM memory match the pristine
  // image.
  for (const auto& r : boot_->code) {
    const auto* live = machine_->raw(r.addr, static_cast<std::size_t>(r.size));
    if (live == nullptr) return false;
    const auto off = static_cast<std::size_t>(r.addr - pristine_.base());
    if (std::memcmp(live, pristine_.code().data() + off,
                    static_cast<std::size_t>(r.size)) != 0) {
      return false;
    }
  }
  return true;
}

void Kernel::replay_boot() {
  ++counters_.replay_boots;
  machine_->zero(lay::kHeapCtl, lay::kScratch - lay::kHeapCtl);
  for (const auto& w : boot_->writes) {
    machine_->write_bytes(w.addr, w.bytes.data(), w.bytes.size());
  }
  machine_->add_cycles(boot_->cycles);
  machine_->set_cmp_flags(boot_->flags);
}

vm::Trap Kernel::handle_syscall(vm::Machine& m, std::int32_t num) {
  ++counters_.syscalls;
  auto arg = [&m](int i) { return m.reg(isa::kRegArg0 + i); };
  switch (num) {
    case lay::kSysDiskFind: {
      std::string path;
      if (!m.read_cstr(static_cast<std::uint64_t>(arg(0)), path)) {
        return vm::Trap::kBadMemory;
      }
      const auto id = disk_.find(path);
      m.set_reg(0, id ? *id : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysDiskCreate: {
      std::string path;
      if (!m.read_cstr(static_cast<std::uint64_t>(arg(0)), path)) {
        return vm::Trap::kBadMemory;
      }
      m.set_reg(0, disk_.create(path));
      return vm::Trap::kNone;
    }
    case lay::kSysDiskSize: {
      const auto sz = disk_.size(static_cast<int>(arg(0)));
      m.set_reg(0, sz ? *sz : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysDiskRead: {
      const auto id = static_cast<int>(arg(0));
      const auto off = arg(1);
      const auto dst = static_cast<std::uint64_t>(arg(2));
      const auto len = arg(3);
      if (len < 0 || len > static_cast<std::int64_t>(lay::kMemSize)) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      const auto n = disk_.read_size(id, off, len);
      if (!n) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      // Copying into guest memory can fault if the guest passed a bad
      // buffer (e.g. a mutated pointer) — surface that as a memory trap.
      // The whole range is checked under write_bytes' rules before the
      // first byte moves, so a bad buffer leaves guest memory untouched.
      const auto count = static_cast<std::size_t>(*n);
      if (count > 0 && (dst < vm::Machine::kNullPageSize || m.raw(dst, count) == nullptr)) {
        return vm::Trap::kBadMemory;
      }
      // Page by page: a hole reaches the guest as zeros, never as a host
      // buffer of its length.
      static constexpr std::uint8_t kZeros[SimDisk::kPageSize] = {};
      auto at = dst;
      disk_.read_runs(id, off, *n, [&](const std::uint8_t* data, std::size_t k) {
        if (data != nullptr) {
          m.write_bytes(at, data, k);
        } else {
          for (std::size_t done = 0; done < k; done += sizeof kZeros) {
            m.write_bytes(at + done, kZeros, std::min(k - done, sizeof kZeros));
          }
        }
        at += k;
      });
      m.set_reg(0, *n);
      return vm::Trap::kNone;
    }
    case lay::kSysDiskWrite: {
      const auto id = static_cast<int>(arg(0));
      const auto off = arg(1);
      const auto src = static_cast<std::uint64_t>(arg(2));
      const auto len = arg(3);
      if (len < 0 || len > static_cast<std::int64_t>(lay::kMemSize)) {
        m.set_reg(0, -1);
        return vm::Trap::kNone;
      }
      // One checked guest read, under read_bytes' rules: a zero-length
      // source is never dereferenced, otherwise the null page is unmapped.
      const auto n = static_cast<std::size_t>(len);
      const auto* bytes = src < vm::Machine::kNullPageSize ? nullptr : m.raw(src, n);
      if (n > 0 && bytes == nullptr) return vm::Trap::kBadMemory;
      const auto w = disk_.write(id, off, bytes, len);
      m.set_reg(0, w ? *w : -1);
      return vm::Trap::kNone;
    }
    case lay::kSysTick:
      m.set_reg(0, static_cast<std::int64_t>(++tick_));
      return vm::Trap::kNone;
    case lay::kSysDebug:
      m.set_reg(0, 0);
      return vm::Trap::kNone;
    default:
      // Unknown intrinsic — this can only happen through a mutated SYS
      // immediate; treat it as an illegal instruction.
      return vm::Trap::kBadOpcode;
  }
}

}  // namespace gf::os
