#include "vm/machine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

// Dispatch lowering: computed-goto labels-as-values ("threaded") on
// compilers that support the GNU extension, with the portable switch kept as
// a fallback. The CMake option GF_VM_DISPATCH pins it explicitly; when the
// macro is not injected by the build, auto-detect.
#ifndef GF_VM_THREADED_DISPATCH
#if defined(__GNUC__) || defined(__clang__)
#define GF_VM_THREADED_DISPATCH 1
#else
#define GF_VM_THREADED_DISPATCH 0
#endif
#endif

namespace gf::vm {

using isa::Instr;
using isa::kInstrSize;
using isa::Op;

namespace {

// --- dispatch tokens (xop) --------------------------------------------------
//
// xop_[slot] refines predecoded_[slot].op into one dispatch token so the hot
// loop branches exactly once per handler entry:
//
//   0 .. kOpCount_   the base opcode (kOpCount_ = the undecodable marker)
//   kXBadJump        hole between images: fetch failure folded into dispatch
//   kXArmed          armed watch window: note the hit, single-step the base op
//   kXCmpBr ...      fused pairs, decided at predecode time
//
// plus the kXGlue bit when the fall-through successor slot is statically
// valid, unarmed and in-hull: the dispatch tail may then skip the full fetch
// (hull check, flag byte). Safety: validity and armedness are
// immune to guest writes (invalidate_code re-decodes content but never
// touches flags), and the glue path re-reads predecoded_/xop_ fresh, so a
// stale in-register glue bit can never execute stale bytes. Fused-pair HEADS
// never write memory, so the pair's second Instr, read after the head
// executes, cannot have been invalidated mid-handler; writes by the second
// half only matter at the next dispatch, which reads the tables fresh.
//
// Fusion/glue is disabled entirely inside the armed window (single-step
// contract).
//
// The name list mirrors Op order exactly — static_asserts below pin it.
#define GF_VM_XOPS(X)                                                       \
  X(Nop) X(Halt) X(MovI) X(Mov) X(Ld) X(St) X(LdB) X(StB)                   \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr)      \
  X(AddI) X(Not) X(Neg) X(Cmp) X(CmpI)                                      \
  X(Jmp) X(Jz) X(Jnz) X(Jlt) X(Jle) X(Jgt) X(Jge)                           \
  X(Call) X(CallR) X(Ret) X(Push) X(Pop) X(Sys) X(BadOp)                    \
  X(BadJump) X(Armed)                                                       \
  X(CmpBr)   /* cmp  + conditional branch                  */               \
  X(CmpIBr)  /* cmpi + conditional branch                  */               \
  X(LdLd)    /* ld + ld                                    */               \
  X(LdAlu)   /* ld + 3-op ALU (add/sub/mul/bitops/shifts)  */               \
  X(LdPush)  /* ld + push                                  */               \
  X(MovIAlu) /* movi + 3-op ALU                            */               \
  X(MovPop)  /* mov + pop                                  */               \
  X(AluSt)   /* 3-op ALU + st                              */

enum Xop : std::uint8_t {
#define GF_VM_DEF(name) kX##name,
  GF_VM_XOPS(GF_VM_DEF)
#undef GF_VM_DEF
  kXopCount_
};

constexpr std::uint8_t kXGlue = 0x40;
constexpr std::uint8_t kXopMask = 0x3F;
static_assert(kXNop == static_cast<std::uint8_t>(Op::kNop));
static_assert(kXSys == static_cast<std::uint8_t>(Op::kSys));
static_assert(kXBadOp == static_cast<std::uint8_t>(Op::kOpCount_));
static_assert(kXopCount_ <= kXGlue, "xop tokens must fit below the glue bit");

// The 3-op ALU subset fused pairs admit: single behavior, no traps (div/mod
// keep their own handlers).
constexpr bool fusable_alu(Op op) noexcept {
  switch (op) {
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kAnd:
    case Op::kOr: case Op::kXor: case Op::kShl: case Op::kShr:
      return true;
    default:
      return false;
  }
}

inline std::int64_t alu_eval(Op op, std::int64_t a, std::int64_t b) noexcept {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl:
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                       << (b & 63));
    default:  // kShr — the fuse-time filter admits nothing else
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                       (b & 63));
  }
}

constexpr std::uint64_t alu_cost(Op op) noexcept {
  return op == Op::kMul ? 3u : 1u;
}

// Taken-decision for the fused compare+branch handlers, indexed by
// [branch - kJz][flags + 1]. Row order matches the Op enum.
inline bool branch_taken(Op op, int flags) noexcept {
  static constexpr bool kTaken[6][3] = {
      /* kJz  */ {false, true, false},
      /* kJnz */ {true, false, true},
      /* kJlt */ {true, false, false},
      /* kJle */ {true, true, false},
      /* kJgt */ {false, false, true},
      /* kJge */ {false, true, true},
  };
  return kTaken[static_cast<int>(op) - static_cast<int>(Op::kJz)][flags + 1];
}

}  // namespace

const char* trap_name(Trap t) noexcept {
  switch (t) {
    case Trap::kNone: return "none";
    case Trap::kHalt: return "halt";
    case Trap::kBadMemory: return "bad-memory";
    case Trap::kBadOpcode: return "bad-opcode";
    case Trap::kBadJump: return "bad-jump";
    case Trap::kDivZero: return "div-zero";
    case Trap::kCycleLimit: return "cycle-limit";
    case Trap::kStackFault: return "stack-fault";
  }
  return "?";
}

std::vector<TraceEdge> WatchTrace::edges() const {
  std::vector<TraceEdge> out;
  const std::uint64_t n = edge_count < kEdgeRing ? edge_count : kEdgeRing;
  out.reserve(static_cast<std::size_t>(n));
  // Ring slots are written at edge_count % kEdgeRing; oldest surviving entry
  // starts the chronological order.
  const std::uint64_t first = edge_count - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(ring[static_cast<std::size_t>((first + i) % kEdgeRing)]);
  }
  return out;
}

Machine::Machine(std::size_t mem_size)
    : mem_(mem_size, 0),
      page_state_((mem_size + kDirtyPageSize - 1) >> kDirtyPageShift, 0) {
  // Default stack: top 64 KiB of memory.
  stack_hi_ = mem_.size();
  stack_lo_ = mem_.size() > (64u << 10) ? mem_.size() - (64u << 10) : 0;
}

Machine::Machine(const State& s)
    : mem_(s.mem),
      page_state_((mem_.size() + kDirtyPageSize - 1) >> kDirtyPageShift, 0),
      flags_(s.flags),
      total_cycles_(s.total_cycles) {
  std::memcpy(regs_, s.regs.data(), sizeof regs_);
  stack_hi_ = mem_.size();
  stack_lo_ = mem_.size() > (64u << 10) ? mem_.size() - (64u << 10) : 0;
}

const std::uint8_t* Machine::raw(std::uint64_t addr, std::size_t n) const noexcept {
  if (addr >= mem_.size() || mem_.size() - addr < n) return nullptr;
  return mem_.data() + addr;
}

void Machine::mark_dirty(std::uint64_t addr, std::uint64_t len) noexcept {
  if (len == 0 || addr >= mem_.size()) return;
  if (mem_.size() - addr < len) len = mem_.size() - addr;
  note_write(addr, len);
}

void Machine::clear_dirty(std::uint64_t addr, std::uint64_t len) noexcept {
  if (len == 0 || addr >= mem_.size()) return;
  if (mem_.size() - addr < len) len = mem_.size() - addr;
  for (std::uint64_t p = addr >> kDirtyPageShift,
                     last = (addr + len - 1) >> kDirtyPageShift;
       p <= last; ++p) {
    page_state_[p] &= static_cast<std::uint8_t>(~kPageDirty);
  }
}

void Machine::clear_all_dirty() noexcept { set_page_bit(kPageDirty, false); }

void Machine::set_page_bit(std::uint8_t bit, bool on) noexcept {
  for (auto& ps : page_state_) {
    ps = static_cast<std::uint8_t>(on ? ps | bit : ps & ~bit);
  }
}

Machine::State Machine::snapshot() {
  State s;
  s.mem = mem_;
  std::memcpy(s.regs.data(), regs_, sizeof regs_);
  s.flags = flags_;
  s.total_cycles = total_cycles_;
  clear_all_dirty();
  return s;
}

void Machine::restore(const State& s) {
  if (s.mem.size() != mem_.size()) {
    throw std::runtime_error("machine snapshot size mismatch");
  }
  // Copy back only pages dirtied since snapshot(); pages overlapping the
  // code hull additionally re-decode so the predecode cache never serves
  // instructions for bytes that just changed under it.
  for (std::size_t p = 0; p < page_state_.size(); ++p) {
    if (!(page_state_[p] & kPageDirty)) continue;
    const std::uint64_t addr = static_cast<std::uint64_t>(p) << kDirtyPageShift;
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kDirtyPageSize, mem_.size() - addr));
    std::memcpy(mem_.data() + addr, s.mem.data() + addr, len);
    maybe_invalidate(addr, len);
  }
  std::memcpy(regs_, s.regs.data(), sizeof regs_);
  flags_ = s.flags;
  total_cycles_ = s.total_cycles;
  clear_all_dirty();
}

void Machine::begin_write_capture() {
  capture_ = true;
  captured_.clear();
  set_page_bit(kPageCapture, true);  // no guest store may skip the capture
}

std::vector<WriteSpan> Machine::end_write_capture() {
  capture_ = false;
  set_page_bit(kPageCapture, false);
  return std::move(captured_);
}

void Machine::load_image(const isa::Image& img) {
  reload_code(img);
  map_image(img);
}

void Machine::map_image(const isa::Image& img) {
  code_ranges_.push_back({img.base(), img.end()});
  rebuild_predecode();
}

void Machine::reload_code(const isa::Image& img) {
  const auto code = img.code();
  if (img.base() + code.size() > mem_.size()) {
    // Misconfigured layout is a programming error in the embedding code,
    // not a runtime fault of the guest; fail loudly.
    throw std::runtime_error("image does not fit in VM memory: " + img.name());
  }
  std::memcpy(mem_.data() + img.base(), code.data(), code.size());
  maybe_invalidate(img.base(), code.size());
  if (!code.empty()) note_write(img.base(), code.size());
}

bool Machine::patch_code(std::uint64_t addr, const void* data,
                         std::size_t n) noexcept {
  if (n == 0) return true;
  if (addr >= mem_.size() || mem_.size() - addr < n) return false;
  std::memcpy(mem_.data() + addr, data, n);
  maybe_invalidate(addr, n);
  note_write(addr, n);
  return true;
}

void Machine::invalidate_code(std::uint64_t addr, std::uint64_t len) noexcept {
  if (predecoded_.empty() || len == 0) return;
  if (addr >= code_hi_) return;
  const std::uint64_t end =
      len > code_hi_ - addr ? code_hi_ : addr + len;  // overflow-safe clamp
  if (end <= code_lo_) return;
  const std::uint64_t lo = addr > code_lo_ ? addr : code_lo_;
  const auto s0 = static_cast<std::size_t>((lo - code_lo_) / kInstrSize);
  const auto e = static_cast<std::size_t>(
      (end - code_lo_ + kInstrSize - 1) / kInstrSize);
  // Only re-decodes; slot flags (validity, armed bits) are left untouched,
  // so an armed fault window survives the inject/restore patches it watches.
  for (std::size_t s = s0; s < e; ++s) {
    if (!(slot_flags_[s] & kSlotValid)) continue;
    const std::uint8_t* p = mem_.data() + code_lo_ + s * kInstrSize;
    if (!isa::decode_into(p, predecoded_[s])) {
      predecoded_[s] = Instr{Op::kOpCount_, 0, 0, 0, 0};
    }
  }
  // Re-tokenize, one slot wider to the left: a write landing on the second
  // half of a fused pair must split the superinstruction whose head lies
  // just before the written range.
  rebuild_xop(s0 > 0 ? s0 - 1 : 0, e);
}

void Machine::set_predecode(bool enabled) {
  predecode_ = enabled;
  rebuild_predecode();
}

void Machine::set_fusion(bool enabled) {
  fusion_ = enabled;
  if (!predecoded_.empty()) rebuild_xop(0, predecoded_.size());
}

const char* Machine::dispatch_kind() noexcept {
#if GF_VM_THREADED_DISPATCH
  return "threaded";
#else
  return "switch";
#endif
}

std::uint64_t Machine::state_digest() const noexcept {
  // FNV-1a over every architectural observable. Dispatch strategy state
  // (predecode tables, xop tokens, samplers, stats) is deliberately
  // excluded: two machines agree here iff a guest program cannot tell them
  // apart, which is exactly the equivalence the differential fuzzer checks.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  mix(mem_.data(), mem_.size());
  mix(regs_, sizeof regs_);
  mix(&flags_, sizeof flags_);
  mix(&total_cycles_, sizeof total_cycles_);
  return h;
}

std::uint8_t Machine::xop_for_slot(std::size_t s) const noexcept {
  const std::uint8_t f = slot_flags_[s];
  if (!(f & kSlotValid)) return kXBadJump;
  if (f & kSlotArmed) return kXArmed;  // single-step inside the fault window
  const Instr& a = predecoded_[s];
  const auto base = static_cast<std::uint8_t>(a.op);
  // Undecodable slots trap and syscall handlers may rewrite anything
  // (including these tables): neither glues or fuses.
  if (a.op == Op::kOpCount_ || a.op == Op::kSys || !fusion_) {
    return base;
  }
  if (s + 1 >= predecoded_.size()) return base;
  const std::uint8_t f2 = slot_flags_[s + 1];
  if (!(f2 & kSlotValid) || (f2 & kSlotArmed)) return base;
  // Fall-through successor is statically safe: glue at least, and known
  // pairs collapse into one handler. Pair heads never write memory (see the
  // token-table comment for why that matters).
  std::uint8_t x = base;
  const Op b = predecoded_[s + 1].op;
  switch (a.op) {
    case Op::kCmp:
      if (isa::is_branch(b)) x = kXCmpBr;
      break;
    case Op::kCmpI:
      if (isa::is_branch(b)) x = kXCmpIBr;
      break;
    case Op::kLd:
      if (b == Op::kLd) x = kXLdLd;
      else if (fusable_alu(b)) x = kXLdAlu;
      else if (b == Op::kPush) x = kXLdPush;
      break;
    case Op::kMovI:
      if (fusable_alu(b)) x = kXMovIAlu;
      break;
    case Op::kMov:
      if (b == Op::kPop) x = kXMovPop;
      break;
    default:
      if (fusable_alu(a.op) && b == Op::kSt) x = kXAluSt;
      break;
  }
  return static_cast<std::uint8_t>(x | kXGlue);
}

void Machine::rebuild_xop(std::size_t lo_slot, std::size_t hi_slot) noexcept {
  if (xop_.size() != predecoded_.size()) {
    xop_.assign(predecoded_.size(), kXBadJump);
  }
  if (hi_slot > xop_.size()) hi_slot = xop_.size();
  for (std::size_t s = lo_slot; s < hi_slot; ++s) xop_[s] = xop_for_slot(s);
}

void Machine::rebuild_xop_for_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (predecoded_.empty() || hi <= lo) return;
  if (lo < code_lo_) lo = code_lo_;
  if (hi > code_hi_) hi = code_hi_;
  if (hi <= lo) return;
  const auto s0 = static_cast<std::size_t>((lo - code_lo_) / kInstrSize);
  const auto s1 = static_cast<std::size_t>(
      (hi - code_lo_ + kInstrSize - 1) / kInstrSize);
  rebuild_xop(s0 > 0 ? s0 - 1 : 0, s1);
}

void Machine::rebuild_predecode() {
  predecoded_.clear();
  slot_flags_.clear();
  xop_.clear();
  code_lo_ = code_hi_ = 0;
  // kPageCode marks the pages a guest store must run invalidate_code for:
  // those overlapping the hull, and none while there is no cache to keep
  // fresh.
  set_page_bit(kPageCode, false);
  if (!predecode_ || code_ranges_.empty()) return;
  code_lo_ = code_ranges_.front().lo;
  for (const auto& r : code_ranges_) {
    // The slot grid only works when every image starts on an instruction
    // boundary (always true for compiler/assembler output). A misaligned
    // base falls back to the per-step decode path.
    if (r.lo % kInstrSize != 0) {
      code_lo_ = code_hi_ = 0;
      return;
    }
    code_lo_ = std::min(code_lo_, r.lo);
    code_hi_ = std::max(code_hi_, r.hi);
  }
  const auto slots =
      static_cast<std::size_t>((code_hi_ - code_lo_ + kInstrSize - 1) / kInstrSize);
  predecoded_.assign(slots, Instr{Op::kOpCount_, 0, 0, 0, 0});
  slot_flags_.assign(slots, 0);
  for (const auto& r : code_ranges_) {
    for (std::uint64_t a = r.lo; a + kInstrSize <= r.hi; a += kInstrSize) {
      const auto s = static_cast<std::size_t>((a - code_lo_) / kInstrSize);
      slot_flags_[s] = kSlotValid;
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    if (!(slot_flags_[s] & kSlotValid)) continue;
    if (!isa::decode_into(mem_.data() + code_lo_ + s * kInstrSize,
                          predecoded_[s])) {
      predecoded_[s] = Instr{Op::kOpCount_, 0, 0, 0, 0};
    }
  }
  apply_watch_bits();
  rebuild_xop(0, slots);
  if (code_hi_ <= code_lo_) return;
  for (std::uint64_t p = code_lo_ >> kDirtyPageShift;
       p <= (code_hi_ - 1) >> kDirtyPageShift && p < page_state_.size(); ++p) {
    page_state_[p] |= kPageCode;
  }
}

void Machine::apply_watch_bits() noexcept {
  if (watch_hi_ == 0 || slot_flags_.empty()) return;
  for (std::uint64_t a = watch_lo_; a < watch_hi_; a += kInstrSize) {
    if (a < code_lo_ || a + kInstrSize > code_hi_) continue;
    slot_flags_[static_cast<std::size_t>((a - code_lo_) / kInstrSize)] |=
        kSlotArmed;
  }
}

void Machine::arm_watch(std::uint64_t lo, std::uint64_t hi) {
  disarm_watch();
  if (hi <= lo) return;
  watch_lo_ = lo;
  watch_hi_ = hi;
  watch_ = WatchTrace{};
  apply_watch_bits();
  // Armed slots single-step (kXArmed) and their predecessors lose glue/fusion
  // so every entry into the window goes through the full fetch.
  rebuild_xop_for_range(watch_lo_, watch_hi_);
}

void Machine::disarm_watch() {
  const std::uint64_t lo = watch_lo_, hi = watch_hi_;
  if (watch_hi_ != 0 && !slot_flags_.empty()) {
    for (std::uint64_t a = watch_lo_; a < watch_hi_; a += kInstrSize) {
      if (a < code_lo_ || a + kInstrSize > code_hi_) continue;
      slot_flags_[static_cast<std::size_t>((a - code_lo_) / kInstrSize)] &=
          static_cast<std::uint8_t>(~kSlotArmed);
    }
  }
  watch_lo_ = watch_hi_ = 0;
  edge_live_ = false;
  rebuild_xop_for_range(lo, hi);  // window slots re-fuse once disarmed
}

void Machine::note_watch_hit(std::uint64_t cycles) noexcept {
  if (watch_.hits++ == 0) watch_.first_hit_cycle = total_cycles_ + cycles;
  edge_live_ = true;
}

void Machine::note_watch_edge(std::uint64_t from, std::uint64_t to) noexcept {
  watch_.ring[static_cast<std::size_t>(watch_.edge_count % WatchTrace::kEdgeRing)] =
      TraceEdge{from, to};
  ++watch_.edge_count;
}

void Machine::arm_sampler(std::uint64_t stride) {
  samples_.clear();
  sample_stride_ = stride;
  sample_left_ = stride == 0 ? kSamplerIdle : static_cast<std::int64_t>(stride);
}

void Machine::disarm_sampler() {
  sample_stride_ = 0;
  sample_left_ = kSamplerIdle;
}

void Machine::set_stack_region(std::uint64_t lo, std::uint64_t hi) {
  stack_lo_ = lo;
  stack_hi_ = hi;
}

bool Machine::read_u8(std::uint64_t addr, std::uint8_t& out) const noexcept {
  if (addr < kNullPageSize || addr >= mem_.size()) return false;
  out = mem_[addr];
  return true;
}

bool Machine::write_u8(std::uint64_t addr, std::uint8_t v) noexcept {
  if (addr < kNullPageSize || addr >= mem_.size()) return false;
  mem_[addr] = v;
  maybe_invalidate(addr, 1);
  note_write(addr, 1);
  return true;
}

bool Machine::read_u64(std::uint64_t addr, std::uint64_t& out) const noexcept {
  // addr near 2^64 (a negative guest pointer) must not wrap past the check.
  if (addr < kNullPageSize || addr >= mem_.size() || mem_.size() - addr < 8)
    return false;
  std::memcpy(&out, mem_.data() + addr, 8);
  return true;
}

bool Machine::write_u64(std::uint64_t addr, std::uint64_t v) noexcept {
  if (addr < kNullPageSize || addr >= mem_.size() || mem_.size() - addr < 8)
    return false;
  std::memcpy(mem_.data() + addr, &v, 8);
  maybe_invalidate(addr, 8);
  note_write(addr, 8);
  return true;
}

bool Machine::read_bytes(std::uint64_t addr, void* out, std::size_t n) const noexcept {
  if (n == 0) return true;
  if (addr < kNullPageSize || addr >= mem_.size() || mem_.size() - addr < n)
    return false;
  std::memcpy(out, mem_.data() + addr, n);
  return true;
}

bool Machine::write_bytes(std::uint64_t addr, const void* data, std::size_t n) noexcept {
  if (n == 0) return true;
  if (addr < kNullPageSize || addr >= mem_.size() || mem_.size() - addr < n)
    return false;
  std::memcpy(mem_.data() + addr, data, n);
  maybe_invalidate(addr, n);
  note_write(addr, n);
  return true;
}

bool Machine::read_cstr(std::uint64_t addr, std::string& out,
                        std::size_t max_len) const noexcept {
  out.clear();
  if (addr < kNullPageSize || addr >= mem_.size()) return false;
  // One bounds check plus memchr over guest memory instead of a per-byte
  // checked read: this sits on the path of every path-string API call.
  const auto avail = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_len, mem_.size() - addr));
  const auto* base = mem_.data() + addr;
  const auto* nul = static_cast<const std::uint8_t*>(std::memchr(base, 0, avail));
  if (nul == nullptr) return false;  // unterminated within max_len / memory
  out.assign(reinterpret_cast<const char*>(base),
             static_cast<std::size_t>(nul - base));
  return true;
}

bool Machine::in_code(std::uint64_t addr) const noexcept {
  // Straight-line execution almost always stays within one image, so the
  // last-hit range makes the common case O(1) even without the predecode
  // bitmap (which replaces this walk entirely on the fast path).
  if (last_range_ < code_ranges_.size()) {
    const auto& r = code_ranges_[last_range_];
    if (addr >= r.lo && addr + kInstrSize <= r.hi) return true;
  }
  for (std::size_t i = 0; i < code_ranges_.size(); ++i) {
    const auto& r = code_ranges_[i];
    if (addr >= r.lo && addr + kInstrSize <= r.hi) {
      last_range_ = i;
      return true;
    }
  }
  return false;
}

RunResult Machine::call(std::uint64_t addr, const std::vector<std::int64_t>& args,
                        std::uint64_t cycle_budget) {
  // Fresh frame at the top of the stack region with the sentinel as the
  // return address; a RET from the callee then ends the run cleanly.
  std::int64_t saved_regs[isa::kNumRegs];
  std::memcpy(saved_regs, regs_, sizeof regs_);

  regs_[isa::kRegSp] = static_cast<std::int64_t>(stack_hi_);
  regs_[isa::kRegFp] = static_cast<std::int64_t>(stack_hi_);
  for (std::size_t i = 0; i < args.size() && i < isa::kNumArgRegs; ++i) {
    regs_[isa::kRegArg0 + i] = args[i];
  }
  // Push sentinel return address.
  regs_[isa::kRegSp] -= 8;
  if (!write_u64(static_cast<std::uint64_t>(regs_[isa::kRegSp]), kReturnSentinel)) {
    std::memcpy(regs_, saved_regs, sizeof regs_);
    return {Trap::kStackFault, 0, addr, 0};
  }

  RunResult res = execute(addr, cycle_budget);
  res.ret = regs_[isa::kRegRet];
  std::memcpy(regs_, saved_regs, sizeof regs_);
  return res;
}

RunResult Machine::run(std::uint64_t pc, std::uint64_t cycle_budget) {
  RunResult res = execute(pc, cycle_budget);
  res.ret = regs_[isa::kRegRet];
  return res;
}

RunResult Machine::execute(std::uint64_t pc, std::uint64_t cycle_budget) {
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;
  // Event horizon: the run-relative cycle count at which the next sample is
  // due, folded with the budget into the one test every retire makes. The
  // sampler's countdown becomes an absolute due cycle here and a countdown
  // again at the exit, so the carry across runs is exact. Disarmed, `due`
  // sits near 2^62 and the horizon is the budget.
  std::uint64_t due = static_cast<std::uint64_t>(sample_left_);
  std::uint64_t horizon = std::min(cycle_budget, due);
  // Single exit (`out:`): every termination path records its trap (and any
  // terminal cycles the sampler must not see) and jumps there, so the
  // lifetime counters and dispatch stats are folded in exactly once per run.
  // `steps` counts architecturally retired instructions — fused handlers
  // bump it once per half, and the fetch-failure tokens (kXBadJump /
  // kXBadOp), which flow through dispatch after the increment, give it back.
  Trap trap = Trap::kNone;
  std::uint64_t unsampled = 0;

  // Register-resident machine state for the handlers. Guest stores go
  // through a uint8_t pointer, which may alias any member, so the compiler
  // would otherwise reload each of these after every store. Only a syscall
  // handler can change them mid-run (it may load code, toggle predecode,
  // move the stack or arm a watch), so they are refreshed after SYS, and
  // `edge_live` also at the armed-watch hit that sets it. The full fetch
  // reads the hull members directly: hoisting them too costs more in
  // register pressure than the loads it saves.
  std::uint8_t* mem = nullptr;
  std::uint64_t span8 = 0;  // valid 8-byte access starts: kNullPageSize + [0, span8)
  std::uint64_t span1 = 0;  // valid byte addresses: kNullPageSize + [0, span1)
  const std::uint8_t* pages = nullptr;
  const Instr* pre = nullptr;  // nullptr: per-step decode fallback
  const std::uint8_t* xtab = nullptr;
  std::uint64_t stack_lo = 0, stack_hi = 0;
  bool edge_live = false;
  auto refresh = [&] {
    mem = mem_.data();
    const std::uint64_t size = mem_.size();
    span8 = size >= kNullPageSize + 8 ? size - kNullPageSize - 7 : 0;
    span1 = size > kNullPageSize ? size - kNullPageSize : 0;
    pages = page_state_.data();
    pre = predecoded_.empty() ? nullptr : predecoded_.data();
    xtab = xop_.data();
    stack_lo = stack_lo_;
    stack_hi = stack_hi_;
    edge_live = edge_live_;
  };
  refresh();

  auto& R = regs_;
  Instr in{};   // instruction being dispatched
  Instr b{};    // second half of a fused pair
  std::uint8_t xop = 0;
  std::size_t slot = 0;
  std::uint64_t next = 0;  // successor pc of a control transfer

#define VM_STOP(t) \
  do {             \
    trap = (t);    \
    goto out;      \
  } while (0)

  // Guest memory access on the register-resident bounds. A store takes the
  // inline path when it is in range and every page it touches reads exactly
  // kPageDirty: the dirty bit is already set, the page holds no predecoded
  // slot, and no write capture is recording, so write_u64/write_u8 would do
  // nothing beyond the copy. Anything else (a clean, code or capture page,
  // or a bad address) falls back to the checked accessor unchanged.
#define VM_LD64(addr, dst)                                  \
  do {                                                      \
    const std::uint64_t a_ = (addr);                        \
    if (a_ - kNullPageSize >= span8) [[unlikely]] {         \
      VM_STOP(Trap::kBadMemory);                            \
    }                                                       \
    std::uint64_t v_;                                       \
    std::memcpy(&v_, mem + a_, 8);                          \
    (dst) = static_cast<std::int64_t>(v_);                  \
  } while (0)
#define VM_ST64(addr, val)                                          \
  do {                                                              \
    const std::uint64_t a_ = (addr);                                \
    const auto v_ = static_cast<std::uint64_t>(val);                \
    if (a_ - kNullPageSize < span8 &&                               \
        pages[a_ >> kDirtyPageShift] == kPageDirty &&               \
        pages[(a_ + 7) >> kDirtyPageShift] == kPageDirty) {         \
      std::memcpy(mem + a_, &v_, 8);                                \
    } else if (!write_u64(a_, v_)) {                                \
      VM_STOP(Trap::kBadMemory);                                    \
    }                                                               \
  } while (0)
  // PUSH/CALL/RET/POP bounds against the stack region.
#define VM_STACK_CHECK(sp)                                        \
  if ((sp) < stack_lo || (sp) + 8 > stack_hi) [[unlikely]] {      \
    VM_STOP(Trap::kStackFault);                                   \
  }

#if GF_VM_THREADED_DISPATCH
  // Indexed by (xop & kXopMask); entries past kXopCount_ are unreachable by
  // construction but still land on a defined handler.
  static const void* const kXopLabels[kXopMask + 1] = {
#define GF_VM_LBL(name) &&H_##name,
      GF_VM_XOPS(GF_VM_LBL)
#undef GF_VM_LBL
      &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp,
      &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp,
      &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp, &&H_BadOp,
  };
  static_assert(kXopCount_ == 47, "update the kXopLabels padding");
#define VM_CASE(name) H_##name:
#define VM_DISPATCH() goto* kXopLabels[xop & kXopMask]
#else
#define VM_CASE(name) case kX##name:
#define VM_DISPATCH() goto dispatch
#endif

  // Retire tails, shared by both lowerings. Each handler expands its own,
  // so under threaded dispatch every handler ends in its own indirect jump
  // (one host branch-predictor entry per handler); under the switch,
  // VM_DISPATCH re-enters the switch. The retire is the one event-horizon
  // test: the cycle budget and the next sample both live behind it, so a
  // retire below the horizon needs no further check and the glue path may
  // enter the successor directly. The test runs while `pc` still names the
  // retiring instruction, which is the pc a due sample records.
  //
  // VM_SEQ(c): a straight-line op of cost `c`; its successor is pc + 8 and
  // it never transfers control, so it needs neither `next` nor the edge
  // ring.
#define VM_SEQ(c)                                  \
  cycles += (c);                                   \
  if (cycles >= horizon) [[unlikely]] {            \
    next = pc + kInstrSize;                        \
    goto at_horizon;                               \
  }                                                \
  pc += kInstrSize;                                \
  if (xop & kXGlue) {                              \
    ++slot;                                        \
    in = pre[slot];                                \
    xop = xtab[slot];                              \
    ++steps;                                       \
    VM_DISPATCH();                                 \
  }                                                \
  goto fetch
  // VM_JUMP(c): a control transfer of cost `c` to `next`. Error-propagation
  // edges are only live between the first watch hit and disarm, i.e. while
  // an injected fault is both armed and activated.
#define VM_JUMP(c)                                               \
  if (edge_live) [[unlikely]] {                                  \
    if (next != pc + kInstrSize) note_watch_edge(pc, next);      \
  }                                                              \
  cycles += (c);                                                 \
  if (cycles >= horizon) [[unlikely]] goto at_horizon;           \
  if ((xop & kXGlue) && next == pc + kInstrSize) {               \
    pc = next;                                                   \
    ++slot;                                                      \
    in = pre[slot];                                              \
    xop = xtab[slot];                                            \
    ++steps;                                                     \
    VM_DISPATCH();                                               \
  }                                                              \
  pc = next;                                                     \
  goto fetch

  // Architectural boundary between the two halves of a fused pair: the head
  // retires through the same horizon test as any instruction, so a budget
  // stop or a due sample before the second half is indistinguishable from
  // unfused execution (at the horizon the run continues from a full fetch
  // of the second half). The head never transfers control, so no edge-ring
  // check is due at this boundary.
#define VM_FUSE_NEXT(head_cost)                 \
  cycles += (head_cost);                        \
  if (cycles >= horizon) [[unlikely]] {         \
    next = pc + kInstrSize;                     \
    goto at_horizon;                            \
  }                                             \
  pc += kInstrSize;                             \
  ++steps;                                      \
  ++slot;                                       \
  b = pre[slot];                                \
  xop = xtab[slot]

  if (cycles >= cycle_budget) VM_STOP(Trap::kCycleLimit);

fetch:
  if (pre != nullptr) {
    // Fast path: one hull check + token/side-table fetch. The short-circuit
    // keeps the slot index in-bounds before the tables are touched;
    // pc - code_lo may wrap but is then never used. Validity, armedness and
    // undecodability are pre-folded into the token, so the only per-fetch
    // branch is the hull check.
    const std::uint64_t rel = pc - code_lo_;
    slot = static_cast<std::size_t>(rel / kInstrSize);
    if (pc < code_lo_ || pc + kInstrSize > code_hi_ || rel % kInstrSize != 0) {
      VM_STOP(Trap::kBadJump);
    }
    in = pre[slot];
    xop = xtab[slot];
  } else {
    if (!in_code(pc) || pc % kInstrSize != 0) VM_STOP(Trap::kBadJump);
    // Fallback decode path: no slot table, so the watch is a range compare.
    if (watch_hi_ != 0 && pc >= watch_lo_ && pc < watch_hi_) [[unlikely]] {
      note_watch_hit(cycles);
      edge_live = edge_live_;
    }
    if (!isa::decode_into(mem + pc, in)) VM_STOP(Trap::kBadOpcode);
    xop = static_cast<std::uint8_t>(in.op);
  }
  ++steps;

#if GF_VM_THREADED_DISPATCH
  VM_DISPATCH();
#else
dispatch:
  switch (xop & kXopMask) {
#endif

  // --- base opcodes (shared by both lowerings; each body ends in a retire) --
  VM_CASE(Nop) { VM_SEQ(1); }
  VM_CASE(Halt) {
    unsampled = 1;
    VM_STOP(Trap::kHalt);
  }
  VM_CASE(MovI) {
    R[in.rd] = static_cast<std::int64_t>(in.imm);
    VM_SEQ(1);
  }
  VM_CASE(Mov) {
    R[in.rd] = R[in.rs1];
    VM_SEQ(1);
  }
  VM_CASE(Ld) {
    VM_LD64(static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm)),
            R[in.rd]);
    VM_SEQ(2);
  }
  VM_CASE(St) {
    VM_ST64(static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm)),
            R[in.rs2]);
    VM_SEQ(2);
  }
  VM_CASE(LdB) {
    const auto a = static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm));
    if (a - kNullPageSize >= span1) [[unlikely]] VM_STOP(Trap::kBadMemory);
    R[in.rd] = mem[a];
    VM_SEQ(2);
  }
  VM_CASE(StB) {
    const auto a = static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm));
    const auto v = static_cast<std::uint8_t>(R[in.rs2]);
    if (a - kNullPageSize < span1 && pages[a >> kDirtyPageShift] == kPageDirty) {
      mem[a] = v;
    } else if (!write_u8(a, v)) {
      VM_STOP(Trap::kBadMemory);
    }
    VM_SEQ(2);
  }
  VM_CASE(Add) {
    R[in.rd] = R[in.rs1] + R[in.rs2];
    VM_SEQ(1);
  }
  VM_CASE(Sub) {
    R[in.rd] = R[in.rs1] - R[in.rs2];
    VM_SEQ(1);
  }
  VM_CASE(Mul) {
    R[in.rd] = R[in.rs1] * R[in.rs2];
    VM_SEQ(3);
  }
  VM_CASE(Div) {
    if (R[in.rs2] == 0) VM_STOP(Trap::kDivZero);
    R[in.rd] = R[in.rs1] / R[in.rs2];
    VM_SEQ(10);
  }
  VM_CASE(Mod) {
    if (R[in.rs2] == 0) VM_STOP(Trap::kDivZero);
    R[in.rd] = R[in.rs1] % R[in.rs2];
    VM_SEQ(10);
  }
  VM_CASE(And) {
    R[in.rd] = R[in.rs1] & R[in.rs2];
    VM_SEQ(1);
  }
  VM_CASE(Or) {
    R[in.rd] = R[in.rs1] | R[in.rs2];
    VM_SEQ(1);
  }
  VM_CASE(Xor) {
    R[in.rd] = R[in.rs1] ^ R[in.rs2];
    VM_SEQ(1);
  }
  VM_CASE(Shl) {
    R[in.rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[in.rs1])
                                         << (R[in.rs2] & 63));
    VM_SEQ(1);
  }
  VM_CASE(Shr) {
    R[in.rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[in.rs1]) >>
                                         (R[in.rs2] & 63));
    VM_SEQ(1);
  }
  VM_CASE(AddI) {
    R[in.rd] = R[in.rs1] + static_cast<std::int64_t>(in.imm);
    VM_SEQ(1);
  }
  VM_CASE(Not) {
    R[in.rd] = ~R[in.rs1];
    VM_SEQ(1);
  }
  VM_CASE(Neg) {
    R[in.rd] = -R[in.rs1];
    VM_SEQ(1);
  }
  VM_CASE(Cmp) {
    flags_ = R[in.rs1] < R[in.rs2] ? -1 : (R[in.rs1] > R[in.rs2] ? 1 : 0);
    VM_SEQ(1);
  }
  VM_CASE(CmpI) {
    const auto imm = static_cast<std::int64_t>(in.imm);
    flags_ = R[in.rs1] < imm ? -1 : (R[in.rs1] > imm ? 1 : 0);
    VM_SEQ(1);
  }
  VM_CASE(Jmp) {
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm));
    VM_JUMP(1);
  }
  VM_CASE(Jz) {
    next = flags_ == 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                       : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Jnz) {
    next = flags_ != 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                       : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Jlt) {
    next = flags_ < 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                      : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Jle) {
    next = flags_ <= 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                       : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Jgt) {
    next = flags_ > 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                      : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Jge) {
    next = flags_ >= 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm))
                       : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(Call) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, pc + kInstrSize);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm));
    VM_JUMP(2);
  }
  VM_CASE(CallR) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, pc + kInstrSize);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    next = static_cast<std::uint64_t>(R[in.rs1]);
    VM_JUMP(2);
  }
  VM_CASE(Ret) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
    VM_STACK_CHECK(sp);
    std::int64_t ra;
    VM_LD64(sp, ra);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    next = static_cast<std::uint64_t>(ra);
    if (next == kReturnSentinel) {
      unsampled = 1;
      VM_STOP(Trap::kHalt);
    }
    VM_JUMP(2);
  }
  VM_CASE(Push) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, R[in.rs1]);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    VM_SEQ(2);
  }
  VM_CASE(Pop) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
    VM_STACK_CHECK(sp);
    VM_LD64(sp, R[in.rd]);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    VM_SEQ(2);
  }
  VM_CASE(Sys) {
    if (!syscall_) VM_STOP(Trap::kBadOpcode);
    const Trap t = syscall_(*this, in.imm);
    refresh();  // the handler may have reshaped any hoisted state
    if (t != Trap::kNone) {
      unsampled = 20;
      VM_STOP(t);
    }
    VM_SEQ(20);
  }
  VM_CASE(BadOp) {
    // Fetch-time failure routed through dispatch: not a retired instruction.
    --steps;
    VM_STOP(Trap::kBadOpcode);
  }

  // --- fetch-failure tokens -------------------------------------------------
  VM_CASE(BadJump) {
    --steps;  // hole between images: nothing retired
    VM_STOP(Trap::kBadJump);
  }
  VM_CASE(Armed) {
    // Single-step fallback inside the fault window: record the hit, then
    // dispatch the base opcode (nothing in the window fuses or glues, and
    // the predecessor's glue was cleared, so every entry lands here).
    note_watch_hit(cycles);
    edge_live = edge_live_;
    xop = static_cast<std::uint8_t>(in.op);
    VM_DISPATCH();
  }

  // --- fused pairs ----------------------------------------------------------
  VM_CASE(CmpBr) {
    flags_ = R[in.rs1] < R[in.rs2] ? -1 : (R[in.rs1] > R[in.rs2] ? 1 : 0);
    VM_FUSE_NEXT(1);
    next = branch_taken(b.op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(b.imm))
               : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(CmpIBr) {
    const auto imm = static_cast<std::int64_t>(in.imm);
    flags_ = R[in.rs1] < imm ? -1 : (R[in.rs1] > imm ? 1 : 0);
    VM_FUSE_NEXT(1);
    next = branch_taken(b.op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(b.imm))
               : pc + kInstrSize;
    VM_JUMP(1);
  }
  VM_CASE(LdLd) {
    VM_LD64(static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm)),
            R[in.rd]);
    VM_FUSE_NEXT(2);
    VM_LD64(static_cast<std::uint64_t>(R[b.rs1] + static_cast<std::int64_t>(b.imm)),
            R[b.rd]);
    VM_SEQ(2);
  }
  VM_CASE(LdAlu) {
    VM_LD64(static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm)),
            R[in.rd]);
    VM_FUSE_NEXT(2);
    R[b.rd] = alu_eval(b.op, R[b.rs1], R[b.rs2]);
    VM_SEQ(alu_cost(b.op));
  }
  VM_CASE(LdPush) {
    VM_LD64(static_cast<std::uint64_t>(R[in.rs1] + static_cast<std::int64_t>(in.imm)),
            R[in.rd]);
    VM_FUSE_NEXT(2);
    {
      const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
      VM_STACK_CHECK(sp);
      VM_ST64(sp, R[b.rs1]);
      R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    }
    VM_SEQ(2);
  }
  VM_CASE(MovIAlu) {
    R[in.rd] = static_cast<std::int64_t>(in.imm);
    VM_FUSE_NEXT(1);
    R[b.rd] = alu_eval(b.op, R[b.rs1], R[b.rs2]);
    VM_SEQ(alu_cost(b.op));
  }
  VM_CASE(MovPop) {
    R[in.rd] = R[in.rs1];
    VM_FUSE_NEXT(1);
    {
      const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
      VM_STACK_CHECK(sp);
      VM_LD64(sp, R[b.rd]);
      R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    }
    VM_SEQ(2);
  }
  VM_CASE(AluSt) {
    R[in.rd] = alu_eval(in.op, R[in.rs1], R[in.rs2]);
    VM_FUSE_NEXT(alu_cost(in.op));
    VM_ST64(static_cast<std::uint64_t>(R[b.rs1] + static_cast<std::int64_t>(b.imm)),
            R[b.rs2]);
    VM_SEQ(2);
  }

#if !GF_VM_THREADED_DISPATCH
  default:
    // Unreachable: every token value has a case above.
    --steps;
    VM_STOP(Trap::kBadOpcode);
  }
#endif

at_horizon:
  // Cold: the instruction at `pc` just retired at or past the horizon, its
  // successor is `next`. Overshoot carries into the next period so the
  // sample cadence stays an exact function of consumed cycles; the loop
  // handles instructions whose cost spans several strides (e.g. SYS at a
  // small stride).
  if (cycles >= due) {
    do {
      ++samples_[pc];
      due += sample_stride_;
    } while (due <= cycles);
  }
  horizon = std::min(cycle_budget, due);
  pc = next;
  if (cycles >= cycle_budget) VM_STOP(Trap::kCycleLimit);
  goto fetch;

out:
  // Terminal cycles (HALT, sentinel RET, failed SYS) are charged to the
  // ledger but never sampled, in every lowering and fusion mode alike.
  total_cycles_ += cycles + unsampled;
  sample_left_ = static_cast<std::int64_t>(due - cycles);
  stats_.instructions += steps;
  ++stats_.runs;
  ++stats_.traps[static_cast<std::size_t>(trap)];
  return RunResult{trap, cycles + unsampled, pc, 0};

#undef VM_CASE
#undef VM_DISPATCH
#undef VM_SEQ
#undef VM_JUMP
#undef VM_FUSE_NEXT
#undef VM_STACK_CHECK
#undef VM_ST64
#undef VM_LD64
#undef VM_STOP
}

}  // namespace gf::vm
