#include "vm/machine.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
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

// --- dispatch tokens --------------------------------------------------------
//
// Every slot record carries two tokens, each dispatched by one indirect
// branch:
//
//   step  single-step token: the base opcode (kOpCount_ = the undecodable
//         marker), kXBadJump for a hole between images, or kXArmed inside
//         the armed watch window (note the hit, then run the base op);
//   tok   block token: the base opcode, a fused pair id when this slot and
//         its successor in the same run form a known pair, or kXStep for a
//         slot outside every run (its record then sends the fetch to the
//         step path).
//
// Fused pairs live only inside blocks: both halves always belong to the same
// run, so the pair handler never straddles a horizon or a run break. Pair
// HEADS never write memory, so the second half's record, read after the
// head executes, cannot have been invalidated mid-handler.
//
// The name list mirrors Op order exactly — static_asserts below pin it.
#define GF_VM_XOPS(X)                                                       \
  X(Nop) X(Halt) X(MovI) X(Mov) X(Ld) X(St) X(LdB) X(StB)                   \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr)      \
  X(AddI) X(Not) X(Neg) X(Cmp) X(CmpI)                                      \
  X(Jmp) X(Jz) X(Jnz) X(Jlt) X(Jle) X(Jgt) X(Jge)                           \
  X(Call) X(CallR) X(Ret) X(Push) X(Pop) X(Sys) X(BadOp)                    \
  X(BadJump) X(Armed) X(Step)                                               \
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

static_assert(kXNop == static_cast<std::uint8_t>(Op::kNop));
static_assert(kXSys == static_cast<std::uint8_t>(Op::kSys));
static_assert(kXBadOp == static_cast<std::uint8_t>(Op::kOpCount_));

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

// Cycle cost of one retired instruction (kOpCount_, the undecodable marker,
// retires nothing). HALT costs nothing here: it and the other terminal stops
// (sentinel RET, failed SYS) charge their cycle to the ledger at the run
// exit, unsampled.
constexpr std::uint32_t kSysCost = 20;
constexpr std::uint32_t op_cost(Op op) noexcept {
  switch (op) {
    case Op::kHalt: case Op::kOpCount_:
      return 0;
    case Op::kLd: case Op::kSt: case Op::kLdB: case Op::kStB: case Op::kCall:
    case Op::kCallR: case Op::kRet: case Op::kPush: case Op::kPop:
      return 2;
    case Op::kMul:
      return 3;
    case Op::kDiv: case Op::kMod:
      return 10;
    case Op::kSys:
      return kSysCost;
    default:
      return 1;
  }
}

// Decodes one slot; undecodable bytes become the kOpCount_ marker.
void predecode_into(const std::uint8_t* p, Instr& out) noexcept {
  if (!isa::decode_into(p, out)) out = Instr{Op::kOpCount_, 0, 0, 0, 0};
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

Machine::Memory::Memory(std::size_t size) : size_(size) {
  if (size == 0) return;
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  ::madvise(p, size, MADV_NOHUGEPAGE);  // advisory: failure changes nothing
#endif
  data_ = static_cast<std::uint8_t*>(p);
}

Machine::Memory::~Memory() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

Machine::Machine(std::size_t mem_size)
    : mem_(mem_size),
      page_state_((mem_size + kDirtyPageSize - 1) >> kDirtyPageShift, 0),
      ever_written_(page_state_.size(), 0) {
  // Default stack: top 64 KiB of memory.
  stack_hi_ = mem_.size();
  stack_lo_ = mem_.size() > (64u << 10) ? mem_.size() - (64u << 10) : 0;
}

Machine::Machine(const State& s) : Machine(s.mem_size) {
  check_state(s);
  for (std::size_t k = 0; k < s.pages.size(); ++k) {
    const auto addr = static_cast<std::uint64_t>(s.pages[k]) << kDirtyPageShift;
    std::memcpy(mem_.data() + addr, s.bytes.data() + k * kDirtyPageSize,
                page_span(addr));
    ever_written_[s.pages[k]] = 1;
  }
  std::memcpy(regs_, s.regs.data(), sizeof regs_);
  flags_ = s.flags;
  total_cycles_ = s.total_cycles;
}

const std::uint8_t* Machine::raw(std::uint64_t addr, std::size_t n) const noexcept {
  if (addr >= mem_.size() || mem_.size() - addr < n) return nullptr;
  return mem_.data() + addr;
}

void Machine::set_page_bit(std::uint8_t bit, bool on) noexcept {
  for (auto& ps : page_state_) {
    ps = static_cast<std::uint8_t>(on ? ps | bit : ps & ~bit);
  }
}

Machine::State Machine::snapshot() {
  State s;
  s.mem_size = mem_.size();
  // A page never written is still the mapping's zero fill: skip it unread.
  for (std::size_t p = 0; p < page_state_.size(); ++p) {
    if (ever_written_[p] == 0) continue;
    const std::uint64_t addr = static_cast<std::uint64_t>(p) << kDirtyPageShift;
    const std::uint8_t* bytes = mem_.data() + addr;
    const std::size_t len = page_span(addr);
    // All zero iff the first byte is zero and every byte equals the next.
    if (bytes[0] == 0 && std::memcmp(bytes, bytes + 1, len - 1) == 0) continue;
    s.pages.push_back(p);
    s.bytes.resize(s.bytes.size() + kDirtyPageSize);
    std::memcpy(s.bytes.data() + s.bytes.size() - kDirtyPageSize, bytes, len);
  }
  std::memcpy(s.regs.data(), regs_, sizeof regs_);
  s.flags = flags_;
  s.total_cycles = total_cycles_;
  clear_all_dirty();
  return s;
}

void Machine::check_state(const State& s) const {
  if (s.mem_size != mem_.size()) {
    throw std::runtime_error("machine snapshot size mismatch");
  }
  if (s.bytes.size() != s.pages.size() * kDirtyPageSize ||
      std::adjacent_find(s.pages.begin(), s.pages.end(),
                         std::greater_equal<>()) != s.pages.end() ||
      (!s.pages.empty() && s.pages.back() >= page_state_.size())) {
    throw std::invalid_argument("malformed machine snapshot");
  }
}

void Machine::restore(const State& s) {
  check_state(s);
  // Rewrite only pages dirtied since snapshot(): the state's bytes where it
  // lists the page, zeros where it does not. Dirty pages come in ascending
  // order, as the list does, so one cursor walks it. Pages overlapping the
  // code hull additionally re-decode so the predecode cache never serves
  // instructions for bytes that just changed under it.
  std::size_t k = 0;
  for (std::size_t p = 0; p < page_state_.size(); ++p) {
    if (!(page_state_[p] & kPageDirty)) continue;
    const std::uint64_t addr = static_cast<std::uint64_t>(p) << kDirtyPageShift;
    const std::size_t len = page_span(addr);
    while (k < s.pages.size() && s.pages[k] < p) ++k;
    if (k < s.pages.size() && s.pages[k] == p) {
      std::memcpy(mem_.data() + addr, s.bytes.data() + k * kDirtyPageSize, len);
    } else {
      std::memset(mem_.data() + addr, 0, len);
    }
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
  if (slots_.empty() || len == 0) return;
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
    predecode_into(mem_.data() + code_lo_ + s * kInstrSize, slots_[s]);
  }
  // Re-tokenize and re-cost the written slots and every run that reaches
  // into them (a write landing on the second half of a fused pair also
  // splits the pair whose head lies just before the written range).
  rebuild_runs(s0, e);
}

void Machine::set_predecode(bool enabled) {
  predecode_ = enabled;
  rebuild_predecode();
}

void Machine::set_fusion(bool enabled) {
  fusion_ = enabled;
  rebuild_runs(0, slots_.size());
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
  // (slot records, samplers, stats) is deliberately
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

void Machine::rebuild_slot(std::size_t s) noexcept {
  Slot& x = slots_[s];
  const std::uint8_t f = slot_flags_[s];
  const Op op = x.op;
  x.len = 0;
  x.cost = 0;
  if (!(f & kSlotValid)) {
    x.step = kXBadJump;
  } else if (f & kSlotArmed) {
    x.step = kXArmed;  // single-step inside the fault window
  } else {
    x.step = static_cast<std::uint8_t>(op);
    // Undecodable slots trap, HALT stops and a syscall handler may rewrite
    // anything (including these records): none of them joins a run.
    if (op != Op::kOpCount_ && op != Op::kSys && op != Op::kHalt) {
      x.len = 1;
      x.cost = op_cost(op);
      // A control transfer ends its run. A full successor run starts a new
      // block, so no record ever counts more than kMaxRunLength.
      if (!isa::is_jump(op) && s + 1 < slots_.size()) {
        const Slot& n = slots_[s + 1];
        if (n.len != 0 && n.len < kMaxRunLength) {
          x.len = static_cast<std::uint16_t>(n.len + 1);
          x.cost += n.cost;
        }
      }
    }
  }
  x.tok = x.len == 0 ? static_cast<std::uint8_t>(kXStep) : x.step;
  if (x.len < 2 || !fusion_) return;
  // The successor is in this slot's run: known pairs collapse into one
  // handler. Pair heads never write memory (see the token-table comment).
  const Op b = slots_[s + 1].op;
  switch (op) {
    case Op::kCmp:
      if (isa::is_branch(b)) x.tok = kXCmpBr;
      break;
    case Op::kCmpI:
      if (isa::is_branch(b)) x.tok = kXCmpIBr;
      break;
    case Op::kLd:
      if (b == Op::kLd) x.tok = kXLdLd;
      else if (fusable_alu(b)) x.tok = kXLdAlu;
      else if (b == Op::kPush) x.tok = kXLdPush;
      break;
    case Op::kMovI:
      if (fusable_alu(b)) x.tok = kXMovIAlu;
      break;
    case Op::kMov:
      if (b == Op::kPop) x.tok = kXMovPop;
      break;
    default:
      if (fusable_alu(op) && b == Op::kSt) x.tok = kXAluSt;
      break;
  }
}

void Machine::rebuild_runs(std::size_t lo_slot, std::size_t hi_slot) noexcept {
  if (hi_slot > slots_.size()) hi_slot = slots_.size();
  std::size_t s = hi_slot;
  while (s > lo_slot) rebuild_slot(--s);
  // A record depends only on its own slot and its right neighbour's record,
  // so the first one left of the range that comes out unchanged (at the
  // latest, the run break before the range) leaves everything before it
  // unchanged too.
  while (s > 0) {
    const Slot old = slots_[--s];
    rebuild_slot(s);
    if (slots_[s] == old) break;
  }
}

void Machine::rebuild_runs_for_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (slots_.empty() || hi <= lo) return;
  if (lo < code_lo_) lo = code_lo_;
  if (hi > code_hi_) hi = code_hi_;
  if (hi <= lo) return;
  const auto s0 = static_cast<std::size_t>((lo - code_lo_) / kInstrSize);
  const auto s1 = static_cast<std::size_t>(
      (hi - code_lo_ + kInstrSize - 1) / kInstrSize);
  rebuild_runs(s0, s1);
}

void Machine::rebuild_predecode() {
  slots_.clear();
  slot_flags_.clear();
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
  slots_.assign(slots, Slot{Instr{Op::kOpCount_, 0, 0, 0, 0}});
  slot_flags_.assign(slots, 0);
  for (const auto& r : code_ranges_) {
    for (std::uint64_t a = r.lo; a + kInstrSize <= r.hi; a += kInstrSize) {
      const auto s = static_cast<std::size_t>((a - code_lo_) / kInstrSize);
      slot_flags_[s] = kSlotValid;
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    if (!(slot_flags_[s] & kSlotValid)) continue;
    predecode_into(mem_.data() + code_lo_ + s * kInstrSize, slots_[s]);
  }
  apply_watch_bits();
  rebuild_runs(0, slots);
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
  // Armed slots leave every run and single-step (kXArmed), so every entry
  // into the window goes through the full fetch.
  rebuild_runs_for_range(watch_lo_, watch_hi_);
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
  rebuild_runs_for_range(lo, hi);  // window slots rejoin their runs
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

bool Machine::zero(std::uint64_t addr, std::size_t n) noexcept {
  if (n == 0) return true;
  if (addr < kNullPageSize || addr >= mem_.size() || mem_.size() - addr < n)
    return false;
  const std::uint64_t end = addr + n;
  for (std::uint64_t p = addr >> kDirtyPageShift, last = (end - 1) >> kDirtyPageShift;
       p <= last; ++p) {
    if (ever_written_[p] == 0) continue;  // still the mapping's zero fill
    const std::uint64_t lo = std::max(addr, p << kDirtyPageShift);
    const std::uint64_t len = std::min(end, (p + 1) << kDirtyPageShift) - lo;
    std::memset(mem_.data() + lo, 0, len);
    maybe_invalidate(lo, len);
    note_write(lo, len);
  }
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
  // due, folded with the budget into one value, which the fetch tests once
  // per block and a single step tests at its retire. The
  // sampler's countdown becomes an absolute due cycle here and a countdown
  // again at the exit, so the carry across runs is exact. Disarmed, `due`
  // sits near 2^62 and the horizon is the budget.
  std::uint64_t due = static_cast<std::uint64_t>(sample_left_);
  std::uint64_t horizon = std::min(cycle_budget, due);
  // Single exit (`out:`): every termination path records its trap (and any
  // terminal cycles the sampler must not see) and jumps there, so the
  // lifetime counters and dispatch stats are folded in exactly once per run.
  // `steps` counts architecturally retired instructions, including the one
  // that traps; the fetch-failure tokens (kXBadJump / kXBadOp) give their
  // step back.
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
  const Slot* tab = nullptr;  // nullptr: per-step decode fallback
  std::uint64_t pc_bias = 0;  // see VM_PC
  std::uint64_t stack_lo = 0, stack_hi = 0;
  bool edge_live = false;
  auto refresh = [&] {
    mem = mem_.data();
    const std::uint64_t size = mem_.size();
    span8 = size >= kNullPageSize + 8 ? size - kNullPageSize - 7 : 0;
    span1 = size > kNullPageSize ? size - kNullPageSize : 0;
    pages = page_state_.data();
    tab = slots_.empty() ? nullptr : slots_.data();
    pc_bias = code_lo_ - (reinterpret_cast<std::uintptr_t>(tab) >> 1);
    stack_lo = stack_lo_;
    stack_hi = stack_hi_;
    edge_live = edge_live_;
  };
  refresh();

  auto& R = regs_;
  // The slot being executed, and the instructions of its block still to
  // retire, counting it. Handlers read their operands through `cur`, so each
  // reads all of them before its first store (a store into code rewrites
  // the record it reads from).
  const Slot* cur = nullptr;
  std::uint32_t left = 0;
  Slot decoded;            // per-step decode: the one slot being executed
  std::uint64_t next = 0;  // successor pc of the retiring instruction
#if !GF_VM_THREADED_DISPATCH
  std::uint8_t xop = 0;
#endif

  // A record is 16 bytes and an instruction 8, so the pc a record stands
  // for is its address halved plus a bias fixed per table (per fetch on the
  // per-step decode path): blocks never track the pc, handlers derive it
  // where they need it.
  static_assert(sizeof(Slot) == 2 * kInstrSize);
#define VM_PC(p) ((reinterpret_cast<std::uintptr_t>(p) >> 1) + pc_bias)

  // VM_STOP(t): stop with `pc` naming the stop. VM_TRAP(t): the instruction
  // at `cur` stops without retiring (see trap_at_cur).
#define VM_STOP(t) \
  do {             \
    trap = (t);    \
    goto out;      \
  } while (0)
#define VM_TRAP(t)       \
  do {                   \
    trap = (t);          \
    goto trap_at_cur;    \
  } while (0)

  // Ends the block after the current instruction, giving back what its
  // entry charged for the rest. Every store slow path runs it *before* it
  // writes: the write may rewrite code, and with it the run fields this
  // reads, and the rest of the block must then execute from fresh records.
#define VM_SETTLE()                \
  do {                             \
    if (left > 1) {                \
      cycles -= cur[1].cost;       \
      steps -= left - 1;           \
      left = 1;                    \
    }                              \
  } while (0)

  // Guest memory access on the register-resident bounds. A store takes the
  // inline path when it is in range and every page it touches reads exactly
  // kPageDirty: the dirty bit is already set, the page holds no predecoded
  // slot, and no write capture is recording, so write_u64/write_u8 would do
  // nothing beyond the copy. Anything else (a clean, code or capture page,
  // or a bad address) settles the block and falls back to the checked
  // accessor unchanged.
#define VM_LD64(addr, dst)                                  \
  do {                                                      \
    const std::uint64_t a_ = (addr);                        \
    if (a_ - kNullPageSize >= span8) [[unlikely]] {         \
      VM_TRAP(Trap::kBadMemory);                            \
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
    } else {                                                        \
      VM_SETTLE();                                                  \
      if (!write_u64(a_, v_)) VM_TRAP(Trap::kBadMemory);            \
    }                                                               \
  } while (0)
  // PUSH/CALL/RET/POP bounds against the stack region.
#define VM_STACK_CHECK(sp)                                        \
  if ((sp) < stack_lo || (sp) + 8 > stack_hi) [[unlikely]] {      \
    VM_TRAP(Trap::kStackFault);                                   \
  }

#if GF_VM_THREADED_DISPATCH
  static const void* const kXopLabels[kXopCount_] = {
#define GF_VM_LBL(name) &&H_##name,
      GF_VM_XOPS(GF_VM_LBL)
#undef GF_VM_LBL
  };
#define VM_CASE(name) H_##name:
#define VM_DISPATCH(t) goto* kXopLabels[(t)]
#else
#define VM_CASE(name) case kX##name:
#define VM_DISPATCH(t) \
  do {                 \
    xop = (t);         \
    goto dispatch;     \
  } while (0)
#endif

  // Handler tails, shared by both lowerings. Inside a block a handler
  // enters the next record directly: the block's entry already charged its
  // cycles and steps and checked them against the horizon, so nothing is
  // tested per instruction but the count of instructions left. The last
  // instruction of a block (or the one instruction of a single step) goes
  // to `retire`, which tests the horizon while `pc` still names the
  // retiring instruction, the pc a due sample records.
  //
  // The compiler does not keep one indirect jump per handler: GCC 12 at
  // -O3 cross-jumps identical tails (objdump -d of this function shows 31
  // `jmp *` for the 48 tokens). -fno-gcse -fno-crossjumping raises that to
  // 36 but measured no faster (DESIGN.md, "Handler tails"), so the build
  // leaves the default.
  //
  // VM_SEQ(): a straight-line op retired; its successor is pc + 8.
#define VM_SEQ()               \
  if (--left != 0) {           \
    ++cur;                     \
    VM_DISPATCH(cur->tok);     \
  }                            \
  pc = VM_PC(cur);             \
  next = pc + kInstrSize;      \
  goto retire
  // VM_JUMP(): a control transfer at `pc` to `next`, always the last
  // instruction of its block. Error-propagation edges are only live between
  // the first watch hit and disarm, i.e. while an injected fault is both
  // armed and activated.
#define VM_JUMP()                                                \
  if (edge_live) [[unlikely]] {                                  \
    if (next != pc + kInstrSize) note_watch_edge(pc, next);      \
  }                                                              \
  goto retire
  // Architectural boundary between the two halves of a fused pair. Both
  // halves belong to the same block, which was charged as a whole.
#define VM_FUSE_NEXT() \
  ++cur;               \
  --left

  if (cycles >= cycle_budget) VM_STOP(Trap::kCycleLimit);

fetch:
  if (tab != nullptr) {
    // Fast path: one hull check, then the record. The short-circuit keeps
    // the slot index in-bounds before the table is touched; pc - code_lo
    // may wrap but is then never used.
    const std::uint64_t rel = pc - code_lo_;
    if (pc < code_lo_ || pc + kInstrSize > code_hi_ || rel % kInstrSize != 0) {
      VM_STOP(Trap::kBadJump);
    }
    cur = tab + rel / kInstrSize;
    // The whole run retires below the horizon: charge it once and run it
    // as one block. A slot outside every run costs 0 here and its token
    // (kXStep) sends it on to the step path.
    if (cycles + cur->cost < horizon) [[likely]] {
      left = cur->len;
      cycles += cur->cost;
      steps += cur->len;
      VM_DISPATCH(cur->tok);
    }
  } else {
    if (!in_code(pc) || pc % kInstrSize != 0) VM_STOP(Trap::kBadJump);
    // Fallback decode path: no slot table, so the watch is a range compare.
    if (watch_hi_ != 0 && pc >= watch_lo_ && pc < watch_hi_) [[unlikely]] {
      note_watch_hit(cycles);
      edge_live = edge_live_;
    }
    if (!isa::decode_into(mem + pc, decoded)) VM_STOP(Trap::kBadOpcode);
    decoded.step = static_cast<std::uint8_t>(decoded.op);
    cur = &decoded;
    pc_bias = pc - (reinterpret_cast<std::uintptr_t>(cur) >> 1);
  }
step:
  // One instruction, unfused, through the same handlers: a block of one
  // whose retire makes the exact per-instruction horizon test.
  left = 1;
  cycles += op_cost(cur->op);
  ++steps;

#if GF_VM_THREADED_DISPATCH
  VM_DISPATCH(cur->step);
#else
  xop = cur->step;
dispatch:
  switch (xop) {
#endif

  // --- base opcodes (shared by both lowerings; each body ends in a tail) ----
  VM_CASE(Nop) { VM_SEQ(); }
  VM_CASE(Halt) {
    unsampled = 1;
    VM_TRAP(Trap::kHalt);
  }
  VM_CASE(MovI) {
    R[cur->rd] = static_cast<std::int64_t>(cur->imm);
    VM_SEQ();
  }
  VM_CASE(Mov) {
    R[cur->rd] = R[cur->rs1];
    VM_SEQ();
  }
  VM_CASE(Ld) {
    VM_LD64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rd]);
    VM_SEQ();
  }
  VM_CASE(St) {
    VM_ST64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rs2]);
    VM_SEQ();
  }
  VM_CASE(LdB) {
    const auto a = static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm));
    if (a - kNullPageSize >= span1) [[unlikely]] VM_TRAP(Trap::kBadMemory);
    R[cur->rd] = mem[a];
    VM_SEQ();
  }
  VM_CASE(StB) {
    const auto a = static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm));
    const auto v = static_cast<std::uint8_t>(R[cur->rs2]);
    if (a - kNullPageSize < span1 && pages[a >> kDirtyPageShift] == kPageDirty) {
      mem[a] = v;
    } else {
      VM_SETTLE();
      if (!write_u8(a, v)) VM_TRAP(Trap::kBadMemory);
    }
    VM_SEQ();
  }
  VM_CASE(Add) {
    R[cur->rd] = R[cur->rs1] + R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Sub) {
    R[cur->rd] = R[cur->rs1] - R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Mul) {
    R[cur->rd] = R[cur->rs1] * R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Div) {
    if (R[cur->rs2] == 0) VM_TRAP(Trap::kDivZero);
    R[cur->rd] = R[cur->rs1] / R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Mod) {
    if (R[cur->rs2] == 0) VM_TRAP(Trap::kDivZero);
    R[cur->rd] = R[cur->rs1] % R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(And) {
    R[cur->rd] = R[cur->rs1] & R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Or) {
    R[cur->rd] = R[cur->rs1] | R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Xor) {
    R[cur->rd] = R[cur->rs1] ^ R[cur->rs2];
    VM_SEQ();
  }
  VM_CASE(Shl) {
    R[cur->rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[cur->rs1])
                                           << (R[cur->rs2] & 63));
    VM_SEQ();
  }
  VM_CASE(Shr) {
    R[cur->rd] = static_cast<std::int64_t>(static_cast<std::uint64_t>(R[cur->rs1]) >>
                                           (R[cur->rs2] & 63));
    VM_SEQ();
  }
  VM_CASE(AddI) {
    R[cur->rd] = R[cur->rs1] + static_cast<std::int64_t>(cur->imm);
    VM_SEQ();
  }
  VM_CASE(Not) {
    R[cur->rd] = ~R[cur->rs1];
    VM_SEQ();
  }
  VM_CASE(Neg) {
    R[cur->rd] = -R[cur->rs1];
    VM_SEQ();
  }
  VM_CASE(Cmp) {
    flags_ = R[cur->rs1] < R[cur->rs2] ? -1 : (R[cur->rs1] > R[cur->rs2] ? 1 : 0);
    VM_SEQ();
  }
  VM_CASE(CmpI) {
    const auto imm = static_cast<std::int64_t>(cur->imm);
    flags_ = R[cur->rs1] < imm ? -1 : (R[cur->rs1] > imm ? 1 : 0);
    VM_SEQ();
  }
  VM_CASE(Jmp) {
    pc = VM_PC(cur);
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm));
    VM_JUMP();
  }
  VM_CASE(Jz) {
    pc = VM_PC(cur);
    next = flags_ == 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                       : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Jnz) {
    pc = VM_PC(cur);
    next = flags_ != 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                       : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Jlt) {
    pc = VM_PC(cur);
    next = flags_ < 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                      : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Jle) {
    pc = VM_PC(cur);
    next = flags_ <= 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                       : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Jgt) {
    pc = VM_PC(cur);
    next = flags_ > 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                      : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Jge) {
    pc = VM_PC(cur);
    next = flags_ >= 0 ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
                       : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(Call) {
    pc = VM_PC(cur);
    next = static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm));
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, pc + kInstrSize);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    VM_JUMP();
  }
  VM_CASE(CallR) {
    pc = VM_PC(cur);
    next = static_cast<std::uint64_t>(R[cur->rs1]);
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, pc + kInstrSize);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    VM_JUMP();
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
      VM_TRAP(Trap::kHalt);
    }
    pc = VM_PC(cur);
    VM_JUMP();
  }
  VM_CASE(Push) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
    VM_STACK_CHECK(sp);
    VM_ST64(sp, R[cur->rs1]);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    VM_SEQ();
  }
  VM_CASE(Pop) {
    const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
    VM_STACK_CHECK(sp);
    VM_LD64(sp, R[cur->rd]);
    R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    VM_SEQ();
  }
  VM_CASE(Sys) {
    // Always a single step: SYS never joins a run.
    if (!syscall_) VM_TRAP(Trap::kBadOpcode);
    pc = VM_PC(cur);
    const Trap t = syscall_(*this, cur->imm);
    // The handler may have reshaped any hoisted state, the slot records
    // included: from here on only `pc` names this instruction.
    refresh();
    if (t != Trap::kNone) {
      cycles -= kSysCost;
      unsampled = kSysCost;
      VM_STOP(t);
    }
    next = pc + kInstrSize;
    goto retire;
  }
  VM_CASE(BadOp) {
    // Fetch-time failure routed through dispatch: not a retired instruction.
    --steps;
    VM_TRAP(Trap::kBadOpcode);
  }

  // --- fetch-failure and block-entry tokens -----------------------------------
  VM_CASE(BadJump) {
    --steps;  // hole between images: nothing retired
    VM_TRAP(Trap::kBadJump);
  }
  VM_CASE(Armed) {
    // Single step inside the fault window: record the hit at the cycle count
    // before this step's charge, then dispatch the base opcode (no window
    // slot joins a run, so every entry lands here).
    note_watch_hit(cycles - op_cost(cur->op));
    edge_live = edge_live_;
    VM_DISPATCH(static_cast<std::uint8_t>(cur->op));
  }
  VM_CASE(Step) { goto step; }

  // --- fused pairs (block tokens only) ----------------------------------------
  VM_CASE(CmpBr) {
    flags_ = R[cur->rs1] < R[cur->rs2] ? -1 : (R[cur->rs1] > R[cur->rs2] ? 1 : 0);
    VM_FUSE_NEXT();
    pc = VM_PC(cur);
    next = branch_taken(cur->op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
               : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(CmpIBr) {
    const auto imm = static_cast<std::int64_t>(cur->imm);
    flags_ = R[cur->rs1] < imm ? -1 : (R[cur->rs1] > imm ? 1 : 0);
    VM_FUSE_NEXT();
    pc = VM_PC(cur);
    next = branch_taken(cur->op, flags_)
               ? static_cast<std::uint64_t>(static_cast<std::int64_t>(cur->imm))
               : pc + kInstrSize;
    VM_JUMP();
  }
  VM_CASE(LdLd) {
    VM_LD64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rd]);
    VM_FUSE_NEXT();
    VM_LD64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rd]);
    VM_SEQ();
  }
  VM_CASE(LdAlu) {
    VM_LD64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rd]);
    VM_FUSE_NEXT();
    R[cur->rd] = alu_eval(cur->op, R[cur->rs1], R[cur->rs2]);
    VM_SEQ();
  }
  VM_CASE(LdPush) {
    VM_LD64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rd]);
    VM_FUSE_NEXT();
    {
      const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]) - 8;
      VM_STACK_CHECK(sp);
      VM_ST64(sp, R[cur->rs1]);
      R[isa::kRegSp] = static_cast<std::int64_t>(sp);
    }
    VM_SEQ();
  }
  VM_CASE(MovIAlu) {
    R[cur->rd] = static_cast<std::int64_t>(cur->imm);
    VM_FUSE_NEXT();
    R[cur->rd] = alu_eval(cur->op, R[cur->rs1], R[cur->rs2]);
    VM_SEQ();
  }
  VM_CASE(MovPop) {
    R[cur->rd] = R[cur->rs1];
    VM_FUSE_NEXT();
    {
      const auto sp = static_cast<std::uint64_t>(R[isa::kRegSp]);
      VM_STACK_CHECK(sp);
      VM_LD64(sp, R[cur->rd]);
      R[isa::kRegSp] = static_cast<std::int64_t>(sp + 8);
    }
    VM_SEQ();
  }
  VM_CASE(AluSt) {
    R[cur->rd] = alu_eval(cur->op, R[cur->rs1], R[cur->rs2]);
    VM_FUSE_NEXT();
    VM_ST64(static_cast<std::uint64_t>(R[cur->rs1] + static_cast<std::int64_t>(cur->imm)),
            R[cur->rs2]);
    VM_SEQ();
  }

#if !GF_VM_THREADED_DISPATCH
  default:
    // Unreachable: every token value has a case above.
    --steps;
    VM_TRAP(Trap::kBadOpcode);
  }
#endif

retire:
  // `pc` retired and `next` is its successor. A block never reaches the
  // horizon (its entry checked the whole run), so this fires only for a
  // single step.
  if (cycles >= horizon) [[unlikely]] goto at_horizon;
  pc = next;
  goto fetch;

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

trap_at_cur:
  // `cur` stops without retiring: give back the cycles its entry charged
  // for it and for the rest of its block, and the steps of the rest (the
  // stopping instruction itself counts as retired). No store precedes a
  // stop in any handler, so the run fields read here are the ones the
  // entry charged.
  cycles -= op_cost(cur->op) + (left > 1 ? cur[1].cost : 0);
  steps -= left - 1;
  pc = VM_PC(cur);
  goto out;

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
#undef VM_SETTLE
#undef VM_TRAP
#undef VM_STOP
#undef VM_PC
}

}  // namespace gf::vm
