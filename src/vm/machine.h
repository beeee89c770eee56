// The VISA virtual machine.
//
// The Machine executes (possibly mutated) code with *full containment*:
// every memory access is bounds-checked, the first page is left unmapped so
// null-pointer dereferences trap, control transfers are validated, and a
// cycle budget turns infinite loops into kCycleLimit traps. This is what
// lets the benchmark harness classify fault consequences (wrong result /
// crash / hang) instead of crashing the host process.
//
// A simple cycle cost model (memory ops and mul/div cost more, syscalls a
// lot more) feeds the performance simulation: response times in the
// SPECWeb-like client are derived from cycles consumed by OS API calls.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "isa/image.h"
#include "isa/isa.h"

namespace gf::vm {

enum class Trap : std::uint8_t {
  kNone = 0,     ///< still running (internal)
  kHalt,         ///< HALT executed or top-level RET reached
  kBadMemory,    ///< out-of-range or null-page access
  kBadOpcode,    ///< undecodable instruction (e.g. mutated into garbage)
  kBadJump,      ///< control transfer outside loaded code
  kDivZero,      ///< DIV/MOD by zero
  kCycleLimit,   ///< cycle budget exhausted (hang)
  kStackFault,   ///< push/pop outside the stack region
};

const char* trap_name(Trap t) noexcept;

constexpr std::size_t kNumTraps = 8;  ///< one past Trap::kStackFault

/// Lifetime dispatch tallies, folded in once per run at the execute() exit
/// (never touched inside the dispatch loop — the loop keeps a local step
/// counter in a register). The campaign controller harvests deltas of these
/// at run boundaries into the obs registry.
struct DispatchStats {
  std::uint64_t instructions = 0;  ///< instructions retired (incl. the trap op)
  std::uint64_t runs = 0;          ///< execute() invocations
  std::array<std::uint64_t, kNumTraps> traps{};  ///< indexed by Trap value
};

/// Outcome of one run/call.
struct RunResult {
  Trap trap = Trap::kNone;
  std::uint64_t cycles = 0;     ///< cycles consumed by this run
  std::uint64_t pc = 0;         ///< pc at stop
  std::int64_t ret = 0;         ///< r0 at stop (function return value)
  bool ok() const noexcept { return trap == Trap::kHalt; }
};

class Machine;

/// Kernel intrinsics (SYS instruction) are dispatched to this callback.
/// Arguments are in r1.., result goes to r0. Returning a trap aborts the run.
using SyscallHandler = std::function<Trap(Machine&, std::int32_t number)>;

/// One taken control transfer (from -> to) recorded after a watch hit.
struct TraceEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  bool operator==(const TraceEdge&) const = default;
};

/// Activation trace of the currently / last armed watch window: first-hit
/// cycle, hit count, and a bounded ring of the control-flow edges taken
/// after the window was first entered (the start of the propagation path).
struct WatchTrace {
  static constexpr std::size_t kEdgeRing = 16;
  std::uint64_t hits = 0;
  std::uint64_t first_hit_cycle = 0;  ///< Machine::total_cycles() at first hit
  std::uint64_t edge_count = 0;       ///< edges seen (ring keeps the last 16)
  std::array<TraceEdge, kEdgeRing> ring{};

  /// The recorded edges in chronological order (at most kEdgeRing).
  std::vector<TraceEdge> edges() const;
};

/// One recorded guest-memory write (see Machine::begin_write_capture):
/// replaying the spans of a deterministic execution in order reproduces its
/// memory effect exactly, without re-executing the code.
struct WriteSpan {
  std::uint64_t addr = 0;
  std::vector<std::uint8_t> bytes;
};

class Machine {
 public:
  /// `mem_size` is the flat physical memory size. The first kNullPageSize
  /// bytes are unmapped (null-deref detection). Memory is a private
  /// anonymous mapping that the host kernel zero-fills on demand: a page
  /// costs host memory only once it is first written, and that first write
  /// takes one minor page fault (~1.5 µs each on a 4-vCPU VM host). A warm
  /// machine pays them for its snapshot's pages at construction and for the
  /// few dozen more its first run writes; one reused through restore() has
  /// its pages already.
  explicit Machine(std::size_t mem_size = kDefaultMemSize);

  static constexpr std::size_t kDefaultMemSize = 8u << 20;  // 8 MiB
  static constexpr std::uint64_t kNullPageSize = 0x1000;
  /// Sentinel return address: a top-level RET to this address ends the run.
  static constexpr std::uint64_t kReturnSentinel = 0xFFFFFFFFFFFF0000ULL;

  /// Dirty-tracking granularity (one state byte per 4 KiB page).
  static constexpr std::uint64_t kDirtyPageShift = 12;
  static constexpr std::uint64_t kDirtyPageSize = 1u << kDirtyPageShift;

  /// Full machine state for warm-boot snapshots, sparse: the memory size,
  /// the ascending indices of the kDirtyPageSize pages that hold a non-zero
  /// byte and those pages' bytes, plus the execution state a restore must
  /// reproduce (registers, comparison flags, lifetime cycle counter). Every
  /// page the list omits is zero and the list holds no all-zero page, so
  /// two states are equal exactly when the machines they describe are. A
  /// warm VOS snapshot lists a few dozen of the 2048 pages of 8 MiB.
  /// Snapshots are plain data — safe to share read-only across threads.
  struct State {
    std::size_t mem_size = 0;
    std::vector<std::size_t> pages;  ///< non-zero page indices, ascending
    /// kDirtyPageSize bytes per listed page, in list order; a last page cut
    /// short by mem_size is zero past it.
    std::vector<std::uint8_t> bytes;
    std::array<std::int64_t, isa::kNumRegs> regs{};
    int flags = 0;
    std::uint64_t total_cycles = 0;
    friend bool operator==(const State&, const State&) = default;
  };

  /// Warm construction: fresh zero memory, then only the state's pages
  /// copied in, so construction costs O(written pages), not O(mem_size);
  /// registers, flags and cycle counter from the state; every page clean.
  /// The snapshot already holds the code bytes; register their executable
  /// range with map_image. Throws std::invalid_argument for a malformed
  /// state (pages out of order or out of range, byte count mismatch).
  explicit Machine(const State& s);

  // --- setup -------------------------------------------------------------
  /// Copies an image's code into memory at its base address and remembers
  /// the executable range (jumps outside any loaded image trap).
  void load_image(const isa::Image& img);

  /// Remembers `img`'s executable range over bytes already in memory and
  /// decodes it, without copying the code (the warm-construction half of
  /// load_image).
  void map_image(const isa::Image& img);

  /// Replaces the bytes of an already-loaded image (after mutation). The
  /// image must cover the same address range.
  void reload_code(const isa::Image& img);

  /// Overwrites `n` code bytes at `addr` and refreshes the predecoded
  /// instructions covering them. Unlike write_bytes this is exempt from the
  /// null-page rule (it is a loader/injector primitive, not a guest access).
  /// Returns false when [addr, addr+n) is not inside physical memory.
  bool patch_code(std::uint64_t addr, const void* data, std::size_t n) noexcept;

  /// Re-decodes the predecoded-instruction cache for every instruction slot
  /// overlapping [addr, addr+len). Anything that mutates code bytes in VM
  /// memory behind the accessors' back must call this; the checked write
  /// accessors and patch_code/reload_code call it automatically.
  void invalidate_code(std::uint64_t addr, std::uint64_t len) noexcept;

  /// Predecoded dispatch is on by default: code is decoded once at load into
  /// one slot record per instruction, and the hot loop runs whole
  /// straight-line blocks from those records (see machine.cpp). Turning it
  /// off falls back to per-step decode, the reference the equivalence suites
  /// compare against; turning it back on rebuilds the records from memory.
  void set_predecode(bool enabled);
  bool predecode() const noexcept { return predecode_; }

  /// Decode-time superinstruction fusion (on by default): inside a block,
  /// common adjacent pairs (compare+branch, load+ALU, ...) execute as one
  /// handler. Architectural effects (registers, memory, cycles, traps,
  /// retired-instruction counts, watch traces) are identical with fusion on
  /// or off; the switch exists for equivalence testing. Toggling
  /// re-tokenizes in place.
  void set_fusion(bool enabled);
  bool fusion() const noexcept { return fusion_; }

  /// Longest straight-line run one slot record describes. A longer run is
  /// split into blocks of at most this many instructions.
  static constexpr std::size_t kMaxRunLength = 0xFFFF;

  /// Dispatch lowering compiled into this build: "threaded" (computed-goto
  /// labels-as-values) or "switch" (portable fallback). Selected at configure
  /// time via the GF_VM_DISPATCH CMake option.
  static const char* dispatch_kind() noexcept;

  /// Test hook for the differential fuzzer (src/check): FNV-1a digest over
  /// the full architectural state — memory, registers, comparison flags and
  /// the lifetime cycle counter. Two machines that executed equivalent
  /// instruction streams must agree on this digest at every trap boundary,
  /// for any dispatch lowering, predecode or fusion setting.
  std::uint64_t state_digest() const noexcept;

  void set_syscall_handler(SyscallHandler handler) { syscall_ = std::move(handler); }

  /// [lo, hi) range PUSH/POP must stay within; also used to position sp.
  void set_stack_region(std::uint64_t lo, std::uint64_t hi);

  // --- register / memory access (also used by syscall handlers) ----------
  std::int64_t reg(int r) const noexcept { return regs_[r]; }
  void set_reg(int r, std::int64_t v) noexcept { regs_[r] = v; }

  std::size_t mem_size() const noexcept { return mem_.size(); }
  /// Checked accessors; return false / trap on range errors.
  bool read_u8(std::uint64_t addr, std::uint8_t& out) const noexcept;
  bool write_u8(std::uint64_t addr, std::uint8_t v) noexcept;
  bool read_u64(std::uint64_t addr, std::uint64_t& out) const noexcept;
  bool write_u64(std::uint64_t addr, std::uint64_t v) noexcept;
  /// Bulk helpers for syscall handlers; false when any byte is unmapped.
  bool read_bytes(std::uint64_t addr, void* out, std::size_t n) const noexcept;
  bool write_bytes(std::uint64_t addr, const void* data, std::size_t n) noexcept;
  /// Reads a NUL-terminated byte string (bounded by max_len); false on fault.
  bool read_cstr(std::uint64_t addr, std::string& out,
                 std::size_t max_len = 4096) const noexcept;

  /// Read-only pointer to `n` bytes of physical memory at `addr`, or nullptr
  /// when the span is out of range (loader/snapshot primitive — not subject
  /// to the null-page rule).
  const std::uint8_t* raw(std::uint64_t addr, std::size_t n) const noexcept;

  // --- dirty tracking / snapshots -----------------------------------------
  /// Every mutation of guest memory (checked writes, patch_code, reload_code,
  /// load_image) marks the covered kDirtyPageSize pages dirty. restore()
  /// copies back only dirty pages, making per-iteration state reset O(dirty)
  /// instead of O(memory).
  bool page_dirty(std::uint64_t addr) const noexcept {
    const std::uint64_t page = addr >> kDirtyPageShift;
    return page < page_state_.size() && (page_state_[page] & kPageDirty) != 0;
  }
  /// Marks [addr, addr+len) dirty (for external mutations of raw state).
  void mark_dirty(std::uint64_t addr, std::uint64_t len) noexcept;
  /// Clears the dirty bits covering [addr, addr+len).
  void clear_dirty(std::uint64_t addr, std::uint64_t len) noexcept;
  void clear_all_dirty() noexcept;

  /// Captures the full machine state (the non-zero memory pages + registers
  /// + flags + lifetime cycle counter; one scan of memory) and clears every
  /// dirty bit, establishing the baseline restore() diffs against.
  State snapshot();
  /// Restores to `s` by rewriting only pages dirtied since the snapshot: a
  /// page the state lists gets its bytes back, any other is zero-filled.
  /// Registers, flags and cycles come back too, and the predecode cache is
  /// invalidated over any restored code pages so they re-decode lazily.
  /// `s.mem_size` must match mem_size() (else std::runtime_error). Clears
  /// every dirty bit.
  void restore(const State& s);

  /// Comparison-flag state (CMP result sign); call() preserves registers but
  /// not flags, so deterministic replays must restore these explicitly.
  int cmp_flags() const noexcept { return flags_; }
  void set_cmp_flags(int f) noexcept { flags_ = f; }

  /// Advances the lifetime cycle counter without executing (replay of a
  /// recorded boot must reproduce the counter exactly — activation traces
  /// record absolute first-hit cycles).
  void add_cycles(std::uint64_t c) noexcept { total_cycles_ += c; }

  // --- write capture -------------------------------------------------------
  /// Starts recording every checked guest write as a WriteSpan. Used once,
  /// during the first cold boot, to learn the boot's exact memory effect;
  /// replaying the spans is then equivalent to re-running the boot code.
  void begin_write_capture();
  /// Stops recording and returns the spans in write order.
  std::vector<WriteSpan> end_write_capture();

  // --- execution ----------------------------------------------------------
  /// Calls the function at `addr` with up to 6 integer arguments, using a
  /// fresh stack frame at the top of the stack region. Returns when the
  /// function returns (RET to sentinel), or on trap / budget exhaustion.
  RunResult call(std::uint64_t addr, const std::vector<std::int64_t>& args,
                 std::uint64_t cycle_budget);

  /// Raw run from `pc` until HALT/trap/budget (used by tests/examples).
  RunResult run(std::uint64_t pc, std::uint64_t cycle_budget);

  /// Total cycles consumed over the machine's lifetime.
  std::uint64_t total_cycles() const noexcept { return total_cycles_; }

  /// Lifetime dispatch statistics. Deliberately *not* part of State: a
  /// restore rolls back the simulated machine, but the work spent executing
  /// still happened — consumers read deltas across run boundaries.
  const DispatchStats& dispatch_stats() const noexcept { return stats_; }

  // --- fault-activation watch ---------------------------------------------
  /// Arms an address watch on [lo, hi): the first time the PC enters the
  /// window the trace records the hit cycle, every re-entry bumps the hit
  /// count, and subsequent taken control transfers land in a bounded edge
  /// ring. Armed slots leave their straight-line runs and single-step
  /// through the full fetch; arming rewrites only the records of the window
  /// and of the runs leading into it, so code outside the window runs
  /// exactly as it does disarmed (ZOFI's principle: monitoring must cost
  /// ~zero when off). Re-arming resets the trace.
  void arm_watch(std::uint64_t lo, std::uint64_t hi);
  /// Disarms the watch; the accumulated trace stays readable.
  void disarm_watch();
  bool watch_armed() const noexcept { return watch_hi_ != 0; }
  const WatchTrace& watch_trace() const noexcept { return watch_; }

  // --- deterministic PC sampler ---------------------------------------------
  /// Arms the virtual-cycle stride sampler: every `stride` consumed cycles
  /// the PC of the instruction retiring at that boundary is recorded (pc ->
  /// hit count). Sampling runs on the *virtual* clock and only at retired
  /// architectural-step boundaries, so the sample stream is a pure function
  /// of executed code — bit-identical with fusion on/off and for either
  /// dispatch lowering. Overshoot carries into the next period (an
  /// instruction costing more than a stride yields multiple samples), so the
  /// cadence is exact regardless of per-instruction cost granularity. The
  /// next sample is folded with the cycle budget into one event horizon, so
  /// the hot loop pays nothing extra per block, armed or not (disarmed, the
  /// countdown idles at a sentinel no campaign can exhaust).
  /// Re-arming resets the accumulated samples; `stride == 0` disarms.
  void arm_sampler(std::uint64_t stride);
  /// Disarms the sampler; accumulated samples stay readable.
  void disarm_sampler();
  bool sampler_armed() const noexcept { return sample_stride_ != 0; }
  /// Sampled cycles left until the next sample: the phase one run carries
  /// into the next (idles near 2^62 while disarmed).
  std::int64_t sampler_countdown() const noexcept { return sample_left_; }
  /// Accumulated samples since the last arm, keyed by instruction address.
  const std::map<std::uint64_t, std::uint64_t>& samples() const noexcept {
    return samples_;
  }

 private:
  struct CodeRange {
    std::uint64_t lo, hi;
  };

  /// Guest memory: `size` bytes of a private anonymous mapping, marked
  /// MADV_NOHUGEPAGE so a host with transparent huge pages always on does
  /// not back each touched 2 MiB with a huge page. Move-only; a moved-from
  /// Memory is empty.
  class Memory {
   public:
    explicit Memory(std::size_t size);
    ~Memory();
    Memory(Memory&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
    Memory& operator=(Memory&& o) noexcept {
      std::swap(data_, o.data_);  // o unmaps what this held
      std::swap(size_, o.size_);
      return *this;
    }

    std::uint8_t* data() noexcept { return data_; }
    const std::uint8_t* data() const noexcept { return data_; }
    std::size_t size() const noexcept { return size_; }
    std::uint8_t& operator[](std::size_t i) noexcept { return data_[i]; }
    std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

   private:
    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
  };

  /// Per-slot flag bits (predecode side-table).
  static constexpr std::uint8_t kSlotValid = 1;  ///< slot inside a loaded image
  static constexpr std::uint8_t kSlotArmed = 2;  ///< slot inside the watch window

  /// One predecoded instruction slot of the code hull: the decoded
  /// instruction, its two dispatch tokens, and the straight-line run that
  /// starts here (`len` instructions up to and including the control
  /// transfer that ends it, costing `cost` cycles in total). SYS, HALT,
  /// armed, hole and undecodable slots never join a run: `len` is 0.
  struct Slot : isa::Instr {
    std::uint8_t tok = 0;    ///< block token: base op or fused pair
    std::uint8_t step = 0;   ///< single-step token: base op or fetch failure
    std::uint16_t len = 0;   ///< run length, 0 for a slot outside any run
    std::uint32_t cost = 0;  ///< summed cycle cost of the run
    friend bool operator==(const Slot&, const Slot&) = default;
  };

  bool in_code(std::uint64_t addr) const noexcept;
  RunResult execute(std::uint64_t pc, std::uint64_t cycle_budget);
  void rebuild_predecode();
  /// Recomputes the tokens and run fields of slot `s` from its instruction,
  /// its flags and the (already final) record of slot `s + 1`.
  void rebuild_slot(std::size_t s) noexcept;
  /// Recomputes slots [lo_slot, hi_slot) (clamped), right to left, then
  /// keeps walking left while records change: a slot's run reaches rightward
  /// through every slot up to its run break, so a change at `s` can reach
  /// every slot before it in the same run.
  void rebuild_runs(std::size_t lo_slot, std::size_t hi_slot) noexcept;
  /// rebuild_runs over the slots covering [lo, hi).
  void rebuild_runs_for_range(std::uint64_t lo, std::uint64_t hi) noexcept;
  /// Re-applies the armed bits of the active watch to the slot flags (after
  /// a predecode rebuild wiped them).
  void apply_watch_bits() noexcept;
  /// Cold path of the armed-bit branch: updates the watch trace.
  void note_watch_hit(std::uint64_t cycles) noexcept;
  void note_watch_edge(std::uint64_t from, std::uint64_t to) noexcept;
  /// Cheap overlap test before the full invalidate — inlined into every
  /// checked write so guest stores into the code region (possible under
  /// mutated pointers) can never leave the predecode cache stale.
  void maybe_invalidate(std::uint64_t addr, std::uint64_t len) noexcept {
    if (!slots_.empty() && addr < code_hi_ && addr + len > code_lo_) {
      invalidate_code(addr, len);
    }
  }
  /// Dirty-marking + optional write-capture tail shared by every mutation
  /// path. The page-state update is one or two byte ORs for typical writes;
  /// the capture branch is never taken outside the one-time boot recording.
  void note_write(std::uint64_t addr, std::uint64_t len) noexcept {
    for (std::uint64_t p = addr >> kDirtyPageShift,
                       last = (addr + len - 1) >> kDirtyPageShift;
         p <= last; ++p) {
      page_state_[p] |= kPageDirty;
    }
    if (capture_) [[unlikely]] {
      captured_.push_back({addr, {&mem_[addr], &mem_[addr] + len}});
    }
  }
  /// Sets `bit` on every page when `on`, else clears it everywhere.
  void set_page_bit(std::uint8_t bit, bool on) noexcept;
  /// Bytes of the page at `addr` inside memory: kDirtyPageSize, less for a
  /// last page cut short by mem_size().
  std::size_t page_span(std::uint64_t addr) const noexcept {
    const std::uint64_t rest = mem_.size() - addr;
    return static_cast<std::size_t>(rest < kDirtyPageSize ? rest : kDirtyPageSize);
  }
  /// Throws unless `s` is a state of this machine's size with its pages
  /// strictly ascending, in range, and kDirtyPageSize bytes each.
  void check_state(const State& s) const;

  // Page-state bits, one byte per kDirtyPageSize page. A guest store whose
  // pages all read exactly kPageDirty may skip the rest of the write path:
  // the dirty bit is already set, no predecoded slot can overlap it, and no
  // capture is recording (see the execute() comment in machine.cpp).
  static constexpr std::uint8_t kPageDirty = 1;  ///< written since the last clear
  static constexpr std::uint8_t kPageCode = 2;   ///< overlaps the predecode hull
  /// Mirrors capture_ on every page (set and cleared only with it, one
  /// sweep per capture, i.e. per first cold boot), so the store fast path
  /// stays one byte compare per page: testing a hoisted copy of capture_
  /// instead measured 5-11% slower on BM_VmDispatchNoPredecode and 1-4%
  /// on BM_VmDispatchMemMix.
  static constexpr std::uint8_t kPageCapture = 4;

  Memory mem_;
  std::vector<std::uint8_t> page_state_;  ///< kPage* bits per kDirtyPageSize page
  bool capture_ = false;
  std::vector<WriteSpan> captured_;
  std::int64_t regs_[isa::kNumRegs] = {};
  int flags_ = 0;  ///< sign of last comparison: -1, 0, +1
  std::vector<CodeRange> code_ranges_;

  // Predecode cache: one Slot per kInstrSize slot over the merged hull
  // [code_lo_, code_hi_) of all loaded ranges. slot_flags_ carries kSlotValid
  // for slots that lie inside an actual image (holes between images stay
  // kBadJump) plus kSlotArmed for slots inside the watch window; undecodable
  // bytes predecode to Op::kOpCount_ (the kBadOpcode marker). The tokens and
  // run fields of slots_ derive from the instructions and slot_flags_ and
  // are rebuilt alongside them.
  bool predecode_ = true;
  bool fusion_ = true;
  std::uint64_t code_lo_ = 0, code_hi_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> slot_flags_;
  mutable std::size_t last_range_ = 0;  ///< in_code() last-hit cache
  std::uint64_t stack_lo_ = 0, stack_hi_ = 0;
  SyscallHandler syscall_;
  std::uint64_t total_cycles_ = 0;
  DispatchStats stats_;

  /// Sampler countdown idle sentinel: no realistic machine lifetime retires
  /// this many cycles, so a disarmed sampler's horizon is always the budget.
  static constexpr std::int64_t kSamplerIdle = std::int64_t{1} << 62;
  std::uint64_t sample_stride_ = 0;          ///< 0 = disarmed
  std::int64_t sample_left_ = kSamplerIdle;  ///< cycles until the next sample
  std::map<std::uint64_t, std::uint64_t> samples_;  ///< pc -> sample count

  // Armed watch window [watch_lo_, watch_hi_); hi == 0 means disarmed.
  std::uint64_t watch_lo_ = 0, watch_hi_ = 0;
  /// True once the armed window was entered: taken control transfers are
  /// recorded from that point on (checked by control-transfer handlers only,
  /// and true only while a fault is actually live and activated).
  bool edge_live_ = false;
  WatchTrace watch_;
};

}  // namespace gf::vm
