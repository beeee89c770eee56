// Superinstruction-fusion equivalence suite.
//
// The contract under test (see machine.h set_fusion and DESIGN.md): fusion
// is a pure execution strategy — registers, memory, cycles, traps, retired
// instruction counts and watch traces are bit-identical with fusion on or
// off, for any cycle budget, and the xop token table can never go stale:
// any code write landing on either half of a fused pair (guest store,
// patch_code, snapshot restore) splits the pair before it next executes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "isa/assembler.h"
#include "isa/isa.h"
#include "vm/machine.h"

namespace gf::vm {
namespace {

using isa::assemble;

/// Everything a run observably produces, including the lifetime tallies.
struct Probe {
  RunResult r;
  std::uint64_t instructions = 0;
  std::uint64_t total_cycles = 0;
};

Probe probe_call(Machine& m, const isa::Image& img,
                 const std::vector<std::int64_t>& args,
                 std::uint64_t budget = 100000) {
  Probe p;
  p.r = m.call(img.find_symbol("f")->addr, args, budget);
  p.instructions = m.dispatch_stats().instructions;
  p.total_cycles = m.total_cycles();
  return p;
}

void expect_same(const Probe& fused, const Probe& plain, const char* what) {
  EXPECT_EQ(fused.r.trap, plain.r.trap) << what;
  EXPECT_EQ(fused.r.ret, plain.r.ret) << what;
  EXPECT_EQ(fused.r.cycles, plain.r.cycles) << what;
  EXPECT_EQ(fused.r.pc, plain.r.pc) << what;
  EXPECT_EQ(fused.instructions, plain.instructions) << what;
  EXPECT_EQ(fused.total_cycles, plain.total_cycles) << what;
}

/// One straight-line + branchy program that exercises every fused pair the
/// tokenizer knows: ld+ld, ld+alu, ld+push, movi+alu, mov+pop, alu+st,
/// cmp+branch and cmpi+branch (taken and not taken).
const char* kAllPairsSrc = R"(
  f:
    movi r3, 0x100000
    st [r3], r1
    st [r3, 8], r2
    ld r4, [r3]
    ld r5, [r3, 8]
    add r6, r4, r5
    st [r3, 16], r6
    ld r7, [r3, 16]
    mul r7, r7, r2
    movi r8, 3
    add r8, r8, r7
    ld r9, [r3]
    push r9
    mov r10, r8
    pop r11
    add r0, r10, r11
    cmpi r1, 5
    jlt @small
    cmp r1, r2
    jgt @big
    ret
  small:
    movi r0, -1
    ret
  big:
    addi r0, r0, 1
    ret
)";

TEST(Fusion, AllFusedPairsEquivalent) {
  const auto img = assemble(kAllPairsSrc, "t", 0x1000);
  const std::vector<std::vector<std::int64_t>> cases = {
      {1, 2},   // cmpi taken (small path)
      {9, 2},   // cmp taken (big path)
      {6, 7},   // both fall through
      {0, 0}, {100, -3},
  };
  for (const auto& args : cases) {
    Machine fused, plain;
    fused.load_image(img);
    plain.load_image(img);
    plain.set_fusion(false);
    EXPECT_TRUE(fused.fusion());
    EXPECT_FALSE(plain.fusion());
    expect_same(probe_call(fused, img, args), probe_call(plain, img, args),
                "AllFusedPairs");
  }
}

/// Budget exhaustion may land between the two halves of a fused pair; the
/// engine must stop with exactly the unfused pc/cycles/step count. Sweep
/// every budget from 1 up to well past completion.
TEST(Fusion, CycleBudgetSweepMatchesUnfused) {
  const char* src = R"(
    f:
      movi r3, 0x100000
      st [r3], r1
      movi r4, 0
      movi r5, 0
    loop:
      cmp r5, r1
      jge @done
      ld r6, [r3]
      add r4, r4, r6
      addi r5, r5, 1
      jmp @loop
    done:
      mov r0, r4
      ret
  )";
  const auto img = assemble(src, "t", 0x1000);
  for (std::uint64_t budget = 1; budget <= 120; ++budget) {
    Machine fused, plain;
    fused.load_image(img);
    plain.load_image(img);
    plain.set_fusion(false);
    const auto pf = probe_call(fused, img, {5}, budget);
    const auto pp = probe_call(plain, img, {5}, budget);
    expect_same(pf, pp, "budget sweep");
    if (budget >= 60) {
      EXPECT_EQ(pf.r.trap, Trap::kHalt) << budget;
      EXPECT_EQ(pf.r.ret, 25) << budget;
    }
  }
}

/// A guest 8-byte store that overwrites the *second* half of an
/// already-fused pair mid-run: the write-path auto-invalidation must split
/// the pair before the pc reaches it, so the patched instruction (not the
/// stale fused body) executes. The donor instruction's bytes are loaded
/// from the image itself, so the test needs no knowledge of the encoding.
/// The second store lands on a code page the first store (and the load
/// before it) already dirtied: being dirty must not let a store into code
/// skip the invalidation.
TEST(Fusion, GuestStoreSplitsFusedPair) {
  const char* src = R"(
    f:
      movi r3, @donor
      ld r4, [r3]
      movi r5, @target
      st [r5], r4
      movi r1, 1
      movi r2, 2
      cmp r1, r2
    target:
      jgt @wrong
      movi r3, @donor2
      ld r4, [r3]
      movi r5, @target2
      st [r5], r4
      cmpi r0, 99
    target2:
      jz @wrong2
      ret
    wrong:
      movi r0, 55
      ret
    wrong2:
      movi r0, 77
      ret
    donor:
      movi r0, 99
    donor2:
      addi r0, r0, 1
  )";
  const auto img = assemble(src, "t", 0x1000);
  const auto target2 = img.find_symbol("target2")->addr;
  ASSERT_EQ(target2 >> Machine::kDirtyPageShift,
            img.find_symbol("target")->addr >> Machine::kDirtyPageShift);
  Machine fused, plain;
  fused.load_image(img);
  plain.load_image(img);
  plain.set_fusion(false);
  ASSERT_TRUE(fused.page_dirty(target2));
  const auto pf = probe_call(fused, img, {});
  const auto pp = probe_call(plain, img, {});
  expect_same(pf, pp, "guest store split");
  // Both overwritten instructions must have executed: r0 = 99, then
  // r0 + 1 = 100. A stale first pair leaves r0 below 2; a stale second
  // pair jumps to wrong2 (77).
  EXPECT_EQ(pf.r.ret, 100);
}

/// The event horizon folds the cycle budget and the sampler's next due
/// cycle into one test per retire. Sweep budgets against sampler strides
/// over a chain of runs that stop every way a run can stop (budget, failed
/// SYS, HALT, sentinel RET): fused, unfused and per-step-decode machines
/// must agree on every result, sample stream, carried countdown and state
/// digest. The program's fused pairs put budget stops between two halves.
TEST(Fusion, HorizonSweepMatchesUnfused) {
  const char* src = R"(
    f:
      movi r3, 0x8000
      movi r4, 0
    loop:
      cmpi r1, 0
    mid_br:
      jle @done
      st [r3], r1
      ld r5, [r3]
    mid_alu:
      add r4, r4, r5
      movi r6, 1
      sub r1, r1, r6
      push r4
      mov r7, r4
    mid_pop:
      pop r8
      mul r9, r8, r8
    mid_st:
      st [r3, 8], r9
      jmp @loop
    done:
      mov r0, r4
      ret
    g:
      movi r0, 1
      sys 2
      ret
    h:
      movi r0, 5
      addi r0, r0, 1
      halt
  )";
  const auto img = assemble(src, "t", 0x1000);
  const auto f = img.find_symbol("f")->addr;
  const auto g = img.find_symbol("g")->addr;
  const auto h = img.find_symbol("h")->addr;
  std::set<std::uint64_t> mids;
  for (const char* m : {"mid_br", "mid_alu", "mid_pop", "mid_st"}) {
    mids.insert(img.find_symbol(m)->addr);
  }
  std::set<std::uint64_t> split_stops;
  bool sample_on_budget = false;

  for (const std::uint64_t stride : {1u, 2u, 3u, 7u, 4096u}) {
    for (std::uint64_t budget = 1; budget <= 90; ++budget) {
      // A small memory keeps the per-step state digests cheap.
      Machine fused(0x10000), plain(0x10000), nopre(0x10000);
      plain.set_fusion(false);
      nopre.set_predecode(false);
      std::vector<Machine*> ms = {&fused, &plain, &nopre};
      for (Machine* m : ms) {
        m->load_image(img);
        m->set_syscall_handler(
            [](Machine&, std::int32_t) { return Trap::kBadMemory; });
        m->arm_sampler(stride);
      }
      // Each link of the chain runs on every machine, then all are compared.
      auto step = [&](const char* what, auto&& run) {
        std::vector<RunResult> rs;
        std::vector<std::uint64_t> digests;
        for (Machine* m : ms) {
          rs.push_back(run(*m));
          digests.push_back(m->state_digest());
        }
        for (std::size_t i = 1; i < ms.size(); ++i) {
          const auto ctx = ::testing::Message() << what << " stride " << stride
                                                << " budget " << budget << " m" << i;
          EXPECT_EQ(rs[i].trap, rs[0].trap) << ctx;
          EXPECT_EQ(rs[i].cycles, rs[0].cycles) << ctx;
          EXPECT_EQ(rs[i].pc, rs[0].pc) << ctx;
          EXPECT_EQ(rs[i].ret, rs[0].ret) << ctx;
          EXPECT_EQ(ms[i]->samples(), ms[0]->samples()) << ctx;
          EXPECT_EQ(ms[i]->sampler_countdown(), ms[0]->sampler_countdown()) << ctx;
          EXPECT_EQ(digests[i], digests[0]) << ctx;
          EXPECT_EQ(ms[i]->dispatch_stats().instructions,
                    ms[0]->dispatch_stats().instructions) << ctx;
        }
        return rs[0];
      };
      const auto r1 = step("budget call", [&](Machine& m) { return m.call(f, {4}, budget); });
      if (r1.trap == Trap::kCycleLimit) {
        if (mids.count(r1.pc) != 0) split_stops.insert(r1.pc);
        if (stride > 1 && fused.sampler_countdown() == static_cast<std::int64_t>(stride)) {
          sample_on_budget = true;
        }
      }
      step("failed sys", [&](Machine& m) { return m.call(g, {}, budget + 40); });
      step("halt", [&](Machine& m) { return m.run(h, budget + 40); });
      step("sentinel ret", [&](Machine& m) { return m.call(f, {3}, 1000); });
      step("budget call again", [&](Machine& m) { return m.call(f, {4}, budget); });
    }
  }
  // The sweep really covered the boundaries it exists for.
  EXPECT_EQ(split_stops, mids);
  EXPECT_TRUE(sample_on_budget);
}

/// Same property for a 1-byte guest store: stb into the immediate field of
/// the second load of a fused ld+ld pair redirects it to another address.
TEST(Fusion, GuestByteStoreSplitsFusedPair) {
  // imm lives at byte offset 4 of the 8-byte encoding (see isa::encode).
  const char* src = R"(
    f:
      movi r3, 0x100000
      movi r4, 11
      st [r3], r4
      movi r4, 22
      st [r3, 8], r4
      movi r5, @target
      movi r6, 8
      stb [r5, 4], r6
      ld r7, [r3]
    target:
      ld r0, [r3, 0]
      ret
  )";
  const auto img = assemble(src, "t", 0x1000);
  Machine fused, plain;
  fused.load_image(img);
  plain.load_image(img);
  plain.set_fusion(false);
  const auto pf = probe_call(fused, img, {});
  const auto pp = probe_call(plain, img, {});
  expect_same(pf, pp, "guest byte store split");
  // The patched offset (8) must be live: r0 = 22, not the stale 11.
  EXPECT_EQ(pf.r.ret, 22);
}

/// Injector-style patch_code over the second half of a fused pair, then a
/// snapshot restore back: both transitions must re-tokenize, and the
/// restored machine must reproduce the pristine run bit-identically.
TEST(Fusion, InjectRestoreOverFusedPairRoundTrips) {
  const char* src = R"(
    f:
      cmp r1, r2
    target:
      jlt @less
      ret
    less:
      movi r0, 8
      ret
  )";
  const auto img = assemble(src, "t", 0x1000);
  const auto target = img.find_symbol("target")->addr;

  // The "fault": turn the jlt into movi r0, 42 (computed via isa::encode —
  // exactly what the swfit injector does with operator byte sequences).
  std::uint8_t patch[isa::kInstrSize];
  isa::encode({isa::Op::kMovI, 0, 0, 0, 42}, patch);

  for (const bool fusion : {true, false}) {
    Machine m, witness;
    m.load_image(img);
    witness.load_image(img);
    m.set_fusion(fusion);
    witness.set_fusion(fusion);

    const auto snap = m.snapshot();
    const auto before = m.call(img.find_symbol("f")->addr, {1, 2}, 1000);
    EXPECT_EQ(before.ret, 8) << fusion;

    ASSERT_TRUE(m.patch_code(target, patch, sizeof patch));
    const auto injected = m.call(img.find_symbol("f")->addr, {1, 2}, 1000);
    EXPECT_EQ(injected.ret, 42) << fusion;  // stale fusion would return 8

    m.restore(snap);
    const auto after = m.call(img.find_symbol("f")->addr, {1, 2}, 1000);
    const auto pristine = witness.call(img.find_symbol("f")->addr, {1, 2}, 1000);
    EXPECT_EQ(after.trap, pristine.trap) << fusion;
    EXPECT_EQ(after.ret, pristine.ret) << fusion;
    EXPECT_EQ(after.cycles, pristine.cycles) << fusion;
    EXPECT_EQ(after.pc, pristine.pc) << fusion;
  }
}

/// An armed fault-window watch whose window covers the second half of a
/// would-be fused pair: arming must split the pair (single-step inside the
/// window), and the trace — hits, first-hit cycle, edge ring — must be
/// identical with fusion on and off. Disarming must re-fuse.
TEST(Fusion, ArmedWatchOverFusedPairTracesIdentically) {
  const char* src = R"(
    f:
      movi r4, 0
      movi r5, 0
    loop:
      cmp r5, r1
    target:
      jge @done
      addi r4, r4, 3
      addi r5, r5, 1
      jmp @loop
    done:
      mov r0, r4
      ret
  )";
  const auto img = assemble(src, "t", 0x1000);
  const auto target = img.find_symbol("target")->addr;

  Machine fused, plain;
  fused.load_image(img);
  plain.load_image(img);
  plain.set_fusion(false);
  for (Machine* m : {&fused, &plain}) {
    m->arm_watch(target, target + isa::kInstrSize);
  }
  const auto pf = probe_call(fused, img, {4});
  const auto pp = probe_call(plain, img, {4});
  expect_same(pf, pp, "armed watch over pair");
  EXPECT_EQ(pf.r.ret, 12);

  const auto& tf = fused.watch_trace();
  const auto& tp = plain.watch_trace();
  EXPECT_EQ(tf.hits, tp.hits);
  EXPECT_GT(tf.hits, 0u);
  EXPECT_EQ(tf.first_hit_cycle, tp.first_hit_cycle);
  EXPECT_EQ(tf.edge_count, tp.edge_count);
  EXPECT_EQ(tf.edges(), tp.edges());

  // Disarm re-fuses; the machines stay equivalent.
  fused.disarm_watch();
  plain.disarm_watch();
  expect_same(probe_call(fused, img, {4}), probe_call(plain, img, {4}),
              "after disarm");
}

/// A stride-1 sampler records every consumed cycle at the pc that retired
/// it, so its sample map (pc -> cycles) sees every architectural pc — each
/// half of every fused pair — and must match the unfused engine exactly.
TEST(Fusion, CoverageSeesEveryArchitecturalPc) {
  const auto img = assemble(kAllPairsSrc, "t", 0x1000);
  Machine fused, plain;
  fused.load_image(img);
  plain.load_image(img);
  plain.set_fusion(false);
  fused.arm_sampler(1);
  plain.arm_sampler(1);
  expect_same(probe_call(fused, img, {9, 2}), probe_call(plain, img, {9, 2}),
              "stride-1 sampler");
  EXPECT_EQ(fused.samples(), plain.samples());
  EXPECT_FALSE(fused.samples().empty());
}

/// Toggling fusion mid-life re-tokenizes in place (no reload needed) and
/// flips behaviour between the two equivalent engines.
TEST(Fusion, ToggleRetokenizesInPlace) {
  const auto img = assemble(kAllPairsSrc, "t", 0x1000);
  Machine m, witness;
  m.load_image(img);
  witness.load_image(img);
  witness.set_fusion(false);
  const auto p1 = probe_call(m, img, {6, 7});
  m.set_fusion(false);
  const auto p2 = m.call(img.find_symbol("f")->addr, {6, 7}, 100000);
  m.set_fusion(true);
  const auto p3 = m.call(img.find_symbol("f")->addr, {6, 7}, 100000);
  EXPECT_EQ(p1.r.ret, p2.ret);
  EXPECT_EQ(p2.ret, p3.ret);
  EXPECT_EQ(p1.r.cycles, p2.cycles);
  EXPECT_EQ(p2.cycles, p3.cycles);
  expect_same(p1, probe_call(witness, img, {6, 7}), "toggle");
}

TEST(Fusion, DispatchKindIsReported) {
  const std::string kind = Machine::dispatch_kind();
  EXPECT_TRUE(kind == "threaded" || kind == "switch") << kind;
}

}  // namespace
}  // namespace gf::vm
