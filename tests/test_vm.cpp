#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "vm/machine.h"

namespace gf::vm {
namespace {

using isa::assemble;

/// Runs an assembly function named `f` via the call interface.
RunResult call_asm(const char* src, const std::vector<std::int64_t>& args,
                   std::uint64_t budget = 100000) {
  Machine m;
  const auto img = assemble(src, "t", 0x1000);
  m.load_image(img);
  return m.call(img.find_symbol("f")->addr, args, budget);
}

TEST(Vm, ReturnsConstant) {
  const auto r = call_asm("f:\n  movi r0, 42\n  ret\n", {});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.ret, 42);
}

TEST(Vm, PassesArguments) {
  const auto r = call_asm("f:\n  sub r0, r1, r2\n  ret\n", {50, 8});
  EXPECT_EQ(r.ret, 42);
}

TEST(Vm, ArithmeticOps) {
  EXPECT_EQ(call_asm("f:\n  mul r0, r1, r2\n  ret\n", {6, 7}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  div r0, r1, r2\n  ret\n", {85, 2}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  mod r0, r1, r2\n  ret\n", {142, 100}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  and r0, r1, r2\n  ret\n", {0xff, 0x2a}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  or r0, r1, r2\n  ret\n", {0x28, 0x02}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  xor r0, r1, r2\n  ret\n", {0x6a, 0x40}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  shl r0, r1, r2\n  ret\n", {21, 1}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  shr r0, r1, r2\n  ret\n", {84, 1}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  neg r0, r1\n  ret\n", {-42}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  not r0, r1\n  ret\n", {~42ll}).ret, 42);
  EXPECT_EQ(call_asm("f:\n  addi r0, r1, -8\n  ret\n", {50}).ret, 42);
}

TEST(Vm, DivideByZeroTraps) {
  const auto r = call_asm("f:\n  div r0, r1, r2\n  ret\n", {1, 0});
  EXPECT_EQ(r.trap, Trap::kDivZero);
  EXPECT_EQ(call_asm("f:\n  mod r0, r1, r2\n  ret\n", {1, 0}).trap,
            Trap::kDivZero);
}

TEST(Vm, ConditionalBranches) {
  const char* src = R"(
    f:
      cmp r1, r2
      jlt @less
      movi r0, 0
      ret
    less:
      movi r0, 1
      ret
  )";
  EXPECT_EQ(call_asm(src, {1, 2}).ret, 1);
  EXPECT_EQ(call_asm(src, {2, 1}).ret, 0);
  EXPECT_EQ(call_asm(src, {2, 2}).ret, 0);
}

TEST(Vm, AllBranchKinds) {
  struct Case {
    const char* op;
    std::int64_t a, b;
    bool taken;
  };
  const Case cases[] = {
      {"jz", 5, 5, true},  {"jz", 5, 6, false},  {"jnz", 5, 6, true},
      {"jnz", 5, 5, false}, {"jlt", 1, 2, true},  {"jlt", 2, 2, false},
      {"jle", 2, 2, true}, {"jle", 3, 2, false}, {"jgt", 3, 2, true},
      {"jgt", 2, 2, false}, {"jge", 2, 2, true},  {"jge", 1, 2, false},
  };
  for (const auto& c : cases) {
    std::string src = "f:\n  cmp r1, r2\n  ";
    src += c.op;
    src += " @yes\n  movi r0, 0\n  ret\nyes:\n  movi r0, 1\n  ret\n";
    EXPECT_EQ(call_asm(src.c_str(), {c.a, c.b}).ret, c.taken ? 1 : 0)
        << c.op << " " << c.a << " " << c.b;
  }
}

TEST(Vm, MemoryLoadStore) {
  const char* src = R"(
    f:
      movi r3, 0x100000
      st [r3, 8], r1
      ld r0, [r3, 8]
      ret
  )";
  EXPECT_EQ(call_asm(src, {1234}).ret, 1234);
}

TEST(Vm, ByteLoadStoreTruncates) {
  const char* src = R"(
    f:
      movi r3, 0x100000
      stb [r3], r1
      ldb r0, [r3]
      ret
  )";
  EXPECT_EQ(call_asm(src, {0x1ff}).ret, 0xff);
}

TEST(Vm, NullPageTraps) {
  EXPECT_EQ(call_asm("f:\n  movi r3, 0\n  ld r0, [r3]\n  ret\n", {}).trap,
            Trap::kBadMemory);
  EXPECT_EQ(call_asm("f:\n  movi r3, 16\n  st [r3], r1\n  ret\n", {1}).trap,
            Trap::kBadMemory);
}

TEST(Vm, OutOfRangeMemoryTraps) {
  const auto r = call_asm("f:\n  movi r3, 0x7ffffff0\n  ld r0, [r3, 100]\n  ret\n", {});
  EXPECT_EQ(r.trap, Trap::kBadMemory);
}

TEST(Vm, CallAndReturn) {
  const char* src = R"(
    f:
      movi r1, 20
      call @double
      addi r0, r0, 2
      ret
    double:
      add r0, r1, r1
      ret
  )";
  EXPECT_EQ(call_asm(src, {}).ret, 42);
}

TEST(Vm, NestedCallsPreserveReturnPath) {
  const char* src = R"(
    f:
      movi r1, 1
      call @a
      ret
    a:
      call @b
      addi r0, r0, 1
      ret
    b:
      addi r0, r1, 40
      ret
  )";
  EXPECT_EQ(call_asm(src, {}).ret, 42);
}

TEST(Vm, PushPopLifo) {
  const char* src = R"(
    f:
      push r1
      push r2
      pop r0
      pop r3
      sub r0, r0, r3
      ret
  )";
  EXPECT_EQ(call_asm(src, {1, 43}).ret, 42);
}

TEST(Vm, InfiniteLoopHitsCycleLimit) {
  const auto r = call_asm("f:\nloop:\n  jmp @loop\n", {}, 1000);
  EXPECT_EQ(r.trap, Trap::kCycleLimit);
  EXPECT_GE(r.cycles, 1000u);
}

TEST(Vm, JumpOutsideCodeTraps) {
  EXPECT_EQ(call_asm("f:\n  jmp 0x500000\n", {}).trap, Trap::kBadJump);
}

TEST(Vm, MisalignedJumpTraps) {
  EXPECT_EQ(call_asm("f:\n  jmp 0x1001\n", {}).trap, Trap::kBadJump);
}

TEST(Vm, BadOpcodeTraps) {
  Machine m;
  isa::Image img("t", 0x1000);
  img.mutable_code().assign(isa::kInstrSize, 0xEE);  // garbage
  m.load_image(img);
  EXPECT_EQ(m.run(0x1000, 100).trap, Trap::kBadOpcode);
}

TEST(Vm, HaltStops) {
  Machine m;
  const auto img = assemble("f:\n  movi r0, 7\n  halt\n  movi r0, 9\n", "t");
  m.load_image(img);
  const auto r = m.run(img.base(), 100);
  EXPECT_EQ(r.trap, Trap::kHalt);
  EXPECT_EQ(r.ret, 7);
}

TEST(Vm, StackOverflowTraps) {
  // Endless recursion must fault when the stack region is exhausted.
  const char* src = "f:\n  call @f\n";
  Machine m;
  const auto img = assemble(src, "t", 0x1000);
  m.load_image(img);
  m.set_stack_region(m.mem_size() - 4096, m.mem_size());
  const auto r = m.call(img.find_symbol("f")->addr, {}, 1u << 20);
  EXPECT_EQ(r.trap, Trap::kStackFault);
}

TEST(Vm, CallRestoresCallerRegisters) {
  Machine m;
  const auto img = assemble("f:\n  movi r5, 999\n  ret\n", "t");
  m.load_image(img);
  m.set_reg(5, 123);
  (void)m.call(img.find_symbol("f")->addr, {}, 1000);
  EXPECT_EQ(m.reg(5), 123);
}

TEST(Vm, SyscallDispatch) {
  Machine m;
  const auto img = assemble("f:\n  movi r1, 40\n  sys 9\n  ret\n", "t");
  m.load_image(img);
  m.set_syscall_handler([](Machine& mm, std::int32_t num) {
    mm.set_reg(0, mm.reg(1) + num - 7);
    return Trap::kNone;
  });
  EXPECT_EQ(m.call(img.find_symbol("f")->addr, {}, 1000).ret, 42);
}

TEST(Vm, SyscallWithoutHandlerTraps) {
  Machine m;
  const auto img = assemble("f:\n  sys 1\n  ret\n", "t");
  m.load_image(img);
  EXPECT_EQ(m.call(img.find_symbol("f")->addr, {}, 1000).trap, Trap::kBadOpcode);
}

TEST(Vm, SyscallCanAbortRun) {
  Machine m;
  const auto img = assemble("f:\n  sys 1\n  ret\n", "t");
  m.load_image(img);
  m.set_syscall_handler([](Machine&, std::int32_t) { return Trap::kBadMemory; });
  EXPECT_EQ(m.call(img.find_symbol("f")->addr, {}, 1000).trap, Trap::kBadMemory);
}

TEST(Vm, CyclesAccumulate) {
  Machine m;
  const auto img = assemble("f:\n  movi r0, 1\n  ret\n", "t");
  m.load_image(img);
  (void)m.call(img.find_symbol("f")->addr, {}, 1000);
  const auto c1 = m.total_cycles();
  EXPECT_GT(c1, 0u);
  (void)m.call(img.find_symbol("f")->addr, {}, 1000);
  EXPECT_GT(m.total_cycles(), c1);
}

TEST(Vm, ReadWriteHelpers) {
  Machine m;
  EXPECT_TRUE(m.write_u64(0x2000, 0xDEADBEEF));
  std::uint64_t v = 0;
  EXPECT_TRUE(m.read_u64(0x2000, v));
  EXPECT_EQ(v, 0xDEADBEEFu);
  EXPECT_FALSE(m.write_u64(0x10, 1));  // null page
  const char* s = "hello";
  EXPECT_TRUE(m.write_bytes(0x3000, s, 6));
  std::string out;
  EXPECT_TRUE(m.read_cstr(0x3000, out));
  EXPECT_EQ(out, "hello");
}

TEST(Vm, ReadCstrUnterminatedFails) {
  Machine m;
  EXPECT_TRUE(m.write_bytes(0x3000, "abcd", 4));
  std::string out;
  EXPECT_FALSE(m.read_cstr(0x3000, out, 3));
}

TEST(Vm, ReadCstrBoundaryConditions) {
  Machine m;
  EXPECT_TRUE(m.write_bytes(0x3000, "abc", 4));  // includes the NUL
  std::string out;
  // The terminator must lie within max_len bytes, exclusive of nothing:
  // "abc\0" needs max_len >= 4.
  EXPECT_FALSE(m.read_cstr(0x3000, out, 3));
  EXPECT_TRUE(m.read_cstr(0x3000, out, 4));
  EXPECT_EQ(out, "abc");
  // Null page and out-of-memory addresses fail outright.
  EXPECT_FALSE(m.read_cstr(0x10, out));
  EXPECT_FALSE(m.read_cstr(m.mem_size(), out));
  EXPECT_FALSE(m.read_cstr(static_cast<std::uint64_t>(-1), out));
  // A string running unterminated into the end of memory fails.
  const std::uint64_t tail = m.mem_size() - 4;
  EXPECT_TRUE(m.write_bytes(tail, "xxxx", 4));
  EXPECT_FALSE(m.read_cstr(tail, out));
  // max_len = 0 can never find a terminator.
  EXPECT_FALSE(m.read_cstr(0x3000, out, 0));
}

TEST(Vm, GuestStoreIntoCodeIsExecutedFresh) {
  // Self-modifying guest code: a store that lands inside the code range
  // must invalidate the predecoded instruction so the mutated bytes (and
  // not the stale decode) execute. The imm byte of `movi r0, 1` (4th
  // instruction, byte offset 4) is overwritten with 99 before it runs.
  const char* src = R"(
    f:
      movi r3, 0x101C
      movi r2, 99
      stb [r3], r2
      movi r0, 1
      ret
  )";
  for (const bool predecode : {true, false}) {
    Machine m;
    const auto img = assemble(src, "t", 0x1000);
    m.load_image(img);
    m.set_predecode(predecode);
    const auto r = m.call(img.find_symbol("f")->addr, {}, 1000);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.ret, 99) << "predecode=" << predecode;
  }
}

TEST(Vm, InvalidateCodeRefreshesPredecodedSlots) {
  Machine m;
  const auto img = assemble("f:\n  movi r0, 1\n  ret\n", "t", 0x1000);
  m.load_image(img);
  const auto addr = img.find_symbol("f")->addr;
  EXPECT_EQ(m.call(addr, {}, 1000).ret, 1);
  // Patch the code via the loader primitive: new imm, then re-run.
  std::uint8_t bytes[isa::kInstrSize];
  isa::encode({isa::Op::kMovI, 0, 0, 0, 77}, bytes);
  EXPECT_TRUE(m.patch_code(addr, bytes, sizeof bytes));
  EXPECT_EQ(m.call(addr, {}, 1000).ret, 77);
  // And via an explicit invalidate after an out-of-band mutation through
  // the checked writer (which also self-invalidates; the explicit call must
  // at minimum be harmless and idempotent).
  m.invalidate_code(addr, isa::kInstrSize);
  EXPECT_EQ(m.call(addr, {}, 1000).ret, 77);
}

TEST(Vm, SetPredecodeOffMatchesDefaultPath) {
  const char* src = R"(
    f:
      movi r2, 10
      movi r0, 0
    loop:
      add r0, r0, r2
      addi r2, r2, -1
      cmpi r2, 0
      jgt @loop
      ret
  )";
  Machine fast, slow;
  const auto img = assemble(src, "t", 0x1000);
  fast.load_image(img);
  slow.load_image(img);
  slow.set_predecode(false);
  const auto a = fast.call(img.find_symbol("f")->addr, {}, 10000);
  const auto b = slow.call(img.find_symbol("f")->addr, {}, 10000);
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.ret, b.ret);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(Vm, JumpIntoGapBetweenImagesTraps) {
  // Two images leave a hole in the merged code hull; a jump into the hole
  // must be kBadJump (not kBadOpcode), exactly as with the range walk.
  Machine m;
  const auto img1 = assemble("f:\n  jmp 0x3000\n", "a", 0x1000);
  const auto img2 = assemble("g:\n  movi r0, 5\n  ret\n", "b", 0x5000);
  m.load_image(img1);
  m.load_image(img2);
  EXPECT_EQ(m.call(img1.find_symbol("f")->addr, {}, 1000).trap, Trap::kBadJump);
  // The second image stays reachable and predecoded.
  EXPECT_EQ(m.call(img2.find_symbol("g")->addr, {}, 1000).ret, 5);
}

}  // namespace
}  // namespace gf::vm

namespace gf::vm {
namespace {

TEST(Vm, NegativeGuestPointersCannotWrapTheBoundsCheck) {
  // A mutated guest can compute a "pointer" like -8; the checked accessors
  // must reject it instead of wrapping addr + n past the end check.
  Machine m;
  std::uint64_t v = 0;
  const auto almost_wrap = static_cast<std::uint64_t>(-8);
  EXPECT_FALSE(m.read_u64(almost_wrap, v));
  EXPECT_FALSE(m.write_u64(almost_wrap, 1));
  std::uint8_t buf[32];
  EXPECT_FALSE(m.read_bytes(almost_wrap, buf, sizeof buf));
  EXPECT_FALSE(m.write_bytes(almost_wrap, buf, sizeof buf));
  // And through the ISA path: LD via a register holding -8 must trap.
  const auto img = isa::assemble("f:\n  movi r3, -8\n  ld r0, [r3]\n  ret\n", "t");
  m.load_image(img);
  EXPECT_EQ(m.call(img.find_symbol("f")->addr, {}, 1000).trap,
            Trap::kBadMemory);
}

}  // namespace
}  // namespace gf::vm
