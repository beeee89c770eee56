// VISA — the virtual instruction set the whole reproduction is built on.
//
// The paper's G-SWFIT technique mutates x86 machine code in place. We
// substitute a 64-bit RISC-like ISA with a *fixed* 8-byte instruction
// encoding: [opcode][rd][rs1][rs2][imm32le]. Fixed width keeps in-place
// patching trivially reversible (every mutation rewrites whole
// instructions), which is exactly the property G-SWFIT needs from its
// mutation library.
//
// Register convention (produced by the MiniC code generator and relied on by
// the mutation-operator search patterns):
//   r0        return value / expression scratch
//   r1..r6    call arguments
//   r7..r12   expression temporaries
//   r13       reserved (assembler temp)
//   r14 (sp)  stack pointer, grows down
//   r15 (fp)  frame pointer; locals live at [fp - 8*k]
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gf::isa {

inline constexpr int kNumRegs = 16;
inline constexpr std::uint8_t kRegRet = 0;   ///< r0: return value
inline constexpr std::uint8_t kRegArg0 = 1;  ///< r1..r6: arguments
inline constexpr int kNumArgRegs = 6;
inline constexpr std::uint8_t kRegSp = 14;
inline constexpr std::uint8_t kRegFp = 15;

/// Size of one encoded instruction in bytes. Every code address used by the
/// scanner/injector is a multiple of this.
inline constexpr std::uint64_t kInstrSize = 8;

enum class Op : std::uint8_t {
  kNop = 0,
  kHalt,

  kMovI,  ///< rd = imm (sign-extended)
  kMov,   ///< rd = rs1

  kLd,   ///< rd = mem64[rs1 + imm]
  kSt,   ///< mem64[rs1 + imm] = rs2
  kLdB,  ///< rd = zext(mem8[rs1 + imm])
  kStB,  ///< mem8[rs1 + imm] = rs2 & 0xff

  // Three-operand ALU: rd = rs1 op rs2.
  kAdd,
  kSub,
  kMul,
  kDiv,  ///< traps on divide-by-zero
  kMod,  ///< traps on divide-by-zero
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,

  kAddI,  ///< rd = rs1 + imm
  kNot,   ///< rd = ~rs1
  kNeg,   ///< rd = -rs1

  kCmp,   ///< flags = sign(rs1 - rs2)
  kCmpI,  ///< flags = sign(rs1 - imm)

  kJmp,  ///< pc = imm (absolute byte address)
  kJz,   ///< if flags == 0
  kJnz,  ///< if flags != 0
  kJlt,  ///< if flags <  0
  kJle,  ///< if flags <= 0
  kJgt,  ///< if flags >  0
  kJge,  ///< if flags >= 0

  kCall,   ///< push return address; pc = imm
  kCallR,  ///< push return address; pc = rs1
  kRet,

  kPush,  ///< sp -= 8; mem64[sp] = rs1
  kPop,   ///< rd = mem64[sp]; sp += 8

  kSys,  ///< kernel intrinsic #imm (args r1.., result r0)

  kOpCount_  // sentinel
};

/// One decoded instruction. imm is kept as int32 (sign-extended on use).
struct Instr {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// Encodes into exactly kInstrSize bytes at `out`.
void encode(const Instr& in, std::uint8_t* out) noexcept;

/// Decodes kInstrSize bytes. Returns nullopt for an invalid opcode byte.
std::optional<Instr> decode(const std::uint8_t* bytes) noexcept;

/// Allocation-free twin of decode() for hot paths: decodes kInstrSize bytes
/// into `out`. Returns false (leaving `out` unspecified) for an invalid
/// encoding.
bool decode_into(const std::uint8_t* bytes, Instr& out) noexcept;

/// Decodes `nbytes / kInstrSize` consecutive instructions into `out`
/// (resized to that count). Undecodable slots are stored with
/// op == Op::kOpCount_, which no interpreter path will ever execute — the
/// predecode side-table of the VM uses this as its "bad opcode" marker.
void decode_block(const std::uint8_t* bytes, std::size_t nbytes,
                  std::vector<Instr>& out);

/// Instruction-class predicates used by the VM and the mutation scanner.
bool is_branch(Op op) noexcept;       ///< conditional jump
bool is_jump(Op op) noexcept;         ///< any control transfer (jmp/branch/call/ret)
bool is_alu(Op op) noexcept;          ///< three-operand ALU ops
/// Destination register if the instruction writes one.
std::optional<std::uint8_t> dest_reg(const Instr& in) noexcept;
/// True if `in` reads register r.
bool reads_reg(const Instr& in, std::uint8_t r) noexcept;

/// Inverts the condition of a conditional branch (JZ<->JNZ, JLT<->JGE,
/// JLE<->JGT). Precondition: is_branch(op).
Op invert_branch(Op op) noexcept;

const char* op_name(Op op) noexcept;

/// Names "r0".."r13", "sp", "fp".
std::string reg_name(std::uint8_t r);

}  // namespace gf::isa
