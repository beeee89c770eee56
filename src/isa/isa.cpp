#include "isa/isa.h"

#include <cstring>

namespace gf::isa {

void encode(const Instr& in, std::uint8_t* out) noexcept {
  out[0] = static_cast<std::uint8_t>(in.op);
  out[1] = in.rd;
  out[2] = in.rs1;
  out[3] = in.rs2;
  const auto u = static_cast<std::uint32_t>(in.imm);
  out[4] = static_cast<std::uint8_t>(u);
  out[5] = static_cast<std::uint8_t>(u >> 8);
  out[6] = static_cast<std::uint8_t>(u >> 16);
  out[7] = static_cast<std::uint8_t>(u >> 24);
}

std::optional<Instr> decode(const std::uint8_t* bytes) noexcept {
  Instr in;
  if (!decode_into(bytes, in)) return std::nullopt;
  return in;
}

bool decode_into(const std::uint8_t* bytes, Instr& out) noexcept {
  if (bytes[0] >= static_cast<std::uint8_t>(Op::kOpCount_)) return false;
  out.op = static_cast<Op>(bytes[0]);
  out.rd = bytes[1];
  out.rs1 = bytes[2];
  out.rs2 = bytes[3];
  const std::uint32_t u = static_cast<std::uint32_t>(bytes[4]) |
                          (static_cast<std::uint32_t>(bytes[5]) << 8) |
                          (static_cast<std::uint32_t>(bytes[6]) << 16) |
                          (static_cast<std::uint32_t>(bytes[7]) << 24);
  out.imm = static_cast<std::int32_t>(u);
  return out.rd < kNumRegs && out.rs1 < kNumRegs && out.rs2 < kNumRegs;
}

void decode_block(const std::uint8_t* bytes, std::size_t nbytes,
                  std::vector<Instr>& out) {
  const std::size_t n = nbytes / kInstrSize;
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!decode_into(bytes + i * kInstrSize, out[i])) {
      out[i] = Instr{Op::kOpCount_, 0, 0, 0, 0};
    }
  }
}

bool is_branch(Op op) noexcept {
  switch (op) {
    case Op::kJz:
    case Op::kJnz:
    case Op::kJlt:
    case Op::kJle:
    case Op::kJgt:
    case Op::kJge:
      return true;
    default:
      return false;
  }
}

bool is_jump(Op op) noexcept {
  return is_branch(op) || op == Op::kJmp || op == Op::kCall ||
         op == Op::kCallR || op == Op::kRet;
}

bool is_alu(Op op) noexcept {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
      return true;
    default:
      return false;
  }
}

std::optional<std::uint8_t> dest_reg(const Instr& in) noexcept {
  switch (in.op) {
    case Op::kMovI:
    case Op::kMov:
    case Op::kLd:
    case Op::kLdB:
    case Op::kAddI:
    case Op::kNot:
    case Op::kNeg:
    case Op::kPop:
      return in.rd;
    default:
      if (is_alu(in.op)) return in.rd;
      return std::nullopt;
  }
}

bool reads_reg(const Instr& in, std::uint8_t r) noexcept {
  switch (in.op) {
    case Op::kMov:
    case Op::kNot:
    case Op::kNeg:
    case Op::kAddI:
    case Op::kLd:
    case Op::kLdB:
    case Op::kCmpI:
    case Op::kCallR:
      return in.rs1 == r;
    case Op::kSt:
    case Op::kStB:
      return in.rs1 == r || in.rs2 == r;
    case Op::kCmp:
      return in.rs1 == r || in.rs2 == r;
    case Op::kPush:
      return in.rs1 == r;
    case Op::kSys:
      // Kernel intrinsics read the argument registers.
      return r >= kRegArg0 && r < kRegArg0 + kNumArgRegs;
    case Op::kCall:
      // Calls consume the argument registers.
      return r >= kRegArg0 && r < kRegArg0 + kNumArgRegs;
    default:
      if (is_alu(in.op)) return in.rs1 == r || in.rs2 == r;
      return false;
  }
}

Op invert_branch(Op op) noexcept {
  switch (op) {
    case Op::kJz: return Op::kJnz;
    case Op::kJnz: return Op::kJz;
    case Op::kJlt: return Op::kJge;
    case Op::kJge: return Op::kJlt;
    case Op::kJle: return Op::kJgt;
    case Op::kJgt: return Op::kJle;
    default: return op;
  }
}

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kHalt: return "halt";
    case Op::kMovI: return "movi";
    case Op::kMov: return "mov";
    case Op::kLd: return "ld";
    case Op::kSt: return "st";
    case Op::kLdB: return "ldb";
    case Op::kStB: return "stb";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kAddI: return "addi";
    case Op::kNot: return "not";
    case Op::kNeg: return "neg";
    case Op::kCmp: return "cmp";
    case Op::kCmpI: return "cmpi";
    case Op::kJmp: return "jmp";
    case Op::kJz: return "jz";
    case Op::kJnz: return "jnz";
    case Op::kJlt: return "jlt";
    case Op::kJle: return "jle";
    case Op::kJgt: return "jgt";
    case Op::kJge: return "jge";
    case Op::kCall: return "call";
    case Op::kCallR: return "callr";
    case Op::kRet: return "ret";
    case Op::kPush: return "push";
    case Op::kPop: return "pop";
    case Op::kSys: return "sys";
    case Op::kOpCount_: break;
  }
  return "?";
}

std::string reg_name(std::uint8_t r) {
  if (r == kRegSp) return "sp";
  if (r == kRegFp) return "fp";
  return "r" + std::to_string(static_cast<int>(r));
}

}  // namespace gf::isa
