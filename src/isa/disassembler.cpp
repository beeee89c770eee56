#include "isa/disassembler.h"

#include <cstdio>
#include <sstream>

namespace gf::isa {

namespace {
std::string mem(const Instr& in) {
  std::string s = "[" + reg_name(in.rs1);
  if (in.imm != 0) s += ", " + std::to_string(in.imm);
  return s + "]";
}
}  // namespace

std::string disassemble(const Instr& in) {
  const std::string m = op_name(in.op);
  switch (in.op) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kRet:
      return m;
    case Op::kMovI:
      return m + " " + reg_name(in.rd) + ", " + std::to_string(in.imm);
    case Op::kMov:
    case Op::kNot:
    case Op::kNeg:
      return m + " " + reg_name(in.rd) + ", " + reg_name(in.rs1);
    case Op::kLd:
    case Op::kLdB:
      return m + " " + reg_name(in.rd) + ", " + mem(in);
    case Op::kSt:
    case Op::kStB:
      return m + " " + mem(in) + ", " + reg_name(in.rs2);
    case Op::kAddI:
      return m + " " + reg_name(in.rd) + ", " + reg_name(in.rs1) + ", " +
             std::to_string(in.imm);
    case Op::kCmp:
      return m + " " + reg_name(in.rs1) + ", " + reg_name(in.rs2);
    case Op::kCmpI:
      return m + " " + reg_name(in.rs1) + ", " + std::to_string(in.imm);
    case Op::kJmp:
    case Op::kJz:
    case Op::kJnz:
    case Op::kJlt:
    case Op::kJle:
    case Op::kJgt:
    case Op::kJge:
    case Op::kCall:
      return m + " " + std::to_string(in.imm);
    case Op::kCallR:
    case Op::kPush:
      return m + " " + reg_name(in.rs1);
    case Op::kPop:
      return m + " " + reg_name(in.rd);
    case Op::kSys:
      return m + " " + std::to_string(in.imm);
    default:
      if (is_alu(in.op)) {
        return m + " " + reg_name(in.rd) + ", " + reg_name(in.rs1) + ", " +
               reg_name(in.rs2);
      }
      return m + " ?";
  }
}

std::string disassemble(const Image& img) {
  std::ostringstream out;
  for (std::uint64_t addr = img.base(); addr < img.end(); addr += kInstrSize) {
    const auto* sym = img.symbol_at(addr);
    if (sym != nullptr && sym->addr == addr) out << sym->name << ":\n";
    const auto in = img.at(addr);
    char buf[32];
    std::snprintf(buf, sizeof buf, "  %06llx:  ",
                  static_cast<unsigned long long>(addr));
    out << buf << (in ? disassemble(*in) : std::string("<bad encoding>"))
        << "\n";
  }
  return out.str();
}

}  // namespace gf::isa
