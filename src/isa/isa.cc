#include "src/isa/isa.h"

#include <array>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "src/common/error.h"

namespace xmt {

namespace detail {

constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    {"add", OpFormat::kR3, FuKind::kAlu},
    {"addi", OpFormat::kR2I, FuKind::kAlu},
    {"sub", OpFormat::kR3, FuKind::kAlu},
    {"and", OpFormat::kR3, FuKind::kAlu},
    {"andi", OpFormat::kR2I, FuKind::kAlu},
    {"or", OpFormat::kR3, FuKind::kAlu},
    {"ori", OpFormat::kR2I, FuKind::kAlu},
    {"xor", OpFormat::kR3, FuKind::kAlu},
    {"xori", OpFormat::kR2I, FuKind::kAlu},
    {"nor", OpFormat::kR3, FuKind::kAlu},
    {"slt", OpFormat::kR3, FuKind::kAlu},
    {"slti", OpFormat::kR2I, FuKind::kAlu},
    {"sltu", OpFormat::kR3, FuKind::kAlu},
    {"li", OpFormat::kRI, FuKind::kAlu},
    {"la", OpFormat::kRL, FuKind::kAlu},
    {"move", OpFormat::kR2, FuKind::kAlu},
    {"sll", OpFormat::kR2I, FuKind::kShift},
    {"sllv", OpFormat::kR3, FuKind::kShift},
    {"srl", OpFormat::kR2I, FuKind::kShift},
    {"srlv", OpFormat::kR3, FuKind::kShift},
    {"sra", OpFormat::kR2I, FuKind::kShift},
    {"srav", OpFormat::kR3, FuKind::kShift},
    {"mul", OpFormat::kR3, FuKind::kMdu},
    {"div", OpFormat::kR3, FuKind::kMdu},
    {"rem", OpFormat::kR3, FuKind::kMdu},
    {"fadd", OpFormat::kR3, FuKind::kFpu},
    {"fsub", OpFormat::kR3, FuKind::kFpu},
    {"fmul", OpFormat::kR3, FuKind::kFpu},
    {"fdiv", OpFormat::kR3, FuKind::kFpu},
    {"feq", OpFormat::kR3, FuKind::kFpu},
    {"flt", OpFormat::kR3, FuKind::kFpu},
    {"fle", OpFormat::kR3, FuKind::kFpu},
    {"cvtif", OpFormat::kR2, FuKind::kFpu},
    {"cvtfi", OpFormat::kR2, FuKind::kFpu},
    {"beq", OpFormat::kBr2, FuKind::kBranch},
    {"bne", OpFormat::kBr2, FuKind::kBranch},
    {"blt", OpFormat::kBr2, FuKind::kBranch},
    {"ble", OpFormat::kBr2, FuKind::kBranch},
    {"bgt", OpFormat::kBr2, FuKind::kBranch},
    {"bge", OpFormat::kBr2, FuKind::kBranch},
    {"j", OpFormat::kJump, FuKind::kBranch},
    {"jal", OpFormat::kJump, FuKind::kBranch},
    {"jr", OpFormat::kR1, FuKind::kBranch},
    {"jalr", OpFormat::kR1, FuKind::kBranch},
    {"lw", OpFormat::kMem, FuKind::kMem},
    {"sw", OpFormat::kMem, FuKind::kMem},
    {"swnb", OpFormat::kMem, FuKind::kMem},
    {"lbu", OpFormat::kMem, FuKind::kMem},
    {"sb", OpFormat::kMem, FuKind::kMem},
    {"pref", OpFormat::kMem, FuKind::kMem},
    {"rolw", OpFormat::kMem, FuKind::kMem},
    {"fence", OpFormat::kNone, FuKind::kMem},
    {"ps", OpFormat::kGr, FuKind::kPs},
    {"psm", OpFormat::kMem, FuKind::kPs},
    {"mtgr", OpFormat::kGr, FuKind::kPs},
    {"mfgr", OpFormat::kGr, FuKind::kPs},
    {"spawn", OpFormat::kSpawn, FuKind::kControl},
    {"join", OpFormat::kNone, FuKind::kControl},
    {"halt", OpFormat::kNone, FuKind::kControl},
    {"sys", OpFormat::kImm, FuKind::kControl},
    {"nop", OpFormat::kNone, FuKind::kControl},
}};

}  // namespace detail

namespace {

constexpr std::array<std::string_view, kNumRegs> kRegNames = {
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0",   "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0",   "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8",   "t9", "tid", "k1", "gp", "sp", "fp", "ra"};

}  // namespace

Op opByName(std::string_view name) {
  for (int i = 0; i < kNumOps; ++i)
    if (detail::kOpTable[static_cast<std::size_t>(i)].name == name)
      return static_cast<Op>(i);
  return Op::kOpCount;
}

std::string_view regName(int reg) {
  XMT_CHECK(reg >= 0 && reg < kNumRegs);
  return kRegNames[static_cast<std::size_t>(reg)];
}

int parseReg(std::string_view text) {
  if (!text.empty() && text.front() == '$') text.remove_prefix(1);
  if (text.empty()) return -1;
  // Numeric form: $0..$31.
  if (std::isdigit(static_cast<unsigned char>(text.front()))) {
    int v = 0;
    for (char c : text) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
      v = v * 10 + (c - '0');
      if (v >= kNumRegs * 10) return -1;
    }
    return v < kNumRegs ? v : -1;
  }
  for (int i = 0; i < kNumRegs; ++i)
    if (kRegNames[static_cast<std::size_t>(i)] == text) return i;
  return -1;
}

bool Instruction::isMemory() const {
  FuKind fu = opInfo(op).fu;
  return fu == FuKind::kMem || op == Op::kPsm;
}

bool Instruction::isBranch() const { return opInfo(op).fu == FuKind::kBranch; }

bool Instruction::isStore() const {
  return op == Op::kSw || op == Op::kSwnb || op == Op::kSb;
}

bool Instruction::isLoad() const {
  return op == Op::kLw || op == Op::kLbu || op == Op::kRolw;
}

int regDef(const Instruction& in) {
  switch (opInfo(in.op).format) {
    case OpFormat::kR3:
    case OpFormat::kR2I:
    case OpFormat::kRI:
    case OpFormat::kRL:
    case OpFormat::kR2:
      return in.rd;
    case OpFormat::kMem:
      // Loads write rt; psm writes the old memory value into rt. Stores and
      // pref write no register.
      if (in.isLoad() || in.op == Op::kPsm) return in.rt;
      return -1;
    case OpFormat::kJump:
      return in.op == Op::kJal ? kRa : -1;
    case OpFormat::kR1:
      return in.op == Op::kJalr ? kRa : -1;
    case OpFormat::kGr:
      // ps rd, grN returns the old global-register value in rd; mfgr reads
      // a global register into rd; mtgr only writes the global register.
      return in.op == Op::kMtgr ? -1 : in.rd;
    default:
      return -1;
  }
}

int regUses(const Instruction& in, int out[3]) {
  int n = 0;
  switch (opInfo(in.op).format) {
    case OpFormat::kR3:
      out[n++] = in.rs;
      out[n++] = in.rt;
      break;
    case OpFormat::kR2I:
    case OpFormat::kR2:
      out[n++] = in.rs;
      break;
    case OpFormat::kMem:
      out[n++] = in.rs;  // address base
      if (in.isStore() || in.op == Op::kPsm) out[n++] = in.rt;
      break;
    case OpFormat::kBr2:
      out[n++] = in.rs;
      out[n++] = in.rt;
      break;
    case OpFormat::kR1:
      out[n++] = in.rs;
      break;
    case OpFormat::kGr:
      // ps reads rd as the increment; mtgr reads rd as the source.
      if (in.op != Op::kMfgr) out[n++] = in.rd;
      break;
    case OpFormat::kImm:
      if (in.op == Op::kSys) out[n++] = kA0;
      break;
    case OpFormat::kNone:
      if (in.op == Op::kHalt) out[n++] = kV0;
      break;
    default:
      break;
  }
  return n;
}

bool isNonBlockingStore(const Instruction& in) { return in.op == Op::kSwnb; }

bool isPrefixSum(const Instruction& in) {
  return in.op == Op::kPs || in.op == Op::kPsm;
}

bool isCall(const Instruction& in) {
  return in.op == Op::kJal || in.op == Op::kJalr;
}

bool drainsStores(const Instruction& in) {
  return in.op == Op::kFence || in.op == Op::kJoin || in.op == Op::kHalt;
}

std::string disassemble(const Instruction& in) {
  const OpInfo& info = opInfo(in.op);
  std::ostringstream ss;
  ss << info.name;
  auto r = [](int reg) { return std::string(regName(reg)); };
  switch (info.format) {
    case OpFormat::kR3:
      ss << " " << r(in.rd) << ", " << r(in.rs) << ", " << r(in.rt);
      break;
    case OpFormat::kR2I:
      ss << " " << r(in.rd) << ", " << r(in.rs) << ", " << in.imm;
      break;
    case OpFormat::kRI:
      ss << " " << r(in.rd) << ", " << in.imm;
      break;
    case OpFormat::kRL:
      ss << " " << r(in.rd) << ", 0x" << std::hex << in.imm;
      break;
    case OpFormat::kR2:
      ss << " " << r(in.rd) << ", " << r(in.rs);
      break;
    case OpFormat::kMem:
      ss << " " << r(in.rt) << ", " << in.imm << "(" << r(in.rs) << ")";
      break;
    case OpFormat::kBr2:
      ss << " " << r(in.rs) << ", " << r(in.rt) << ", 0x" << std::hex
         << in.imm;
      break;
    case OpFormat::kJump:
      ss << " 0x" << std::hex << in.imm;
      break;
    case OpFormat::kR1:
      ss << " " << r(in.rs);
      break;
    case OpFormat::kR1L:
      ss << " " << r(in.rd) << ", 0x" << std::hex << in.imm;
      break;
    case OpFormat::kGr:
      ss << " " << r(in.rd) << ", gr" << static_cast<int>(in.rt);
      break;
    case OpFormat::kSpawn:
      ss << " 0x" << std::hex << in.imm << ", 0x" << in.imm2;
      break;
    case OpFormat::kImm:
      ss << " " << in.imm;
      break;
    case OpFormat::kNone:
      break;
  }
  return ss.str();
}

}  // namespace xmt
