// The XMT instruction set architecture.
//
// XMT's ISA is MIPS-like with XMT-specific extensions: spawn/join for
// transitions between serial and parallel mode, ps/psm prefix-sum
// (fetch-and-add) primitives, prefetch into TCU-local prefetch buffers,
// non-blocking stores, read-only cache loads, memory fences, and global
// register file access. Instructions are modelled at transaction level (the
// paper's stated accuracy level): there is no binary encoding; the assembler
// produces decoded Instruction records directly.
//
// Register convention (32 general registers per context):
//   r0  zero      always 0
//   r1  at        assembler temporary
//   r2-r3   v0,v1 return values
//   r4-r7   a0-a3 arguments
//   r8-r15  t0-t7 caller-saved temporaries
//   r16-r23 s0-s7 callee-saved
//   r24-r25 t8,t9 temporaries
//   r26 tid       virtual thread ID ($); written by thread-dispatch hardware
//   r27 k1        reserved for the runtime
//   r28 gp        global pointer
//   r29 sp        stack pointer (serial mode only; no parallel stack)
//   r30 fp        frame pointer
//   r31 ra        return address
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/error.h"

namespace xmt {

inline constexpr int kNumRegs = 32;
inline constexpr int kNumGlobalRegs = 8;

/// Architectural global-register indices reserved by the spawn hardware.
/// gr6 holds the next virtual-thread ID counter, gr7 the high bound. The
/// compiler may freely use gr0..gr5 for psBaseReg variables.
inline constexpr int kGrNextId = 6;
inline constexpr int kGrHigh = 7;

enum Reg : std::uint8_t {
  kZero = 0, kAt = 1, kV0 = 2, kV1 = 3,
  kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7,
  kT0 = 8, kT1 = 9, kT2 = 10, kT3 = 11, kT4 = 12, kT5 = 13, kT6 = 14,
  kT7 = 15,
  kS0 = 16, kS1 = 17, kS2 = 18, kS3 = 19, kS4 = 20, kS5 = 21, kS6 = 22,
  kS7 = 23,
  kT8 = 24, kT9 = 25,
  kTid = 26, kK1 = 27, kGp = 28, kSp = 29, kFp = 30, kRa = 31,
};

/// Opcodes. Order is stable; statistics are indexed by this enum.
enum class Op : std::uint8_t {
  // ALU
  kAdd, kAddi, kSub, kAnd, kAndi, kOr, kOri, kXor, kXori, kNor,
  kSlt, kSlti, kSltu, kLi, kLa, kMove,
  // Shift unit
  kSll, kSllv, kSrl, kSrlv, kSra, kSrav,
  // MDU (shared per cluster)
  kMul, kDiv, kRem,
  // FPU (shared per cluster; operands are float bit patterns in int regs)
  kFadd, kFsub, kFmul, kFdiv, kFeq, kFlt, kFle, kCvtif, kCvtfi,
  // Branch unit
  kBeq, kBne, kBlt, kBle, kBgt, kBge, kJ, kJal, kJr, kJalr,
  // Memory
  kLw, kSw, kSwnb, kLbu, kSb, kPref, kRolw, kFence,
  // Prefix-sum and global registers
  kPs, kPsm, kMtgr, kMfgr,
  // XMT control
  kSpawn, kJoin, kHalt, kSys, kNop,
  kOpCount,
};

inline constexpr int kNumOps = static_cast<int>(Op::kOpCount);

/// Operand format, used by the assembler and disassembler.
enum class OpFormat : std::uint8_t {
  kR3,     // op rd, rs, rt
  kR2I,    // op rd, rs, imm
  kRI,     // op rd, imm
  kRL,     // op rd, label        (la)
  kR2,     // op rd, rs           (move, cvt*)
  kMem,    // op rt, imm(rs)      (lw/sw/swnb/lbu/sb/pref/rolw/psm)
  kBr2,    // op rs, rt, label
  kJump,   // op label            (j, jal)
  kR1,     // op rs               (jr)
  kR1L,    // op rd, label        (jalr uses kR2; unused)
  kGr,     // op r, grN           (ps/mtgr/mfgr)
  kSpawn,  // spawn Lstart, Lend
  kNone,   // join, fence, halt, nop
  kImm,    // op imm              (sys)
};

/// Which functional unit executes an op (drives cycle-accurate routing and
/// the per-unit activity counters).
enum class FuKind : std::uint8_t {
  kAlu, kShift, kBranch, kMdu, kFpu, kMem, kPs, kControl,
};

/// A decoded instruction. `imm2` is only used by spawn (end address).
struct Instruction {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::int32_t imm = 0;
  std::int32_t imm2 = 0;
  std::int32_t srcLine = 0;  // assembly source line, for traces/diagnostics

  bool isMemory() const;
  bool isBranch() const;
  bool isStore() const;
  bool isLoad() const;
};

/// Static properties of an opcode.
struct OpInfo {
  std::string_view name;
  OpFormat format;
  FuKind fu;
};

namespace detail {
extern const std::array<OpInfo, kNumOps> kOpTable;
}  // namespace detail

/// Lookup table entry for `op`. Never fails for valid enum values.
inline const OpInfo& opInfo(Op op) {
  XMT_CHECK(op < Op::kOpCount);
  return detail::kOpTable[static_cast<std::size_t>(op)];
}

/// Finds an opcode by mnemonic; returns kOpCount if unknown.
Op opByName(std::string_view name);

/// Canonical register names ("zero", "v0", "a0", "t0", "tid", "sp", ...).
std::string_view regName(int reg);

/// Parses a register operand: "$5", "$t0", "t0", "$zero"... Returns -1 if
/// unrecognized.
int parseReg(std::string_view text);

/// Human-readable disassembly, e.g. "addi t0, t1, 4".
std::string disassemble(const Instruction& in);

// --- Register use/def model and instruction-class predicates -------------
//
// Used by the assembly-level verifier (src/compiler/analysis/asmverify) to
// run dataflow over physical registers. The model covers the implicit
// operands the functional model honours: `jal`/`jalr` define ra, `ps` both
// reads and writes rd, `psm` reads rs+rt and writes rt (the old value),
// `sys` reads a0 and `halt` reads v0 (the halt code).

/// The general register written by `in`, or -1 when it writes none.
int regDef(const Instruction& in);

/// Collects the general registers read by `in` into `out` (capacity >= 3);
/// returns how many were written. Duplicates are possible (e.g. add r, x, x).
int regUses(const Instruction& in, int out[3]);

/// True for the non-blocking store `swnb` — the only store the memory
/// system acknowledges before completion.
bool isNonBlockingStore(const Instruction& in);

/// True for the prefix-sum primitives `ps` / `psm`.
bool isPrefixSum(const Instruction& in);

/// True for `jal` / `jalr` (function calls).
bool isCall(const Instruction& in);

/// True for ops that drain outstanding non-blocking stores before
/// completing: `fence` itself, plus `join` and `halt` (the cycle model
/// waits for the store queue to empty at both).
bool drainsStores(const Instruction& in);

}  // namespace xmt
