// Unit tests for the two-pass assembler and memory-map files.
#include <gtest/gtest.h>

#include <cstring>

#include "src/assembler/assembler.h"
#include "src/assembler/memorymap.h"
#include "src/common/error.h"

namespace xmt {
namespace {

std::uint32_t dataWord(const Program& p, const std::string& sym, int idx) {
  const Symbol& s = p.symbol(sym);
  std::uint32_t w;
  std::memcpy(&w, p.data.data() + (s.addr - kDataBase) + 4 * idx, 4);
  return w;
}

TEST(Assembler, BasicTextAndLabels) {
  Program p = assemble(
      ".text\n"
      "main:\n"
      "  li t0, 5\n"
      "  addi t0, t0, 1\n"
      "loop:\n"
      "  bne t0, zero, loop\n"
      "  halt\n");
  ASSERT_EQ(p.text.size(), 4u);
  EXPECT_EQ(p.entry, kTextBase);
  EXPECT_EQ(p.text[0].op, Op::kLi);
  EXPECT_EQ(p.text[0].rd, kT0);
  EXPECT_EQ(p.text[0].imm, 5);
  // Branch target resolves to loop's absolute address.
  EXPECT_EQ(p.text[2].imm, static_cast<std::int32_t>(kTextBase + 8));
  EXPECT_EQ(p.text[3].op, Op::kHalt);
}

TEST(Assembler, DataDirectivesAndSymbols) {
  Program p = assemble(
      ".data\n"
      "A: .word 1, 2, 3\n"
      "N: .word 3\n"
      "buf: .space 16\n"
      "msg: .asciiz \"hi\\n\"\n"
      ".text\n"
      "main: halt\n");
  EXPECT_EQ(p.symbol("A").addr, kDataBase);
  EXPECT_EQ(p.symbol("A").size, 12u);
  EXPECT_EQ(p.symbol("N").addr, kDataBase + 12);
  EXPECT_EQ(p.symbol("buf").size, 16u);
  EXPECT_EQ(dataWord(p, "A", 0), 1u);
  EXPECT_EQ(dataWord(p, "A", 2), 3u);
  EXPECT_EQ(dataWord(p, "N", 0), 3u);
  const Symbol& m = p.symbol("msg");
  EXPECT_EQ(p.data[m.addr - kDataBase], 'h');
  EXPECT_EQ(p.data[m.addr - kDataBase + 2], '\n');
  EXPECT_EQ(p.data[m.addr - kDataBase + 3], '\0');
}

TEST(Assembler, LaResolvesDataSymbol) {
  Program p = assemble(
      ".data\n"
      "X: .word 9\n"
      ".text\n"
      "main: la a0, X\n"
      " lw a1, 0(a0)\n"
      " halt\n");
  EXPECT_EQ(p.text[0].op, Op::kLa);
  EXPECT_EQ(static_cast<std::uint32_t>(p.text[0].imm), kDataBase);
}

TEST(Assembler, MemOperandForms) {
  Program p = assemble(
      ".data\n"
      "X: .word 9\n"
      ".text\n"
      "main:\n"
      "  lw t0, 8(sp)\n"
      "  lw t1, X\n"
      "  sw t0, (sp)\n"
      "  halt\n");
  EXPECT_EQ(p.text[0].imm, 8);
  EXPECT_EQ(p.text[0].rs, kSp);
  EXPECT_EQ(static_cast<std::uint32_t>(p.text[1].imm), kDataBase);
  EXPECT_EQ(p.text[1].rs, kZero);
  EXPECT_EQ(p.text[2].imm, 0);
}

TEST(Assembler, PseudoInstructions) {
  Program p = assemble(
      ".text\n"
      "main:\n"
      "  beqz t0, main\n"
      "  bnez t1, main\n"
      "  neg t2, t3\n"
      "  not t4, t5\n"
      "  b main\n"
      "  halt\n");
  EXPECT_EQ(p.text[0].op, Op::kBeq);
  EXPECT_EQ(p.text[0].rt, kZero);
  EXPECT_EQ(p.text[1].op, Op::kBne);
  EXPECT_EQ(p.text[2].op, Op::kSub);
  EXPECT_EQ(p.text[2].rs, kZero);
  EXPECT_EQ(p.text[3].op, Op::kNor);
  EXPECT_EQ(p.text[3].rt, kZero);
  EXPECT_EQ(p.text[4].op, Op::kJ);
}

TEST(Assembler, SpawnAndGrOperands) {
  Program p = assemble(
      ".text\n"
      "main:\n"
      "  mtgr t0, gr6\n"
      "  mtgr t1, gr7\n"
      "  spawn Lstart, Lend\n"
      "Lstart:\n"
      "  ps t2, gr0\n"
      "  psm t3, 0(t4)\n"
      "  join\n"
      "Lend:\n"
      "  halt\n");
  EXPECT_EQ(p.text[0].op, Op::kMtgr);
  EXPECT_EQ(p.text[0].rt, kGrNextId);
  const Instruction& sp = p.text[2];
  EXPECT_EQ(sp.op, Op::kSpawn);
  EXPECT_EQ(static_cast<std::uint32_t>(sp.imm), kTextBase + 12);
  EXPECT_EQ(static_cast<std::uint32_t>(sp.imm2), kTextBase + 24);
  EXPECT_EQ(p.text[3].op, Op::kPs);
  EXPECT_EQ(p.text[4].op, Op::kPsm);
}

TEST(Assembler, GlobalMarksSymbols) {
  Program p = assemble(
      ".data\n"
      "A: .word 0\n"
      ".global A\n"
      ".text\n"
      "main: halt\n");
  EXPECT_TRUE(p.symbol("A").isGlobal);
}

TEST(Assembler, GrOperandRequiresFullyNumericSuffix) {
  // Regression: atoi parsing silently turned "grx" into gr0 and "gr1junk"
  // into gr1.
  EXPECT_THROW(assemble(".text\nmain: mtgr t0, grx\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: mtgr t0, gr1junk\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: mtgr t0, gr-1\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: mtgr t0, gr99999999999\n"), AsmError);
  Program p = assemble(".text\nmain: mtgr t0, gr7\n");
  EXPECT_EQ(p.text[0].rt, 7);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble(".text\nmain: frobnicate t0\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: j nowhere\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: add t0, t1\n"), AsmError);  // arity
  EXPECT_THROW(assemble(".text\nL: halt\nL: halt\n"), AsmError);  // dup label
  EXPECT_THROW(assemble(".text\nmain: ps t0, gr9\n"), AsmError);
  EXPECT_THROW(assemble(".data\nX: add t0, t1, t2\n"), AsmError);
  EXPECT_THROW(assemble(".text\nmain: .word 3\n"), AsmError);
}

TEST(Assembler, FloatData) {
  Program p = assemble(
      ".data\n"
      "F: .float 1.5, -2.0\n"
      ".text\n"
      "main: halt\n");
  float f0, f1;
  std::uint32_t w0 = dataWord(p, "F", 0), w1 = dataWord(p, "F", 1);
  std::memcpy(&f0, &w0, 4);
  std::memcpy(&f1, &w1, 4);
  EXPECT_FLOAT_EQ(f0, 1.5f);
  EXPECT_FLOAT_EQ(f1, -2.0f);
}

TEST(Assembler, AlignDirective) {
  Program p = assemble(
      ".data\n"
      "c: .asciiz \"x\"\n"
      ".align 2\n"
      "w: .word 7\n"
      ".text\n"
      "main: halt\n");
  EXPECT_EQ(p.symbol("w").addr % 4, 0u);
  EXPECT_EQ(dataWord(p, "w", 0), 7u);
}

// `.align n` pads to 2^n bytes for n in [0, 16]; an n outside that range is
// an AsmError, not an undefined shift or a gigabyte-sized data segment.
TEST(Assembler, AlignExponentIsRangeChecked) {
  auto source = [](const std::string& n) {
    return ".data\nA: .word 1\n.align " + n +
           "\nB: .word 2\n.text\nmain: halt\n";
  };
  Program p = assemble(source("3"));
  EXPECT_EQ(p.symbol("B").addr, p.symbol("A").addr + 8);
  EXPECT_EQ(dataWord(p, "B", 0), 2u);
  EXPECT_THROW(assemble(source("33")), AsmError);
  EXPECT_THROW(assemble(source("-1")), AsmError);
}

TEST(MemoryMap, ParseAndApply) {
  Program p = assemble(
      ".data\n"
      "A: .space 20\n"
      "N: .word 0\n"
      ".text\n"
      "main: halt\n");
  auto map = MemoryMap::parse(
      "# input\n"
      "A = 1 2 3 4 5\n"
      "N = 5\n"
      "A[1] = 42\n");
  map.apply(p);
  EXPECT_EQ(dataWord(p, "A", 0), 1u);
  EXPECT_EQ(dataWord(p, "A", 1), 42u);  // later entry wins
  EXPECT_EQ(dataWord(p, "A", 4), 5u);
  EXPECT_EQ(dataWord(p, "N", 0), 5u);
}

TEST(MemoryMap, BoundsChecked) {
  Program p = assemble(
      ".data\nA: .space 8\n.text\nmain: halt\n");
  auto map = MemoryMap::parse("A = 1 2 3\n");  // 12 bytes into 8
  EXPECT_THROW(map.apply(p), AsmError);

  auto missing = MemoryMap::parse("Z = 1\n");
  EXPECT_THROW(missing.apply(p), AsmError);
}

TEST(MemoryMap, SyntaxErrors) {
  EXPECT_THROW(MemoryMap::parse("A 1 2\n"), AsmError);
  EXPECT_THROW(MemoryMap::parse("A =\n"), AsmError);
  EXPECT_THROW(MemoryMap::parse("A = xyz\n"), AsmError);
}

TEST(Program, TextIndexChecksBounds) {
  Program p = assemble(".text\nmain: halt\n");
  EXPECT_EQ(p.textIndex(kTextBase), 0u);
  EXPECT_THROW(p.textIndex(kTextBase + 4), SimError);
  EXPECT_THROW(p.textIndex(kTextBase + 2), SimError);
  EXPECT_THROW(p.textIndex(0), SimError);
}

}  // namespace
}  // namespace xmt
