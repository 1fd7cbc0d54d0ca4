// Direct tests of the compiler post-pass on hand-written assembly — the
// paper's Fig. 9 scenario and the XMT-semantics verification rules.
#include <gtest/gtest.h>

#include "src/assembler/assembler.h"
#include "src/common/error.h"
#include "src/compiler/postpass.h"
#include "src/sim/simulator.h"

namespace xmt {
namespace {

// Fig. 9a, literally: BB2 logically belongs to the spawn block but is laid
// out after the function's return; the branch saves a jump. The post-pass
// must pull BB2 back between spawn and join (Fig. 9b).
const char* kFig9a = R"(
.data
A: .space 256
B: .space 256
.global A
.global B
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 63
  mtgr t1, gr7
  la s0, A
  la s1, B
  spawn Lstart, Lend
Lstart:
  sll t2, tid, 2
  add t3, s0, t2
  lw t4, 0(t3)
  li t5, 10
  bgt t4, t5, BB2
  add t6, s1, t2
  swnb t4, 0(t6)
  join
Lend:
  halt
BB2:
  sll t7, t4, 1
  add t6, s1, t2
  swnb t7, 0(t6)
  j Lback
.text
)";

// The jump-back label must live inside the region for the repair test.
std::string fig9WithBack() {
  std::string s = kFig9a;
  // Insert a label before join so BB2 can jump back into the region.
  auto pos = s.find("  join");
  s.insert(pos, "Lback:\n");
  return s;
}

TEST(PostPass, RepairsFig9Layout) {
  std::string src = fig9WithBack();
  // Unrepaired, the simulator traps on the out-of-region fetch.
  {
    Program p = assemble(src);
    Simulator sim(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
    std::vector<std::int32_t> a(64, 50);  // all take the BB2 path
    sim.setGlobalArray("A", a);
    EXPECT_THROW(sim.run(), SimError);
  }
  // Repaired, it runs and produces the right values.
  PostPassReport rep = runPostPass(src);
  EXPECT_EQ(rep.relocatedBlocks, 1);
  EXPECT_EQ(rep.regionsChecked, 1);
  Program p = assemble(rep.asmText);
  Simulator sim(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  std::vector<std::int32_t> a(64);
  for (int i = 0; i < 64; ++i) a[static_cast<std::size_t>(i)] = i;
  sim.setGlobalArray("A", a);
  ASSERT_TRUE(sim.run().halted);
  auto b = sim.getGlobalArray("B");
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(b[static_cast<std::size_t>(i)], i > 10 ? 2 * i : i) << i;
}

TEST(PostPass, CleanRegionUntouched) {
  const char* src = R"(
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 3
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  add t2, tid, tid
  join
Le:
  halt
)";
  PostPassReport rep = runPostPass(src);
  EXPECT_EQ(rep.relocatedBlocks, 0);
  EXPECT_EQ(rep.regionsChecked, 1);
  // Output still assembles and runs.
  Program p = assemble(rep.asmText);
  Simulator sim(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  EXPECT_TRUE(sim.run().halted);
}

TEST(PostPass, ReadsLabelsAndCommentsAsTheAssemblerDoes) {
  // The post-pass reads assembly with the assembler's tokenizer, so it
  // accepts every form `assemble` does: a space before a label's colon,
  // and ';' comments after the spawn operands and after a label.
  auto accepted = [](const std::string& regionEntry) {
    std::string src =
        ".text\nmain:\n  li t0, 0\n  mtgr t0, gr6\n  li t1, 3\n"
        "  mtgr t1, gr7\n" +
        regionEntry + "  add t2, tid, tid\n  join\nLe:\n  halt\n";
    SCOPED_TRACE(src);
    assemble(src);  // throws if the assembler rejects the input
    PostPassReport rep;
    ASSERT_NO_THROW(rep = runPostPass(src));
    EXPECT_EQ(rep.regionsChecked, 1);
    Simulator sim(assemble(rep.asmText), XmtConfig::fpga64(),
                  SimMode::kCycleAccurate);
    EXPECT_TRUE(sim.run().halted);
  };
  accepted("  spawn Ls, Le\nLs :\n");
  accepted("  spawn Ls, Le ; broadcast [Ls, Le)\nLs: ; region entry\n");
}

TEST(PostPass, MultipleRegionsChecked) {
  const char* src = R"(
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 3
  mtgr t1, gr7
  spawn L1s, L1e
L1s:
  join
L1e:
  li t0, 0
  mtgr t0, gr6
  li t1, 3
  mtgr t1, gr7
  spawn L2s, L2e
L2s:
  join
L2e:
  halt
)";
  PostPassReport rep = runPostPass(src);
  EXPECT_EQ(rep.regionsChecked, 2);
  EXPECT_EQ(rep.relocatedBlocks, 0);
}

TEST(PostPass, RejectsNestedSpawnInRegion) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  spawn Ls2, Le2
Ls2:
  join
Le2:
  join
Le:
  halt
)";
  EXPECT_THROW(runPostPass(src), AsmError);
}

TEST(PostPass, FailuresCarryStructuredDiagnostics) {
  // PostPassError derives AsmError (so the legacy EXPECT_THROW tests above
  // keep passing) but also carries the machine-readable finding: code, the
  // offending assembly line, the spawn-region label, and the spawn line.
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  spawn Ls2, Le2
Ls2:
  join
Le2:
  join
Le:
  halt
)";
  try {
    runPostPass(src);
    FAIL() << "expected PostPassError";
  } catch (const PostPassError& e) {
    EXPECT_EQ(e.code(), DiagCode::kPostPassNestedSpawn);
    EXPECT_EQ(e.diag().symbol, "Ls");
    EXPECT_EQ(e.diag().line, 6) << "line of the nested spawn";
    EXPECT_EQ(e.diag().otherLine, 4) << "line of the outer spawn";
    EXPECT_NE(std::string(e.what()).find("xmt-pp-nested-spawn"),
              std::string::npos)
        << e.what();
  }
}

TEST(PostPass, RejectsHaltInRegion) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  halt
Le:
  halt
)";
  EXPECT_THROW(runPostPass(src), AsmError);
}

TEST(PostPass, RejectsJrInRegion) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  jr ra
Le:
  halt
)";
  EXPECT_THROW(runPostPass(src), AsmError);
}

TEST(PostPass, RejectsRegionWithoutJoin) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  add t0, t1, t2
  j After
Le:
  halt
After:
  add t0, t1, t2
  j Ls
)";
  // Reachable code escapes the region and there is no join to anchor the
  // repair.
  EXPECT_THROW(runPostPass(src), AsmError);
}

TEST(PostPass, RejectsUnknownBranchTarget) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  beq t0, t1, Nowhere
  join
Le:
  halt
)";
  EXPECT_THROW(runPostPass(src), AsmError);
}

TEST(PostPass, PreservesDataDirectives) {
  const char* src = R"(
.data
msg: .asciiz "hello, world"
W: .word 1, 2, 3
.global W
.text
main:
  halt
)";
  PostPassReport rep = runPostPass(src);
  EXPECT_NE(rep.asmText.find("hello, world"), std::string::npos);
  EXPECT_NE(rep.asmText.find(".word 1, 2, 3"), std::string::npos);
  Program p = assemble(rep.asmText);
  EXPECT_TRUE(p.symbol("W").isGlobal);
}

TEST(PostPass, RelocatesMultiBlockRunWithInternalBranch) {
  // The misplaced run spans two basic blocks with an internal conditional
  // branch; it must be relocated as a unit, preserving internal layout.
  const char* src = R"(
.data
B: .space 32
.global B
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 7
  mtgr t1, gr7
  la s0, B
  spawn Ls, Le
Ls:
  beqz tid, Out
Lback:
  join
Le:
  halt
Out:
  addi t2, tid, 1
  bnez t2, Store
  j Lback
Store:
  sll t3, tid, 2
  add t3, s0, t3
  swnb t2, 0(t3)
  j Lback
)";
  PostPassReport rep = runPostPass(src);
  EXPECT_GE(rep.relocatedBlocks, 1);
  Program p = assemble(rep.asmText);
  Simulator sim(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  ASSERT_TRUE(sim.run().halted);
  // Thread 0 took the relocated path and stored tid+1 == 1.
  EXPECT_EQ(sim.getGlobalArray("B")[0], 1);
}

TEST(PostPass, MisplacedBlockFallingOffTheEndIsAnError) {
  const char* src = R"(
.text
main:
  spawn Ls, Le
Ls:
  beqz tid, Out
  join
Le:
  halt
Out:
  addi t2, tid, 1
)";
  EXPECT_THROW(runPostPass(src), AsmError);
}

}  // namespace
}  // namespace xmt
