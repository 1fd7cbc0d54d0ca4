// Tests for observers (filter plug-ins and execution traces) and activity
// plug-ins (paper Sections III-B and III-E).
#include <gtest/gtest.h>

#include "tests/sim_test_util.h"

namespace xmt {
namespace {

const char* kMemoryHog = R"(
.data
HOTWORD: .word 0
COLD: .space 64
.global HOTWORD
.text
main:
  la s0, HOTWORD
  la s1, COLD
  li t0, 50
Lloop:
  lw t1, 0(s0)       # hot: 50 loads + 50 stores to the same word
  addi t1, t1, 1
  sw t1, 0(s0)
  addi t0, t0, -1
  bnez t0, Lloop
  lw t2, 0(s1)       # cold: single access
  halt
)";

TEST(FilterPlugins, HotMemoryFindsTheBottleneck) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* filter = sim->addObserver(std::make_unique<HotMemoryFilter>(3));
  ASSERT_TRUE(sim->run().halted);
  auto top = filter->top();
  ASSERT_FALSE(top.empty());
  // The hottest location is HOTWORD with >= 100 accesses.
  EXPECT_EQ(top[0].first, kDataBase);
  EXPECT_GE(top[0].second, 100u);
  EXPECT_NE(sim->reports().find("hottest memory locations"),
            std::string::npos);
}

TEST(FilterPlugins, WorkInFunctionalModeToo) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kFunctional);
  auto* filter = sim->addObserver(std::make_unique<HotMemoryFilter>(3));
  ASSERT_TRUE(sim->run().halted);
  ASSERT_FALSE(filter->top().empty());
  EXPECT_EQ(filter->top()[0].first, kDataBase);
}

TEST(FilterPlugins, HotLineMapsBackToAssembly) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* filter = sim->addObserver(std::make_unique<HotLineFilter>(5));
  ASSERT_TRUE(sim->run().halted);
  auto top = filter->top();
  ASSERT_GE(top.size(), 2u);
  // The five loop-body lines dominate; each ran 50 times.
  EXPECT_GE(top[0].second, 50u);
  EXPECT_GT(top[0].first, 0);
}

class CountingActivity : public ActivityPlugin {
 public:
  void onInterval(RuntimeControl& rc) override {
    ++calls;
    lastCycles = rc.coreCycles();
    lastInstructions = rc.stats().instructions;
  }
  int calls = 0;
  std::uint64_t lastCycles = 0;
  std::uint64_t lastInstructions = 0;
};

TEST(ActivityPlugins, CalledAtRegularIntervals) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* act = dynamic_cast<CountingActivity*>(
      sim->addActivityPlugin(std::make_unique<CountingActivity>(), 100));
  auto r = sim->run();
  ASSERT_TRUE(r.halted);
  // Roughly cycles/period callbacks (+-1 for boundaries).
  auto expected = static_cast<int>(r.cycles / 100);
  EXPECT_GE(act->calls, expected - 1);
  EXPECT_LE(act->calls, expected + 1);
  EXPECT_GT(act->lastInstructions, 0u);
}

class StopAtFirstSample : public ActivityPlugin {
 public:
  void onInterval(RuntimeControl& rc) override {
    ++calls;
    rc.requestStop();
  }
  int calls = 0;
};

TEST(ActivityPlugins, CanStopTheSimulation) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* act = dynamic_cast<StopAtFirstSample*>(
      sim->addActivityPlugin(std::make_unique<StopAtFirstSample>(), 50));
  auto r = sim->run();
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(act->calls, 1);
  // Resumable afterwards; the plug-in stops it again, and so on.
  auto r2 = sim->run();
  EXPECT_FALSE(r2.halted);
  EXPECT_EQ(act->calls, 2);
}

TEST(Trace, FunctionalLevelListsCommittedInstructions) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* trace =
      sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kFunctional));
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(trace->eventCount(), sim->stats().instructions);
  EXPECT_NE(trace->str().find("halt"), std::string::npos);
  EXPECT_NE(trace->str().find("master"), std::string::npos);
}

TEST(Trace, CycleLevelIncludesComponentStages) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* trace =
      sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kCycle));
  ASSERT_TRUE(sim->run().halted);
  // Package hops through cache (and DRAM on misses) appear.
  EXPECT_NE(trace->str().find("cache"), std::string::npos);
  EXPECT_NE(trace->str().find("dram"), std::string::npos);
  EXPECT_GT(trace->eventCount(), sim->stats().instructions);
}

TEST(Trace, OpFilterRestricts) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  auto* trace =
      sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kFunctional));
  trace->filterOp(Op::kHalt);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(trace->eventCount(), 1u);
}

TEST(Trace, TcuFilterRestricts) {
  const char* parallel = R"(
.text
main:
  li t0, 0
  mtgr t0, gr6
  li t1, 63
  mtgr t1, gr7
  spawn Ls, Le
Ls:
  add t2, tid, tid
  join
Le:
  halt
)";
  auto sim = testutil::makeSim(parallel, SimMode::kCycleAccurate);
  auto* all =
      sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kFunctional));
  auto* one =
      sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kFunctional));
  one->filterTcu(0, 0);  // cluster 0, TCU 0 only
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(all->eventCount(), sim->stats().instructions);
  EXPECT_GT(all->eventCount(), one->eventCount());
  EXPECT_GT(one->eventCount(), 0u);
}

TEST(Observers, EveryObserverSeesEveryCommit) {
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    auto sim = testutil::makeSim(kMemoryHog, mode);
    auto* trace =
        sim->addObserver(std::make_unique<TextTrace>(TraceLevel::kFunctional));
    auto* lines = sim->addObserver(std::make_unique<HotLineFilter>(1000));
    ASSERT_TRUE(sim->run().halted);
    std::uint64_t lineCommits = 0;
    for (const auto& [line, count] : lines->top()) lineCommits += count;
    EXPECT_EQ(trace->eventCount(), sim->stats().instructions);
    EXPECT_EQ(lineCommits, sim->stats().instructions);
    EXPECT_NE(sim->reports().find("hottest assembly lines"),
              std::string::npos);
  }
}

TEST(Stats, ReportMentionsKeySections) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  ASSERT_TRUE(sim->run().halted);
  std::string rep = sim->stats().report();
  EXPECT_NE(rep.find("instructions:"), std::string::npos);
  EXPECT_NE(rep.find("cycles:"), std::string::npos);
  EXPECT_NE(rep.find("DRAM requests:"), std::string::npos);
  EXPECT_NE(rep.find("master cache:"), std::string::npos);
}

TEST(Stats, MasterCacheHitsOnRepeatedAccess) {
  auto sim = testutil::makeSim(kMemoryHog, SimMode::kCycleAccurate);
  ASSERT_TRUE(sim->run().halted);
  // 50 loads of HOTWORD: first misses, later ones hit the master cache.
  EXPECT_GT(sim->stats().masterCacheHits, 10u);
  EXPECT_GE(sim->stats().masterCacheMisses, 1u);
}

}  // namespace
}  // namespace xmt
