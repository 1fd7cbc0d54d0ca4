// Dynamic race-check plugin tests: the shadow-memory conflict rules on
// synthetic access streams, event emission from the functional model, and
// the cross-validation matrix — every program of the seeded-race /
// race-free benchmark suite must get the same verdict from the static lint
// and the dynamic checker.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/compiler/driver.h"
#include "src/sim/plugins.h"
#include "src/sim/simulator.h"
#include "src/workloads/kernels.h"

namespace xmt {
namespace {

MemAccess access(std::uint64_t spawnSeq, std::uint32_t tid, bool write,
                 std::uint32_t addr, bool atomic = false,
                 std::uint32_t size = 4) {
  MemAccess a;
  a.spawnSeq = spawnSeq;
  a.tid = tid;
  a.parallel = spawnSeq != 0;
  a.write = write;
  a.atomic = atomic;
  a.addr = addr;
  a.size = size;
  return a;
}

TEST(RaceCheckPlugin, WriteWriteFromDifferentThreads) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, true, 0x1000));
  p.onMemAccess(access(1, 1, true, 0x1000));
  ASSERT_FALSE(p.clean());
  EXPECT_TRUE(p.races()[0].writeWrite);
  EXPECT_EQ(p.races()[0].tidA, 0u);
  EXPECT_EQ(p.races()[0].tidB, 1u);
}

TEST(RaceCheckPlugin, SameThreadAndSerialAccessesAreFine) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 3, true, 0x1000));
  p.onMemAccess(access(1, 3, true, 0x1000));   // same thread again
  p.onMemAccess(access(1, 3, false, 0x1000));
  p.onMemAccess(access(0, 0, true, 0x1000));   // serial: ignored
  p.onMemAccess(access(0, 0, true, 0x1000));
  EXPECT_TRUE(p.clean());
}

TEST(RaceCheckPlugin, ReadWriteConflictBothOrders) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, false, 0x2000));
  p.onMemAccess(access(1, 1, true, 0x2000));  // write after foreign read
  ASSERT_EQ(p.races().size(), 1u);
  EXPECT_FALSE(p.races()[0].writeWrite);

  RaceCheckPlugin q;
  q.onMemAccess(access(1, 0, true, 0x2000));
  q.onMemAccess(access(1, 1, false, 0x2000));  // read after foreign write
  ASSERT_EQ(q.races().size(), 1u);
  EXPECT_FALSE(q.races()[0].writeWrite);
}

TEST(RaceCheckPlugin, ReaderTrackingSurvivesOwnerRead) {
  // Thread 0 reads, thread 1 reads then writes: the write still conflicts
  // with thread 0's read even though the most recent reader was thread 1.
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, false, 0x3000));
  p.onMemAccess(access(1, 1, false, 0x3000));
  p.onMemAccess(access(1, 1, true, 0x3000));
  EXPECT_FALSE(p.clean());
}

TEST(RaceCheckPlugin, PsmPairsAreExemptButPsmVsPlainIsNot) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, true, 0x4000, /*atomic=*/true));
  p.onMemAccess(access(1, 1, true, 0x4000, /*atomic=*/true));
  EXPECT_TRUE(p.clean());
  p.onMemAccess(access(1, 2, true, 0x4000, /*atomic=*/false));
  EXPECT_FALSE(p.clean());
}

TEST(RaceCheckPlugin, SpawnRegionBoundaryResetsShadow) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, true, 0x5000));
  p.onMemAccess(access(2, 1, true, 0x5000));  // next region: no conflict
  EXPECT_TRUE(p.clean());
}

TEST(RaceCheckPlugin, ByteGranularityCatchesPartialOverlap) {
  RaceCheckPlugin p;
  p.onMemAccess(access(1, 0, true, 0x6000, false, 4));
  p.onMemAccess(access(1, 1, true, 0x6002, false, 1));  // inside the word
  EXPECT_FALSE(p.clean());
  RaceCheckPlugin q;
  q.onMemAccess(access(1, 0, true, 0x6000, false, 4));
  q.onMemAccess(access(1, 1, true, 0x6004, false, 4));  // adjacent word
  EXPECT_TRUE(q.clean());
}

// --- Cross-validation: static lint vs. dynamic execution --------------------

struct Bench {
  std::string name;
  std::string source;
  bool racy;
  // Expected racy location, when the bench is racy. The static side names
  // symbols; the dynamic side maps addresses back to symbols, with frame
  // accesses reported as "<frame>" statically and "<stack>" dynamically.
  std::string staticSymbol;
  std::string dynamicSymbol;
};

std::vector<Bench> benchmarkSuite() {
  std::vector<Bench> suite;
  suite.push_back({"racy-shared-counter", R"(
int S;
int main() {
  spawn(0, 3) { S = S + 1; }
  return 0;
}
)", true, "S", "S"});
  suite.push_back({"racy-single-element", R"(
int A[8];
int main() {
  spawn(0, 7) { A[0] = $; }
  return 0;
}
)", true, "A", "A"});
  suite.push_back({"racy-neighbor-read", R"(
int A[9];
int main() {
  spawn(0, 7) { A[$] = A[$ + 1]; }
  return 0;
}
)", true, "A", "A"});
  suite.push_back({"racy-psm-vs-plain", R"(
int C;
int B[8];
int main() {
  spawn(0, 7) {
    int one = 1;
    B[$] = C;
    psm(one, C);
  }
  return 0;
}
)", true, "C", "C"});
  suite.push_back({"racy-shared-frame", R"(
int R[8];
int main() {
  int x = 0;
  int* p = &x;
  spawn(0, 7) { *p = $; }
  R[0] = x;
  return 0;
}
)", true, "<frame>", "<stack>"});
  suite.push_back({"clean-vector-add", workloads::vectorAddSource(8), false,
                   "", ""});
  suite.push_back({"clean-histogram", workloads::histogramSource(16, 4),
                   false, "", ""});
  suite.push_back({"clean-parallel-sum", workloads::parallelSumSource(8),
                   false, "", ""});
  suite.push_back({"clean-compaction", workloads::compactionSource(8), false,
                   "", ""});
  suite.push_back({"clean-ps-counter", workloads::psCounterSource(4, 4),
                   false, "", ""});
  suite.push_back({"clean-psm-counter", workloads::psmCounterSource(4, 4),
                   false, "", ""});
  suite.push_back({"clean-prefix-sum", workloads::prefixSumSource(8), false,
                   "", ""});
  return suite;
}

// Seeds the benchmark's input arrays so the interesting paths execute
// (compaction needs nonzero elements, histogram needs in-range values).
void seedInputs(Simulator& sim, const Program& prog) {
  if (prog.hasSymbol("A")) {
    std::vector<std::int32_t> a;
    for (std::uint32_t i = 0; i < prog.symbol("A").size / 4; ++i)
      a.push_back(static_cast<std::int32_t>(i % 4) != 0 ? (i % 4) : 0);
    sim.setGlobalArray("A", a);
  }
}

TEST(CrossValidation, StaticAndDynamicVerdictsAgree) {
  CompilerOptions lintOpts;
  lintOpts.analyzeRaces = true;
  for (const Bench& b : benchmarkSuite()) {
    // Static verdict.
    CompileResult cr = compileXmtc(b.source, lintOpts);
    bool staticRacy = false;
    std::set<std::string> staticSymbols;
    for (const Diagnostic& d : cr.diagnostics)
      if (isRaceDiag(d)) {
        staticRacy = true;
        staticSymbols.insert(d.symbol);
      }
    EXPECT_EQ(staticRacy, b.racy) << b.name << " (static)";

    // Dynamic verdict: run functionally with the shadow-memory checker.
    Program prog = compileToProgram(b.source);
    Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
    auto* plugin = sim.addObserver(std::make_unique<RaceCheckPlugin>());
    seedInputs(sim, prog);
    RunResult r = sim.run();
    EXPECT_TRUE(r.halted) << b.name;
    EXPECT_EQ(!plugin->clean(), b.racy) << b.name << " (dynamic)";

    // On racy benches both sides must blame the same location.
    if (b.racy) {
      EXPECT_TRUE(staticSymbols.count(b.staticSymbol))
          << b.name << " static symbols";
      EXPECT_TRUE(plugin->racySymbols(prog).count(b.dynamicSymbol))
          << b.name << " dynamic symbols";
    }
  }
}

TEST(CrossValidation, DynamicCheckerSeesFunctionalEvents) {
  // Sanity-check the event plumbing end to end: a racy program must deliver
  // parallel memory accesses to the plugin, and its report must say so.
  Program prog = compileToProgram(R"(
int S;
int main() {
  spawn(0, 3) { S = S + 1; }
  return 0;
}
)");
  Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
  auto* plugin = sim.addObserver(std::make_unique<RaceCheckPlugin>());
  sim.run();
  EXPECT_FALSE(plugin->clean());
  EXPECT_NE(plugin->report().find("write/write"), std::string::npos);
  EXPECT_NE(sim.reports().find("race check"), std::string::npos);
}

}  // namespace
}  // namespace xmt
