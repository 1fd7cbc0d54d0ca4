// Differential testing of compiler options: every combination of
// optimization settings must produce a program with identical architectural
// results — only timing may change.
#include <gtest/gtest.h>

#include <ostream>

#include "src/core/toolchain.h"
#include "src/workloads/graphs.h"
#include "src/workloads/kernels.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

struct OptCombo {
  int optLevel;
  bool nbStores;
  bool prefetch;
  bool cluster;
};

// Prints the case's ctest name. Without it gtest dumps the struct's bytes,
// padding included, and the name changes from run to run.
void PrintTo(const OptCombo& c, std::ostream* os) {
  *os << "O" << c.optLevel << " nbstores=" << (c.nbStores ? "on" : "off")
      << " prefetch=" << (c.prefetch ? "on" : "off")
      << " cluster=" << (c.cluster ? "on" : "off");
}

class OptSweep : public ::testing::TestWithParam<OptCombo> {};

TEST_P(OptSweep, CompactionResultsInvariant) {
  const auto& p = GetParam();
  CompilerOptions copts;
  copts.optLevel = p.optLevel;
  copts.nonBlockingStores = p.nbStores;
  copts.prefetch = p.prefetch;
  copts.clusterThreads = p.cluster;
  copts.clusterCount = 48;  // fewer than the 200 threads: real coarsening

  ToolchainOptions opts;
  opts.compiler = copts;
  Toolchain tc(opts);
  auto sim = tc.makeSimulator(workloads::compactionSource(200));
  std::vector<std::int32_t> a(200, 0);
  for (int i = 0; i < 200; i += 3) a[static_cast<std::size_t>(i)] = i + 7;
  sim->setGlobalArray("A", a);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobal("count"), 67);
  auto b = sim->getGlobalArray("B");
  std::vector<std::int32_t> got(b.begin(), b.begin() + 67);
  std::sort(got.begin(), got.end());
  std::vector<std::int32_t> expect;
  for (int i = 0; i < 200; i += 3) expect.push_back(i + 7);
  EXPECT_EQ(got, expect);
}

TEST_P(OptSweep, BfsResultsInvariant) {
  const auto& p = GetParam();
  CompilerOptions copts;
  copts.optLevel = p.optLevel;
  copts.nonBlockingStores = p.nbStores;
  copts.prefetch = p.prefetch;
  copts.clusterThreads = p.cluster;
  copts.clusterCount = 48;

  workloads::Graph g = workloads::randomGraph(120, 3, 55);
  auto ref = workloads::hostBfs(g, 0);
  ToolchainOptions opts;
  opts.compiler = copts;
  Toolchain tc(opts);
  auto sim = tc.makeSimulator(workloads::bfsParallelSource(g, 0));
  sim->setGlobalArray("rowStart", g.rowStart);
  sim->setGlobalArray("adj", g.adj);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobalArray("dist"), ref);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, OptSweep,
    ::testing::Values(OptCombo{0, false, false, false},
                      OptCombo{0, true, false, false},
                      OptCombo{0, false, true, false},
                      OptCombo{0, true, true, true},
                      OptCombo{1, false, false, false},
                      OptCombo{1, true, false, false},
                      OptCombo{1, false, true, false},
                      OptCombo{1, true, true, false},
                      OptCombo{1, true, true, true},
                      OptCombo{1, false, false, true}));

TEST(OptLevels, O0AndO1AgreeOnSerialKernels) {
  for (const auto& src :
       {workloads::serialSumSource(100), workloads::serMemSource(500),
        workloads::serCompSource(500), workloads::serialPrefixSumSource(64)}) {
    std::vector<std::int32_t> results;
    for (int lvl : {0, 1}) {
      CompilerOptions copts;
      copts.optLevel = lvl;
      ToolchainOptions opts;
      opts.compiler = copts;
      Toolchain tc(opts);
      auto sim = tc.makeSimulator(src);
      // Fill the input array if the kernel has one.
      if (src.find("int A[") != std::string::npos) {
        std::vector<std::int32_t> a(64, 3);
        if (src.find("int A[100]") != std::string::npos) a.assign(100, 3);
        sim->setGlobalArray("A", a);
      }
      ASSERT_TRUE(sim->run().halted);
      results.push_back(sim->getGlobalArray(
          src.find("total") != std::string::npos ? "total" : (
              src.find("int S[") != std::string::npos ? "S" : "OUT"))[0]);
    }
    EXPECT_EQ(results[0], results[1]) << src.substr(0, 60);
  }
}

TEST(OptLevels, OptimizationShrinksCode) {
  // The generic optimizer must actually do something: fewer executed
  // instructions at -O1 on a folding-friendly program.
  const char* src = R"(
int R;
int main() {
  int a = 2 * 3 + 4;
  int b = a * 10;
  int unused = a * b * 55;
  R = b + 1;
  return 0;
}
)";
  std::uint64_t counts[2];
  for (int lvl : {0, 1}) {
    CompilerOptions copts;
    copts.optLevel = lvl;
    ToolchainOptions opts;
    opts.compiler = copts;
    Toolchain tc(opts);
    auto e = tc.run(src);
    ASSERT_TRUE(e.result.halted);
    EXPECT_EQ(e.sim->getGlobal("R"), 101);
    counts[lvl] = e.result.instructions;
  }
  EXPECT_LT(counts[1], counts[0]);
}

TEST(OptLevels, FunctionalAndCycleDigestsAgreeForEveryWorkload) {
  // Whole-memory differential check across simulation modes: for every
  // registry workload, the functional and cycle-accurate models must leave
  // bit-identical data segments. Workloads whose *placement* is legitimately
  // thread-order-dependent (compaction's ps-allocated slots, bfs frontier
  // queues) declare those globals in digestExclude; the digest masks them
  // and everything else is still held to exact equality.
  for (const auto& entry : workloads::workloadRegistry()) {
    workloads::WorkloadInstance w;
    w.name = entry.name;
    std::string src = workloads::instanceSource(w);
    std::uint64_t digest[2] = {0, 1};
    for (int m = 0; m < 2; ++m) {
      ToolchainOptions opts;
      opts.mode = m == 0 ? SimMode::kFunctional : SimMode::kCycleAccurate;
      Toolchain tc(opts);
      auto sim = tc.makeSimulator(src);
      workloads::instancePrepare(w, *sim);
      ASSERT_TRUE(sim->run().halted) << entry.name;
      digest[m] = sim->memoryDigest(entry.digestExclude);
    }
    EXPECT_EQ(digest[0], digest[1]) << entry.name;
  }
}

TEST(OptLevels, PrefetchPolicies) {
  // FIFO vs LRU prefetch-buffer replacement (the design-space question of
  // paper ref. [8]); both must be correct.
  for (const char* policy : {"fifo", "lru"}) {
    XmtConfig cfg = XmtConfig::fpga64();
    cfg.prefetchPolicy = policy;
    cfg.prefetchEntries = 2;
    ToolchainOptions opts;
    opts.config = cfg;
    Toolchain tc(opts);
    auto sim = tc.makeSimulator(workloads::vectorAddSource(128));
    std::vector<std::int32_t> a(128, 9);
    sim->setGlobalArray("A", a);
    ASSERT_TRUE(sim->run().halted);
    for (auto v : sim->getGlobalArray("B")) ASSERT_EQ(v, 10);
  }
}

}  // namespace
}  // namespace xmt
