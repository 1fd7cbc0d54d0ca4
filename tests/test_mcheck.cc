// xmtmc model-checker tests: DPOR exploration of spawn-region
// interleavings, static-pruning facts, the three-oracle agreement matrix
// (static lint vs dynamic RaceCheckPlugin vs exhaustive exploration) over
// the workload registry and the checked-in corpus, and the seeded-mutant
// self-validation harness.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/compiler/analysis/mcheck.h"
#include "src/compiler/analysis/racecheck.h"
#include "src/compiler/driver.h"
#include "src/sim/plugins.h"
#include "src/sim/simulator.h"
#include "src/testing/explore.h"
#include "src/workloads/kernels.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

using testing::disciplineMutants;
using testing::McMutant;
using testing::McOptions;
using testing::McResult;
using testing::modelCheckSource;

std::string wrap(const std::string& body, int n = 3,
                 const std::string& tail = "") {
  std::ostringstream s;
  s << "int A[8];\nint B[8];\nint total;\npsBaseReg base = 0;\n"
    << "int main() {\n"
    << "  for (int i = 0; i < 8; i++) A[i] = i;\n"
    << "  spawn(0, " << (n - 1) << ") {\n"
    << body << "\n  }\n"
    << tail << "  return 0;\n}\n";
  return s.str();
}

bool hasCode(const McResult& r, DiagCode code) {
  for (const auto& v : r.violations)
    if (v.diag.code == code) return true;
  return false;
}

// --- Core exploration -----------------------------------------------------

TEST(McExplorer, CleanVectorAddVerifies) {
  McResult r = modelCheckSource(wrap("    B[$] = A[$] + 1;"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.verified());
  EXPECT_TRUE(r.violations.empty());
  ASSERT_EQ(r.regions.size(), 1u);
  EXPECT_TRUE(r.regions[0].exhaustive);
}

TEST(McExplorer, SharedWriteIsARaceWithWitness) {
  McResult r = modelCheckSource(wrap("    total = $;"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.clean());
  ASSERT_TRUE(hasCode(r, DiagCode::kMcRace));
  const auto& v = r.violations.front();
  EXPECT_FALSE(v.schedule.empty());
  EXPECT_EQ(v.diag.symbol, "total");
  EXPECT_NE(v.diag.message.find("witness schedule"), std::string::npos);
}

TEST(McExplorer, ReadWriteRaceAcrossThreads) {
  McResult r =
      modelCheckSource(wrap("    B[$] = $;\n    if ($ == 1) total = B[0];"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(hasCode(r, DiagCode::kMcRace));
}

TEST(McExplorer, PsCounterPrunesToOneTrace) {
  McResult r = modelCheckSource(
      wrap("    int one = 1;\n    ps(one, base);", 4, "  total = base;\n"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.verified()) << (r.violations.empty()
                                    ? "not exhaustive"
                                    : r.violations[0].diag.message);
  ASSERT_EQ(r.regions.size(), 1u);
  EXPECT_EQ(r.regions[0].traces, 1u);
  EXPECT_GT(r.regions[0].prunedPairs, 0u);
}

TEST(McExplorer, PsCounterWithoutPruningExplodesButStaysCorrect) {
  McOptions opts;
  opts.staticPrune = false;
  McResult r = modelCheckSource(
      wrap("    int one = 1;\n    ps(one, base);", 3, "  total = base;\n"),
      opts);
  ASSERT_TRUE(r.error.empty()) << r.error;
  // ps order is a visible dependence without the commutativity fact, so
  // more than one trace is explored — but the counter sum is invariant, so
  // no violation may be reported.
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.regions.size(), 1u);
  EXPECT_GT(r.regions[0].traces, 1u);
}

TEST(McExplorer, PsResultLeakIsOrderDependent) {
  // The handed-out index stored at a tid-indexed slot makes the final
  // B content depend on the schedule.
  McResult r = modelCheckSource(
      wrap("    int i = 1;\n    ps(i, base);\n    B[$] = i;", 3));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(hasCode(r, DiagCode::kMcOrderDependent));
}

TEST(McExplorer, CompactionPermutationIsAccepted) {
  McResult r = modelCheckSource(wrap(
      "    int inc = 1;\n    if (A[$] != 0) {\n      ps(inc, base);\n"
      "      B[inc] = A[$];\n    }",
      4, "  total = base;\n"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.verified()) << (r.violations.empty()
                                    ? "not exhaustive"
                                    : r.violations[0].diag.message);
}

TEST(McExplorer, GrReadRacingPsIsAConflict) {
  McResult r = modelCheckSource(
      wrap("    B[$] = base;\n    int i = 1;\n    ps(i, base);", 3));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(hasCode(r, DiagCode::kMcGrConflict));
}

TEST(McExplorer, PsmHistogramVerifies) {
  McResult r = modelCheckSource(
      wrap("    int one = 1;\n    psm(one, B[A[$] / 2]);", 4));
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.verified()) << (r.violations.empty()
                                    ? "not exhaustive"
                                    : r.violations[0].diag.message);
}

TEST(McExplorer, BudgetExhaustionIsExplicit) {
  McOptions opts;
  opts.maxTracesPerRegion = 2;
  opts.staticPrune = false;
  McResult r = modelCheckSource(
      wrap("    int one = 1;\n    ps(one, base);", 4, "  total = base;\n"),
      opts);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_FALSE(r.allExhaustive());
  EXPECT_FALSE(r.verified());
  bool budgetNote = false;
  for (const auto& d : r.diagnostics)
    if (d.code == DiagCode::kMcBudgetExhausted) budgetNote = true;
  EXPECT_TRUE(budgetNote);
  ASSERT_EQ(r.regions.size(), 1u);
  EXPECT_GT(r.regions[0].perturbRounds, 0);
}

TEST(McExplorer, WitnessIsDeterministic) {
  auto run = [] { return modelCheckSource(wrap("    total = $;")); };
  McResult a = run();
  McResult b = run();
  ASSERT_FALSE(a.violations.empty());
  ASSERT_FALSE(b.violations.empty());
  EXPECT_EQ(a.violations[0].schedule, b.violations[0].schedule);
  EXPECT_EQ(a.violations[0].diag.message, b.violations[0].diag.message);
}

TEST(McExplorer, SerialProgramHasNoRegions) {
  McResult r = modelCheckSource(
      "int total;\nint main() { total = 41 + 1; return 0; }\n");
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.verified());
  EXPECT_TRUE(r.regions.empty());
}

TEST(McExplorer, CommittedReplayMatchesSerialSemantics) {
  // The model-checked run's final output and halt state must equal the
  // plain functional run's (committed replay is the serial schedule).
  std::string src = wrap("    B[$] = A[$] * 2;", 4,
                         "  printf(\"%d %d %d\\n\", B[0], B[1], B[3]);\n");
  McResult r = modelCheckSource(src);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.halted);
  Program prog = compileToProgram(src, CompilerOptions{});
  FuncModel fm(prog);
  fm.runFunctional(100000000, nullptr, nullptr);
  EXPECT_EQ(r.output, fm.output());
}

TEST(McExplorer, PruningBeatsNaiveEnumerationTenfold) {
  // Acceptance statistic: static pruning reduces explored interleavings
  // vs the naive multinomial by >= 10x on a registry-style kernel.
  McResult r = modelCheckSource(
      wrap("    int one = 1;\n    ps(one, base);", 6, "  total = base;\n"));
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.verified());
  ASSERT_EQ(r.regions.size(), 1u);
  const auto& reg = r.regions[0];
  double exploredLog10 =
      std::log10(static_cast<double>(reg.traces == 0 ? 1 : reg.traces));
  EXPECT_GE(reg.naiveLog10 - exploredLog10, 1.0)
      << "naive=" << reg.naiveLog10 << " explored traces=" << reg.traces;
}

// --- Static facts ---------------------------------------------------------

TEST(McFacts, DeadPsIsCommutative) {
  auto f = analysis::computeMcFactsForSource(
      wrap("    int one = 1;\n    ps(one, base);", 4, "  total = base;\n"));
  EXPECT_EQ(f.regionCount, 1);
  EXPECT_FALSE(f.commutativeAtomicLines.empty());
}

TEST(McFacts, LeakedPsResultIsNotCommutative) {
  auto f = analysis::computeMcFactsForSource(
      wrap("    int i = 1;\n    ps(i, base);\n    total = i;", 4));
  EXPECT_TRUE(f.commutativeAtomicLines.empty());
}

TEST(McFacts, CompactionIndexIsCommutativeAndPermuted) {
  auto f = analysis::computeMcFactsForSource(wrap(
      "    int inc = 1;\n    if (A[$] != 0) {\n      ps(inc, base);\n"
      "      B[inc] = A[$];\n    }",
      4, "  total = base;\n"));
  EXPECT_FALSE(f.commutativeAtomicLines.empty());
  EXPECT_EQ(f.orderPermutedSymbols.count("B"), 1u);
}

TEST(McFacts, TidIndexedAccessesArePrivateLines) {
  auto f = analysis::computeMcFactsForSource(wrap("    B[$] = A[$] + 1;"));
  EXPECT_GE(f.privateMemLines.size(), 1u);
  EXPECT_EQ(f.privateSymbols.count("A"), 1u);
  EXPECT_EQ(f.privateSymbols.count("B"), 1u);
}

TEST(McFacts, RuntimeKeysMirrorLineFacts) {
  auto f = analysis::computeMcFactsForSource(
      wrap("    int one = 1;\n    ps(one, base);\n    int v = A[$];\n"
           "    psm(v, total);",
           4));
  EXPECT_FALSE(f.commutativePsGrs.empty());
  EXPECT_EQ(f.commutativePsmSymbols.count("total"), 1u);
}

// --- Lint feedback --------------------------------------------------------

TEST(McFeedback, ExhaustiveVerdictDowngradesRaceLintToNote) {
  // A static false positive: the loop-carried offset widens so the lint
  // cannot bound the stride, but the accesses are disjoint and xmtmc
  // verifies the region exhaustively clean.
  std::string src =
      "int A[16];\n"
      "int main() {\n"
      "  spawn(0, 3) {\n"
      "    int j;\n"
      "    for (j = 0; j < 2; j++) A[$ * 2 + j] = j;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  CompilerOptions copts;
  copts.analyzeRaces = true;
  CompileResult cr = compileXmtc(src, copts);
  bool sawRaceWarning = false;
  for (const auto& d : cr.diagnostics)
    sawRaceWarning =
        sawRaceWarning || (isRaceDiag(d) && d.severity == Severity::kWarning);
  ASSERT_TRUE(sawRaceWarning) << "lint no longer over-approximates here";

  McResult r = modelCheckSource(src);
  ASSERT_TRUE(r.verified());
  analysis::applyExplorationVerdicts(cr.diagnostics, r.verified());
  for (const auto& d : cr.diagnostics) {
    if (!isRaceDiag(d)) continue;
    EXPECT_EQ(d.severity, Severity::kNote);
    EXPECT_NE(d.message.find("downgraded"), std::string::npos);
  }

  // A non-exhaustive (or violating) run must leave the lint untouched.
  CompileResult cr2 = compileXmtc(src, copts);
  analysis::applyExplorationVerdicts(cr2.diagnostics, false);
  bool stillWarning = false;
  for (const auto& d : cr2.diagnostics)
    stillWarning =
        stillWarning || (isRaceDiag(d) && d.severity == Severity::kWarning);
  EXPECT_TRUE(stillWarning);
}

// --- Mutant self-validation harness ---------------------------------------

TEST(McMutants, CorpusShape) {
  auto ms = disciplineMutants();
  int clean = 0, bad = 0;
  for (const McMutant& m : ms) (m.shouldViolate ? bad : clean)++;
  EXPECT_GE(clean, 4);
  EXPECT_GE(bad, 20) << "harness needs >= 20 seeded violations";
}

TEST(McMutants, CleanOriginalsVerifySilently) {
  for (const McMutant& m : disciplineMutants()) {
    if (m.shouldViolate) continue;
    McResult r = modelCheckSource(m.source);
    EXPECT_TRUE(r.error.empty()) << m.name << ": " << r.error;
    EXPECT_TRUE(r.verified())
        << m.name << ": "
        << (r.violations.empty() ? "not exhaustive"
                                 : r.violations[0].diag.message);
  }
}

TEST(McMutants, SeededViolationsAreKilledWithWitnesses) {
  auto ms = disciplineMutants();
  int seeded = 0, killed = 0;
  std::vector<std::string> survivors;
  for (const McMutant& m : ms) {
    if (!m.shouldViolate) continue;
    ++seeded;
    McResult r = modelCheckSource(m.source);
    ASSERT_TRUE(r.error.empty()) << m.name << ": " << r.error;
    if (!r.violations.empty()) {
      ++killed;
      // Every kill carries a concrete, non-empty schedule witness.
      EXPECT_FALSE(r.violations[0].schedule.empty()) << m.name;
      EXPECT_NE(r.violations[0].diag.message.find("schedule"),
                std::string::npos)
          << m.name;
    } else {
      survivors.push_back(m.name);
    }
  }
  std::string who;
  for (const auto& s : survivors) who += s + " ";
  EXPECT_GE(killed * 100, seeded * 95)
      << "killed " << killed << "/" << seeded << "; survivors: " << who;
}

// --- Registry + corpus verification and the three-oracle matrix -----------

ConfigMap smallParams(const workloads::WorkloadEntry& e) {
  ConfigMap p;
  for (const std::string& k : e.params) {
    // fft requires a power-of-two n: with n = 6 the fixed butterfly count
    // indexes RE[6] out of bounds into IM — a genuine precondition
    // violation xmtmc reports as a race between the aliased arrays.
    if (k == "n") p.set("n", e.name == "fft" ? "4" : "6");
    if (k == "threads") p.set("threads", "4");
    if (k == "iters") p.set("iters", "3");
    if (k == "degree") p.set("degree", "2");
    if (k == "buckets") p.set("buckets", "4");
    if (k == "seed") p.set("seed", "7");
  }
  return p;
}

TEST(McRegistry, EveryKernelVerifiesWithinDefaultBudget) {
  for (const workloads::WorkloadEntry& e : workloads::workloadRegistry()) {
    workloads::WorkloadInstance w{e.name, smallParams(e)};
    McResult r = testing::modelCheckWorkload(w);
    EXPECT_TRUE(r.error.empty()) << e.name << ": " << r.error;
    EXPECT_TRUE(r.clean()) << e.name << ": "
                           << (r.violations.empty()
                                   ? ""
                                   : r.violations[0].diag.message);
    EXPECT_TRUE(r.allExhaustive()) << e.name << " exceeded budget";
  }
}

// The agreement matrix: for each program, three independent oracles —
// the static lint (compile-time), the RaceCheckPlugin (one dynamic
// schedule), and xmtmc (all schedules) — must tell a consistent story:
//  * a region xmtmc exhaustively verifies race-free must be clean under
//    the dynamic checker (it saw a subset of schedules);
//  * a dynamic-checker race must be found by xmtmc too (superset).
// The static lint may over-approximate (warn on clean programs) but its
// *errors* on provably-racy benchmarks must be confirmed by xmtmc.
struct OracleVerdicts {
  bool staticRace = false;   // static lint warning/error
  bool dynamicRace = false;  // RaceCheckPlugin on the serial schedule
  bool mcRace = false;       // xmtmc kMcRace/kMcGrConflict
  bool mcAnyViolation = false;
  bool mcExhaustive = false;
};

OracleVerdicts runOracles(const std::string& source) {
  OracleVerdicts v;
  CompilerOptions copts;
  copts.analyzeRaces = true;
  CompileResult cr = compileXmtc(source, copts);
  for (const Diagnostic& d : cr.diagnostics)
    if (isRaceDiag(d)) v.staticRace = true;

  Program prog = compileToProgram(source, CompilerOptions{});
  {
    Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
    auto* rc = sim.addObserver(std::make_unique<RaceCheckPlugin>());
    sim.run();
    v.dynamicRace = !rc->clean();
  }
  McResult r = modelCheckSource(source);
  for (const auto& viol : r.violations)
    if (viol.diag.code == DiagCode::kMcRace ||
        viol.diag.code == DiagCode::kMcGrConflict)
      v.mcRace = true;
  v.mcAnyViolation = !r.violations.empty();
  v.mcExhaustive = r.ran && r.allExhaustive();
  return v;
}

TEST(McOracleMatrix, RegistryKernelsAgree) {
  for (const workloads::WorkloadEntry& e : workloads::workloadRegistry()) {
    workloads::WorkloadInstance w{e.name, smallParams(e)};
    // Skip kernels whose inputs come from prepare(): the bare program
    // reads zero-filled arrays, which is still a valid (degenerate)
    // execution for race purposes.
    std::string src = workloads::instanceSource(w);
    OracleVerdicts v = runOracles(src);
    // Exhaustive-clean implies the single-schedule oracle is clean.
    if (v.mcExhaustive && !v.mcAnyViolation) {
      EXPECT_FALSE(v.dynamicRace) << e.name;
    }
    // Any dynamic race must be rediscovered by exploration.
    if (v.dynamicRace) {
      EXPECT_TRUE(v.mcRace) << e.name;
    }
  }
}

TEST(McOracleMatrix, MutantsAgreeAcrossOracles) {
  for (const McMutant& m : disciplineMutants()) {
    OracleVerdicts v = runOracles(m.source);
    if (v.mcExhaustive && !v.mcAnyViolation) {
      EXPECT_FALSE(v.dynamicRace) << m.name;
    }
    if (v.dynamicRace) {
      EXPECT_TRUE(v.mcRace) << m.name;
    }
    // The single-schedule dynamic checker can miss seeded races; the
    // exhaustive explorer must not be weaker than it anywhere.
  }
}

TEST(McOracleMatrix, CheckedInCorpusAgrees) {
  namespace fs = std::filesystem;
  fs::path dir = fs::path(__FILE__).parent_path() / "corpus";
  ASSERT_TRUE(fs::exists(dir));
  int checked = 0;
  for (const auto& ent : fs::directory_iterator(dir)) {
    if (ent.path().extension() != ".xmtc") continue;
    std::ifstream in(ent.path());
    std::stringstream ss;
    ss << in.rdbuf();
    OracleVerdicts v;
    try {
      v = runOracles(ss.str());
    } catch (const CompileError&) {
      continue;  // corpus entries exercising compile errors
    }
    ++checked;
    if (v.mcExhaustive && !v.mcAnyViolation) {
      EXPECT_FALSE(v.dynamicRace) << ent.path().filename();
    }
    if (v.dynamicRace) {
      EXPECT_TRUE(v.mcRace) << ent.path().filename();
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace xmt
