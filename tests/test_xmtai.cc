// xmtai abstract-interpreter tests: the interval domain, interprocedural
// summaries, the value-range lints (bounds / div-zero / shift /
// ps-discipline), the sharpened race lint, the -O2 range-driven
// simplification pass, and the self-validation harnesses the PR promises:
//
//   * a mutation harness — deterministic guard-removal mutants across every
//     lint category; >= 95% of the injected violations must be caught while
//     every unmutated original stays warning-free;
//   * a soundness replay — every statically-silent program is executed in
//     the functional model with a dynamic bounds oracle (no data-segment
//     access may fall outside every symbol extent);
//   * a clean-baseline sweep — all registry workloads compile with every
//     lint on and produce zero diagnostics;
//   * an analysis-output golden over the loop/spawn programs the compile
//     benchmark never reaches (the widening fixpoint), and a property test
//     of RangeAnalysis::rangeAt against a replay of the block prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "src/compiler/analysis/alias.h"
#include "src/common/digest.h"
#include "src/compiler/analysis/dataflow.h"
#include "src/compiler/analysis/mcheck.h"
#include "src/compiler/analysis/summary.h"
#include "src/compiler/analysis/vrange.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/compiler/driver.h"
#include "src/compiler/lower.h"
#include "src/compiler/parser.h"
#include "src/compiler/sema.h"
#include "src/compiler/transforms.h"
#include "src/sim/plugins.h"
#include "src/sim/simulator.h"
#include "src/testing/xmtsmith.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

using analysis::AbsVal;
using analysis::VRange;

// --- VRange: the interval domain -------------------------------------------

TEST(VRangeDomain, HullIntersectionAndEmpty) {
  VRange a = VRange::of(0, 10), b = VRange::of(5, 20);
  EXPECT_EQ(a.joined(b), VRange::of(0, 20));
  EXPECT_EQ(a.intersected(b), VRange::of(5, 10));
  EXPECT_TRUE(VRange::of(0, 3).intersected(VRange::of(5, 9)).isEmpty());
  // Empty is the identity of the hull.
  EXPECT_EQ(VRange::empty().joined(a), a);
}

TEST(VRangeDomain, Int32ArithmeticIsWrapSound) {
  // In-range arithmetic is exact.
  EXPECT_EQ(VRange::add32(VRange::of(1, 2), VRange::of(10, 20)),
            VRange::of(11, 22));
  EXPECT_EQ(VRange::sub32(VRange::of(5, 5), VRange::of(1, 2)),
            VRange::of(3, 4));
  EXPECT_EQ(VRange::mul32(VRange::of(2, 3), VRange::of(4, 4)),
            VRange::of(8, 12));
  // A bound escaping int32 means the machine may wrap: degrade to full32.
  VRange big = VRange::of(INT32_MAX - 1, INT32_MAX);
  EXPECT_TRUE(VRange::add32(big, VRange::of(2, 2)).isFull32());
  EXPECT_TRUE(VRange::mul32(big, big).isFull32());
}

TEST(VRangeDomain, DivisionExcludesZeroDivisor) {
  // div32 over a divisor range straddling zero must still contain every
  // non-trapping quotient.
  VRange q = VRange::div32(VRange::of(100, 100), VRange::of(-2, 3));
  EXPECT_TRUE(q.contains(-100));  // 100 / -1
  EXPECT_TRUE(q.contains(100));   // 100 / 1
  EXPECT_TRUE(q.contains(33));    // 100 / 3
  EXPECT_EQ(VRange::div32(VRange::of(7, 7), VRange::constant(2)),
            VRange::constant(3));
  EXPECT_EQ(VRange::rem32(VRange::of(0, 100), VRange::constant(8)),
            VRange::of(0, 7));
}

TEST(VRangeDomain, MaskedValuesAreBounded) {
  EXPECT_EQ(VRange::and32(VRange::full32(), VRange::constant(63)),
            VRange::of(0, 63));
  VRange nn = VRange::and32(VRange::of(-5, 90), VRange::constant(0xff));
  EXPECT_GE(nn.lo, 0);
  EXPECT_LE(nn.hi, 0xff);
}

TEST(VRangeDomain, WideningJumpsMovedBoundsOnly) {
  VRange prev = VRange::of(0, 10), grown = VRange::of(0, 11);
  VRange w = grown.widened32(prev);
  EXPECT_EQ(w.lo, 0);               // stable bound stays
  EXPECT_EQ(w.hi, INT32_MAX);       // moved bound jumps to the extreme
  VRange winf = grown.widenedInf(prev);
  EXPECT_EQ(winf.lo, 0);
  EXPECT_EQ(winf.hi, VRange::kPosInf);
}

TEST(VRangeDomain, SaturatingOffsetArithmeticIsSticky) {
  VRange inf = VRange::of(0, VRange::kPosInf);
  EXPECT_EQ(inf.addSat(VRange::constant(4)).hi, VRange::kPosInf);
  EXPECT_EQ(inf.mulConstSat(4).hi, VRange::kPosInf);
  EXPECT_EQ(VRange::of(-3, 7).negated(), VRange::of(-7, 3));
  EXPECT_FALSE(inf.strictlyBounded32());
  EXPECT_TRUE(VRange::of(-100, 100).strictlyBounded32());
}

// --- Shared lowering helpers ------------------------------------------------

IrModule lowerForAnalysis(const std::string& source) {
  auto tu = parse(source);
  analyze(*tu);
  inlineParallelCalls(*tu);
  return lowerToIr(*tu);
}

std::vector<Diagnostic> lint(const std::string& source, bool races = false) {
  IrModule mod = lowerForAnalysis(source);
  return analysis::runModuleAnalysis(mod, races, analysis::AiConfig{});
}

bool hasCode(const std::vector<Diagnostic>& ds, DiagCode c) {
  for (const auto& d : ds)
    if (d.code == c) return true;
  return false;
}

// --- Interprocedural summaries ---------------------------------------------

TEST(Summaries, ParamAffineReturnIsSymbolic) {
  IrModule mod = lowerForAnalysis(R"(
int scale4(int i) { return i * 4; }
int G;
int main() { G = scale4(3); return 0; }
)");
  analysis::AnalysisManager am;
  auto sums = analysis::buildModuleSummaries(mod, am);
  const auto* s = sums.find("scale4");
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->recursive);
  ASSERT_TRUE(s->retSym.isValue());
  EXPECT_EQ(s->retSym.origin, analysis::paramOrigin(0));
  EXPECT_EQ(s->retSym.scale, 4);
}

TEST(Summaries, ReturnRangeFromMaskedBody) {
  IrModule mod = lowerForAnalysis(R"(
int clamp16(int i) { return i & 15; }
int G;
int main() { G = clamp16(G); return 0; }
)");
  analysis::AnalysisManager am;
  auto sums = analysis::buildModuleSummaries(mod, am);
  const auto* s = sums.find("clamp16");
  ASSERT_NE(s, nullptr);
  // Sound for every call site: the mask bounds the return regardless of i.
  EXPECT_GE(s->ret.lo, 0);
  EXPECT_LE(s->ret.hi, 15);
}

TEST(Summaries, TopDownParamRangesJoinCallSites) {
  IrModule mod = lowerForAnalysis(R"(
int G;
int id(int i) { return i; }
int main() { G = id(3) + id(7); return 0; }
)");
  analysis::AnalysisManager am;
  auto sums = analysis::buildModuleSummaries(mod, am);
  const auto* s = sums.find("id");
  ASSERT_NE(s, nullptr);
  // Both observed arguments flow in: the joined range covers {3, 7} without
  // ballooning to TOP.
  EXPECT_LE(s->paramRanges[0].lo, 3);
  EXPECT_GE(s->paramRanges[0].hi, 7);
  EXPECT_TRUE(s->paramRanges[0].strictlyBounded32());
}

TEST(Summaries, RecursionKeepsTopSummary) {
  IrModule mod = lowerForAnalysis(R"(
int down(int i) { if (i) { return down(i - 1); } return 0; }
int G;
int main() { G = down(9); return 0; }
)");
  analysis::AnalysisManager am;
  auto sums = analysis::buildModuleSummaries(mod, am);
  const auto* s = sums.find("down");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->recursive);
  EXPECT_TRUE(s->ret.isFull32());
  EXPECT_FALSE(s->retSym.isValue());
}

// --- Value lints: positives -------------------------------------------------

TEST(ValueLints, DefiniteOutOfBoundsAccess) {
  auto ds = lint(R"(
int A[8];
int main() { A[9] = 1; return 0; }
)");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::kBoundsOutOfRange);
  EXPECT_EQ(ds[0].symbol, "A");
}

TEST(ValueLints, SpawnBoundsMakeTidRangesConcrete) {
  // Every thread of spawn(8, 15) indexes outside A[8]: definite.
  auto ds = lint(R"(
int A[8];
int main() { spawn(8, 15) { A[$] = 1; } return 0; }
)");
  EXPECT_TRUE(hasCode(ds, DiagCode::kBoundsOutOfRange));
  // spawn(0, 15) over A[8] partially escapes: the bounded "may" form.
  auto may = lint(R"(
int A[8];
int main() { spawn(0, 15) { A[$] = 1; } return 0; }
)");
  EXPECT_TRUE(hasCode(may, DiagCode::kBoundsMayExceed));
}

TEST(ValueLints, DivisionAndRemainderByZero) {
  auto ds = lint(R"(
int G;
int main() { int z = 0; G = G / z; return 0; }
)");
  EXPECT_TRUE(hasCode(ds, DiagCode::kDivByZero));
  auto may = lint(R"(
int G;
int main() { int d = G & 3; G = G % d; return 0; }
)");
  EXPECT_TRUE(hasCode(may, DiagCode::kDivMayBeZero));
}

TEST(ValueLints, ShiftAmountEscapesMachineRange) {
  auto ds = lint(R"(
int G;
int main() { G = G << 35; return 0; }
)");
  EXPECT_TRUE(hasCode(ds, DiagCode::kShiftRange));
  auto var = lint(R"(
int G;
int main() { int s = (G & 7) + 28; G = G >> s; return 0; }
)");
  EXPECT_TRUE(hasCode(var, DiagCode::kShiftRange));
}

TEST(ValueLints, PsDisciplineIsInterprocedural) {
  auto ds = lint(R"(
psBaseReg C = 0;
int A[8];
int main() { spawn(0, 7) { int z = 0; ps(z, C); A[z & 7] = 1; } return 0; }
)");
  EXPECT_TRUE(hasCode(ds, DiagCode::kPsNonPositive));
  // The non-positive increment arrives through a call: only the summary
  // can see it.
  auto thru = lint(R"(
psBaseReg C = 0;
int A[8];
int step() { return 0 - 3; }
int main() {
  int inc = step();
  spawn(0, 7) { ps(inc, C); A[0] = 0; }
  return 0;
}
)");
  EXPECT_TRUE(hasCode(thru, DiagCode::kPsNonPositive));
}

TEST(ValueLints, PsmIsExemptFromDiscipline) {
  // psm doubles as a general atomic add; negative increments are a feature.
  auto ds = lint(R"(
int C;
int main() { spawn(0, 7) { int d = 0 - 2; psm(d, C); } return 0; }
)");
  EXPECT_FALSE(hasCode(ds, DiagCode::kPsNonPositive));
}

// --- Value lints: negatives (the may-warn gate) -----------------------------

TEST(ValueLints, UnconstrainedValuesNeverMayWarn) {
  // G is TOP everywhere: a range the user never constrained must not fire
  // the bounded "may" lints, however suspicious the expression looks.
  auto ds = lint(R"(
int A[8];
int G;
int main() {
  A[G] = 1;
  int q = 10 / G;
  int s = G << (G & 255);
  G = q + s;
  return 0;
}
)");
  EXPECT_FALSE(hasCode(ds, DiagCode::kBoundsMayExceed));
  EXPECT_FALSE(hasCode(ds, DiagCode::kDivMayBeZero));
  // G & 255 is bounded [0, 255] and does escape [0, 31]: that one fires.
  EXPECT_TRUE(hasCode(ds, DiagCode::kShiftRange));
}

TEST(ValueLints, GuardedIdiomsStaySilent) {
  auto ds = lint(R"(
int A[8];
int G;
int main() {
  spawn(0, 7) {
    A[$] = A[$ & 7] + 1;
    int d = (G & 3) | 1;
    int q = 100 / d;
    int s = G << (G & 31);
    psm(q, A[$]);
    psm(s, A[$]);
  }
  return 0;
}
)");
  EXPECT_TRUE(ds.empty()) << formatDiagnostic(ds[0]);
}

TEST(ValueLints, BranchRefinementProvesBounds) {
  // The lint must exploit the dominating comparison, not just masks.
  auto ds = lint(R"(
int A[8];
int G;
int main() {
  int g = G;
  if (g >= 0) {
    if (g < 8) {
      A[g] = 1;
    }
  }
  return 0;
}
)");
  EXPECT_TRUE(ds.empty()) << formatDiagnostic(ds[0]);
  // Weakening the guard to 12 makes the bounded range escape: it must fire.
  auto weak = lint(R"(
int A[8];
int G;
int main() {
  int g = G;
  if (g >= 0) {
    if (g < 12) {
      A[g] = 1;
    }
  }
  return 0;
}
)");
  EXPECT_TRUE(hasCode(weak, DiagCode::kBoundsMayExceed));
}

// --- The sharpened race lint ------------------------------------------------

std::vector<Diagnostic> raceLint(const std::string& source) {
  return lint(source, /*races=*/true);
}

TEST(RaceSharpening, MaskedTidIndexIsRaceFree) {
  // `A[$ & 63]` with $ in [0, 63] is the identity: provably per-thread.
  auto ds = raceLint(R"(
int A[64];
int main() { spawn(0, 63) { A[($) & 63] = A[($) & 63] + 1; } return 0; }
)");
  EXPECT_TRUE(ds.empty()) << formatDiagnostic(ds[0]);
}

TEST(RaceSharpening, SerialCallResultIsUniformAcrossThreads) {
  // Every thread observes the same call result (broadcast at spawn): the
  // summary resolves `base` and the per-thread offset keeps writes apart.
  auto ds = raceLint(R"(
int A[32];
int off() { return 8; }
int main() {
  int base = off();
  spawn(0, 7) { A[base + $] = $; }
  return 0;
}
)");
  EXPECT_TRUE(ds.empty()) << formatDiagnostic(ds[0]);
}

TEST(RaceSharpening, UnknownAddressIsNamedNotDropped) {
  // A write through a pointer loaded from memory stays unresolvable, but
  // the finding must carry the variable's name for the programmer.
  auto ds = raceLint(R"(
int A[8];
int* P;
int main() { spawn(0, 7) { *P = $; } return 0; }
)");
  ASSERT_TRUE(hasCode(ds, DiagCode::kRaceUnknownAddress));
  for (const auto& d : ds)
    if (d.code == DiagCode::kRaceUnknownAddress) EXPECT_EQ(d.symbol, "P");
}

TEST(RaceSharpening, SeededRacesStillFire) {
  // Precision work must not lose the PR-1 seeded races.
  EXPECT_TRUE(hasCode(raceLint(R"(
int S;
int main() { spawn(0, 3) { S = S + 1; } return 0; }
)"), DiagCode::kRaceWriteWrite));
  EXPECT_TRUE(hasCode(raceLint(R"(
int A[9];
int main() { spawn(0, 7) { A[$] = A[$ + 1]; } return 0; }
)"), DiagCode::kRaceReadWrite));
  EXPECT_TRUE(hasCode(raceLint(R"(
int C;
int B[8];
int main() {
  spawn(0, 7) { int one = 1; B[$] = C; psm(one, C); }
  return 0;
}
)"), DiagCode::kRaceReadWrite));
}

TEST(RaceSharpening, LoopCarriedAffineStrideStaysSymbolic) {
  // The loop carrier p = p + 1 seeded with $ * 8 must keep its shape —
  // base A, the unique tid origin, and a one-sided stride interval — not
  // collapse to an unresolvable address. (The conservative write/write
  // verdict is fine; losing the symbol or the origin is not.)
  IrModule mod = lowerForAnalysis(R"(
int A[64];
int main() {
  spawn(0, 7) {
    int p = $ * 8;
    int i = 0;
    while (i < 8) {
      A[p] = $;
      p = p + 1;
      i = i + 1;
    }
  }
  return 0;
}
)");
  analysis::AnalysisManager am;
  const IrFunc& fn = mod.funcs.at(0);
  analysis::ValueResolver vr(fn, am);
  const analysis::MemSite* store = nullptr;
  for (const auto& m : vr.memorySites())
    if (m.write && m.addr.sym == "A") store = &m;
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->addr.origin, analysis::kOriginTid);
  EXPECT_EQ(store->addr.scale, 32);    // 8 ints per thread
  EXPECT_EQ(store->addr.off.lo, 0);    // stride interval grows upward only
  // And the race lint must report it as a (conservative) race on 'A', not
  // as an unknown address.
  auto ds = raceLint(R"(
int A[64];
int main() {
  spawn(0, 7) {
    int p = $ * 8;
    int i = 0;
    while (i < 8) {
      A[p] = $;
      p = p + 1;
      i = i + 1;
    }
  }
  return 0;
}
)");
  EXPECT_FALSE(hasCode(ds, DiagCode::kRaceUnknownAddress));
}

TEST(RaceSharpening, SerialCarrierIsBoundedByTheNumericEngine) {
  // A no-origin carrier under a direct guard: the offset interval must be
  // cut back by the interval engine instead of staying at the sentinels.
  IrModule mod = lowerForAnalysis(R"(
int A[8];
int main() {
  int q = 0;
  while (q < 8) {
    A[q] = 1;
    q = q + 1;
  }
  return 0;
}
)");
  analysis::AnalysisManager am;
  const IrFunc& fn = mod.funcs.at(0);
  analysis::RangeAnalysis ra(fn, am.cfg(fn), nullptr, nullptr);
  analysis::ValueResolver vr(fn, am, nullptr, &ra);
  const analysis::MemSite* store = nullptr;
  for (const auto& m : vr.memorySites())
    if (m.write && m.addr.sym == "A") store = &m;
  ASSERT_NE(store, nullptr);
  EXPECT_GE(store->addr.off.lo, 0);
  EXPECT_LE(store->addr.off.hi, 8 * 4);  // bounded, not kPosInf
}

TEST(RaceSharpening, OverlappingAffineWindowsStillRace) {
  // Same shape as above but stride 4 < window 8: genuine overlap.
  auto ds = raceLint(R"(
int A[64];
int main() {
  spawn(0, 7) {
    int p = $ * 4;
    int i = 0;
    while (i < 8) {
      A[p] = $;
      p = p + 1;
      i = i + 1;
    }
  }
  return 0;
}
)");
  EXPECT_TRUE(hasCode(ds, DiagCode::kRaceWriteWrite));
}

// --- Driver wiring and --diag-json coverage ---------------------------------

TEST(DriverWiring, ValueLintsAreDefaultOnAndFlagGated) {
  const char* src = R"(
int A[8];
int main() { A[9] = 1; return 0; }
)";
  CompilerOptions opts;  // defaults: lints on, race lint off
  auto r = compileXmtc(src, opts);
  EXPECT_TRUE(hasCode(r.diagnostics, DiagCode::kBoundsOutOfRange));
  opts.lintBounds = false;
  auto off = compileXmtc(src, opts);
  EXPECT_FALSE(hasCode(off.diagnostics, DiagCode::kBoundsOutOfRange));
}

TEST(DriverWiring, DiagJsonCarriesStableValueLintTags) {
  CompilerOptions opts;
  auto r = compileXmtc(R"(
int A[8];
int main() {
  A[12] = 1;
  int z = 0;
  A[0] = 7 / z;
  return 0;
}
)", opts);
  ASSERT_GE(r.diagnostics.size(), 2u);
  std::string json = diagnosticsJson(r.diagnostics);
  EXPECT_NE(json.find("xmt-bounds-oob"), std::string::npos);
  EXPECT_NE(json.find("xmt-div-zero"), std::string::npos);
  for (const auto& d : r.diagnostics) {
    EXPECT_TRUE(isValueLintDiag(d));
    EXPECT_FALSE(isAsmDiag(d));
    EXPECT_FALSE(isRaceDiag(d));
  }
}

// --- -O2 range-driven simplification ----------------------------------------

int countConditionalBranches(const std::string& asmText) {
  int n = 0;
  for (const char* m : {"beq", "bne", "blt", "ble", "bgt", "bge"}) {
    std::string needle = std::string("  ") + m + " ";
    for (std::size_t p = asmText.find(needle); p != std::string::npos;
         p = asmText.find(needle, p + 1))
      ++n;
  }
  return n;
}

TEST(RangeSimplify, TidRangeDecidesBoundsCheckBranch) {
  // The guard `$ < 100` is subsumed by spawn(0, 63): -O2 folds it away.
  const char* src = R"(
int A[64];
int main() {
  spawn(0, 63) {
    if ($ < 100) {
      A[$] = $;
    }
  }
  return 0;
}
)";
  CompilerOptions o1, o2;
  o1.optLevel = 1;
  o2.optLevel = 2;
  int b1 = countConditionalBranches(compileXmtc(src, o1).asmText);
  int b2 = countConditionalBranches(compileXmtc(src, o2).asmText);
  EXPECT_LT(b2, b1);
}

TEST(RangeSimplify, RangeProvenConstantFoldsToLi) {
  // (G & 7) / 8 is always 0 — only the interval engine can see it.
  const char* src = R"(
int G;
int main() { G = (G & 7) / 8; return 0; }
)";
  CompilerOptions o1, o2;
  o1.optLevel = 1;
  o2.optLevel = 2;
  std::string a1 = compileXmtc(src, o1).asmText;
  std::string a2 = compileXmtc(src, o2).asmText;
  EXPECT_NE(a1.find("div"), std::string::npos);
  EXPECT_EQ(a2.find("div"), std::string::npos) << a2;
}

TEST(RangeSimplify, PowerOfTwoDivisionStrengthReduces) {
  // Non-negative dividend: / 8 becomes an arithmetic shift, % 8 a mask.
  const char* src = R"(
int G;
int Q;
int main() {
  int x = G & 1023;
  Q = x / 8 + x % 8;
  return 0;
}
)";
  CompilerOptions o2;
  o2.optLevel = 2;
  std::string a2 = compileXmtc(src, o2).asmText;
  EXPECT_EQ(a2.find("div"), std::string::npos) << a2;
  EXPECT_EQ(a2.find("rem"), std::string::npos) << a2;
}

TEST(RangeSimplify, OptLevelsAgreeArchitecturally) {
  // Differential check in the spirit of test_optlevels: identical results
  // at -O0 / -O1 / -O2 on a program full of foldable guards.
  const char* src = R"(
int A[64];
int R;
int main() {
  spawn(0, 63) {
    if ($ < 100) {
      A[$] = ($ & 63) + ($ / 64) + ($ % 64);
    } else {
      A[0] = 9999;
    }
  }
  int i = 0;
  int acc = 0;
  while (i < 64) {
    acc = acc + A[i];
    i = i + 1;
  }
  R = acc;
  return 0;
}
)";
  std::vector<std::int32_t> results;
  for (int lvl : {0, 1, 2}) {
    CompilerOptions opts;
    opts.optLevel = lvl;
    Program prog = compileToProgram(src, opts);
    Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
    RunResult r = sim.run();
    ASSERT_TRUE(r.halted);
    results.push_back(sim.getGlobal("R"));
  }
  EXPECT_EQ(results[0], 4032);  // ($ & 63) + ($ % 64) = 2*$, summed over 0..63
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

// --- Mutation harness: injected violations must be caught -------------------

struct Mutant {
  std::string name;
  std::string clean;    // guarded original: must lint silent
  std::string mutated;  // guard removed / weakened: must be caught
  DiagCode expect;
};

std::vector<Mutant> mutationSuite() {
  std::vector<Mutant> m;
  auto arr = [](const std::string& body) {
    return "int A[8];\nint G;\nint main() {\n" + body + "\n  return 0;\n}\n";
  };
  // Bounds: definite violations.
  m.push_back({"oob-const-store", arr("  A[7] = 1;"), arr("  A[9] = 1;"),
               DiagCode::kBoundsOutOfRange});
  m.push_back({"oob-negative-index", arr("  A[0] = 1;"),
               arr("  A[0 - 1] = 1;"), DiagCode::kBoundsOutOfRange});
  m.push_back({"oob-const-load", arr("  G = A[6];"), arr("  G = A[12];"),
               DiagCode::kBoundsOutOfRange});
  m.push_back({"oob-spawn-window",
               arr("  spawn(0, 7) { A[$] = 1; }"),
               arr("  spawn(8, 15) { A[$] = 1; }"),
               DiagCode::kBoundsOutOfRange});
  m.push_back({"oob-offset-shifts-out",
               arr("  spawn(0, 5) { A[$ + 2] = 1; }"),
               arr("  spawn(0, 5) { A[$ + 8] = 1; }"),
               DiagCode::kBoundsOutOfRange});
  // Bounds: bounded may-violations.
  m.push_back({"may-widened-mask", arr("  A[G & 7] = 1;"),
               arr("  A[G & 15] = 1;"), DiagCode::kBoundsMayExceed});
  m.push_back({"may-spawn-too-wide",
               arr("  spawn(0, 7) { A[$] = 1; }"),
               arr("  spawn(0, 15) { A[$] = 1; }"),
               DiagCode::kBoundsMayExceed});
  m.push_back({"may-dropped-guard",
               arr("  int g = G;\n  if (g >= 0) { if (g < 8) { A[g] = 1; } }"),
               arr("  int g = G;\n  if (g >= 0) { if (g < 12) { A[g] = 1; } }"),
               DiagCode::kBoundsMayExceed});
  // Division.
  m.push_back({"div-const-zero", arr("  G = G / 2;"),
               arr("  int z = 0;\n  G = G / z;"), DiagCode::kDivByZero});
  m.push_back({"rem-const-zero", arr("  G = G % 2;"),
               arr("  int z = 0;\n  G = G % z;"), DiagCode::kDivByZero});
  m.push_back({"div-dropped-or-one", arr("  int d = (G & 3) | 1;\n  G = G / d;"),
               arr("  int d = G & 3;\n  G = G / d;"),
               DiagCode::kDivMayBeZero});
  m.push_back({"rem-bounded-zero", arr("  int d = (G & 7) + 1;\n  G = G % d;"),
               arr("  int d = (G & 7) - 1;\n  G = G % d;"),
               DiagCode::kDivMayBeZero});
  // Shifts.
  m.push_back({"shift-imm-too-big", arr("  G = G << 3;"),
               arr("  G = G << 35;"), DiagCode::kShiftRange});
  m.push_back({"shift-dropped-mask",
               arr("  int s = (G & 7) + 24;\n  G = G >> s;"),
               arr("  int s = (G & 7) + 28;\n  G = G >> s;"),
               DiagCode::kShiftRange});
  m.push_back({"shift-negative-amount", arr("  G = G << 1;"),
               arr("  int s = 0 - 2;\n  G = G << s;"),
               DiagCode::kShiftRange});
  // ps discipline (one direct, one interprocedural).
  auto psArr = [](const std::string& body) {
    return "psBaseReg C = 0;\nint A[8];\nint G;\nint main() {\n" + body +
           "\n  return 0;\n}\n";
  };
  m.push_back({"ps-zero-increment",
               psArr("  spawn(0, 7) { int c = 1; ps(c, C); A[$] = c; }"),
               psArr("  spawn(0, 7) { int c = 0; ps(c, C); A[$] = c; }"),
               DiagCode::kPsNonPositive});
  m.push_back({"ps-through-call",
               "psBaseReg C = 0;\nint step() { return 2; }\nint main() {\n"
               "  int inc = step();\n  spawn(0, 7) { ps(inc, C); }\n"
               "  return 0;\n}\n",
               "psBaseReg C = 0;\nint step() { return 0 - 2; }\nint main() {\n"
               "  int inc = step();\n  spawn(0, 7) { ps(inc, C); }\n"
               "  return 0;\n}\n",
               DiagCode::kPsNonPositive});
  // Races (the sharpened lint is a consumer too).
  m.push_back({"race-shared-counter",
               arr("  spawn(0, 7) { int one = 1; psm(one, G); }"),
               arr("  spawn(0, 7) { G = G + 1; }"),
               DiagCode::kRaceWriteWrite});
  m.push_back({"race-single-element",
               arr("  spawn(0, 7) { A[$] = $; }"),
               arr("  spawn(0, 7) { A[0] = $; }"),
               DiagCode::kRaceWriteWrite});
  m.push_back({"race-neighbor-read",
               "int A[9];\nint main() { spawn(0, 7) { A[$] = A[$] + 1; }"
               " return 0; }\n",
               "int A[9];\nint main() { spawn(0, 7) { A[$] = A[$ + 1]; }"
               " return 0; }\n",
               DiagCode::kRaceReadWrite});
  return m;
}

TEST(MutationHarness, InjectedViolationsAreCaughtOriginalsStaySilent) {
  auto suite = mutationSuite();
  int caught = 0;
  for (const Mutant& mu : suite) {
    auto cleanDs = lint(mu.clean, /*races=*/true);
    EXPECT_TRUE(cleanDs.empty())
        << mu.name << " original: " << formatDiagnostic(cleanDs[0]);
    auto mutDs = lint(mu.mutated, /*races=*/true);
    if (hasCode(mutDs, mu.expect)) {
      ++caught;
    } else {
      ADD_FAILURE() << mu.name << ": expected "
                    << diagCodeTag(mu.expect) << ", got "
                    << (mutDs.empty() ? std::string("nothing")
                                      : formatDiagnostic(mutDs[0]));
    }
  }
  // The PR's acceptance bar: >= 95% of injected violations detected.
  EXPECT_GE(caught * 100, static_cast<int>(suite.size()) * 95);
}

// --- Soundness replay: static silence implies dynamic safety ----------------

// Dynamic bounds oracle: every data-segment access must land inside some
// symbol's extent. (Frame/stack traffic lives far above the data segment
// and is out of scope here.)
class BoundsOracle : public SimObserver {
 public:
  explicit BoundsOracle(const Program& prog) {
    for (const auto& [name, sym] : prog.symbols)
      if (!sym.isText && sym.size > 0)
        extents_.emplace_back(sym.addr, sym.addr + sym.size);
  }
  void onMemAccess(const MemAccess& a) override {
    if (a.addr < kDataBase || a.addr >= kDataBase + 0x100000u) return;
    for (const auto& [lo, hi] : extents_)
      if (a.addr >= lo && a.addr + a.size <= hi) return;
    ++violations_;
  }
  int violations() const { return violations_; }

 private:
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extents_;
  int violations_ = 0;
};

TEST(SoundnessReplay, StaticallySilentProgramsNeverAccessOutsideExtents) {
  // Every clean mutation original plus a couple of pointer-rich kernels:
  // if the lint said nothing, the functional run must touch only declared
  // objects.
  std::vector<std::string> sources;
  for (const Mutant& mu : mutationSuite()) sources.push_back(mu.clean);
  for (const std::string& src : sources) {
    auto ds = lint(src, /*races=*/true);
    if (!ds.empty()) continue;  // only statically-silent programs replay
    Program prog = compileToProgram(src);
    Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
    auto* oracle = sim.addObserver(std::make_unique<BoundsOracle>(prog));
    RunResult r = sim.run();
    EXPECT_TRUE(r.halted) << src;
    EXPECT_EQ(oracle->violations(), 0) << src;
  }
}

TEST(SoundnessReplay, DynamicOracleAgreesWithStaticBoundsVerdicts) {
  // The static/dynamic agreement matrix for the bounds lint, mirroring the
  // race lint's cross-validation suite: definite static findings must
  // reproduce as dynamic extent violations, silent programs must not.
  struct Bench {
    std::string name;
    std::string source;
    bool oob;
  };
  std::vector<Bench> suite = {
      {"clean-tid-window", R"(
int A[16];
int main() { spawn(0, 15) { A[$] = $; } return 0; }
)", false},
      {"clean-masked", R"(
int A[8];
int G;
int main() { A[G & 7] = 1; return 0; }
)", false},
      {"oob-const", R"(
int A[8];
int G;
int main() { G = A[64]; return 0; }
)", true},
      {"oob-spawn-window", R"(
int A[8];
int main() { spawn(64, 71) { A[$] = 1; } return 0; }
)", true},
  };
  for (const Bench& b : suite) {
    bool staticOob =
        hasCode(lint(b.source), DiagCode::kBoundsOutOfRange);
    EXPECT_EQ(staticOob, b.oob) << b.name << " (static)";
    Program prog = compileToProgram(b.source);
    Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
    auto* oracle = sim.addObserver(std::make_unique<BoundsOracle>(prog));
    RunResult r = sim.run();
    EXPECT_TRUE(r.halted) << b.name;
    EXPECT_EQ(oracle->violations() > 0, b.oob) << b.name << " (dynamic)";
  }
}

// --- Clean-baseline sweep ----------------------------------------------------

TEST(CleanBaseline, AllRegistryWorkloadsLintSilent) {
  CompilerOptions opts;
  opts.analyzeRaces = true;  // race lint + every value lint
  for (const auto& w : workloads::workloadRegistry()) {
    workloads::WorkloadInstance wi;
    wi.name = w.name;
    std::string src = workloads::instanceSource(wi);
    for (int lvl : {0, 1, 2}) {
      opts.optLevel = lvl;
      auto r = compileXmtc(src, opts);
      EXPECT_TRUE(r.diagnostics.empty())
          << w.name << " -O" << lvl << ": "
          << formatDiagnostic(r.diagnostics[0]);
    }
  }
}


// --- Analysis-output golden -------------------------------------------------
//
// One digest per program family over every diagnostic the lints emit and
// the model checker's static facts. The families are the ones the compile
// benchmark never reaches: xmtsmith programs with loops (the widening
// fixpoint) and spawn regions (race lint, mcheck), the registry kernels at
// every optimization level (-O2 runs the range-driven simplifier, so its
// assembly is hashed too), and the regression corpus. A change to the
// analyses' cost must leave these digests as they are.

struct GoldenProgram {
  std::string name;
  std::string source;
};

int countLoops(const std::vector<testing::GenStmtPtr>& body, int& spawns) {
  int loops = 0;
  for (const auto& st : body) {
    if (st->kind == testing::GenStmt::Kind::kFor ||
        st->kind == testing::GenStmt::Kind::kWhile)
      ++loops;
    if (st->kind == testing::GenStmt::Kind::kSpawn) ++spawns;
    loops += countLoops(st->body, spawns) + countLoops(st->elseBody, spawns);
  }
  return loops;
}

/// The first 200 xmtsmith seeds whose program has a loop and a spawn.
const std::vector<GoldenProgram>& smithPrograms() {
  static const std::vector<GoldenProgram> progs = [] {
    std::vector<GoldenProgram> out;
    for (std::uint64_t seed = 1; out.size() < 200; ++seed) {
      testing::GenProgram p = testing::generate(seed);
      int spawns = 0;
      int loops = countLoops(p.main, spawns);
      for (const auto& f : p.funcs) loops += countLoops(f.body, spawns);
      if (loops == 0 || spawns == 0) continue;
      out.push_back({"smith-" + std::to_string(seed), p.render()});
    }
    return out;
  }();
  return progs;
}

const std::vector<GoldenProgram>& corpusPrograms() {
  static const std::vector<GoldenProgram> progs = [] {
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::path(__FILE__).parent_path() / "corpus"))
      if (e.path().extension() == ".xmtc") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::vector<GoldenProgram> out;
    for (const auto& f : files) {
      std::ifstream in(f);
      std::stringstream text;
      text << in.rdbuf();
      out.push_back({f.filename().string(), text.str()});
    }
    return out;
  }();
  return progs;
}

const std::vector<GoldenProgram>& registryPrograms() {
  static const std::vector<GoldenProgram> progs = [] {
    std::vector<GoldenProgram> out;
    for (const auto& w : workloads::workloadRegistry()) {
      workloads::WorkloadInstance wi;
      wi.name = w.name;
      out.push_back({w.name, workloads::instanceSource(wi)});
    }
    return out;
  }();
  return progs;
}

void appendDiagnostics(std::string& text,
                       const std::vector<Diagnostic>& ds) {
  for (const Diagnostic& d : ds)
    text += std::to_string(static_cast<int>(d.code)) + "|" +
            std::to_string(static_cast<int>(d.severity)) + "|" +
            std::to_string(d.line) + "|" + std::to_string(d.otherLine) +
            "|" + d.symbol + "|" + d.message + "\n";
}

template <typename Set>
void appendSet(std::string& text, const char* name, const Set& set) {
  text += name;
  for (const auto& v : set) {
    std::ostringstream os;
    os << ' ' << v;
    text += os.str();
  }
  text += "\n";
}

void appendFacts(std::string& text, const analysis::McStaticFacts& f) {
  appendSet(text, "commutative-lines", f.commutativeAtomicLines);
  appendSet(text, "private-lines", f.privateMemLines);
  appendSet(text, "permuted", f.orderPermutedSymbols);
  appendSet(text, "ps-grs", f.commutativePsGrs);
  appendSet(text, "psm-syms", f.commutativePsmSymbols);
  appendSet(text, "private-syms", f.privateSymbols);
  text += "regions " + std::to_string(f.regionCount) + "\n";
}

/// Race lint + value lints + mcheck facts on compileXmtc's lint lowering.
std::string lintDigest(const std::vector<GoldenProgram>& progs) {
  std::string text;
  for (const GoldenProgram& p : progs) {
    IrModule mod = lowerForAnalysis(p.source);
    text += p.name + "\n";
    appendDiagnostics(text, analysis::runModuleAnalysis(
                                mod, /*races=*/true, analysis::AiConfig{}));
    appendFacts(text, analysis::computeMcFacts(mod));
  }
  return hex64(fnv1a64(text));
}

TEST(AnalysisGolden, SmithLoopAndSpawnPrograms) {
  ASSERT_EQ(smithPrograms().size(), 200u);
  EXPECT_EQ(lintDigest(smithPrograms()), "053d698814e5569a");
}

TEST(AnalysisGolden, CorpusPrograms) {
  ASSERT_GE(corpusPrograms().size(), 5u);
  EXPECT_EQ(lintDigest(corpusPrograms()), "806ade0da188ce95");
}

TEST(AnalysisGolden, RegistryAtEveryOptLevel) {
  std::string text;
  for (const GoldenProgram& p : registryPrograms()) {
    IrModule mod = lowerForAnalysis(p.source);
    text += p.name + "\n";
    appendFacts(text, analysis::computeMcFacts(mod));
    for (int lvl : {0, 1, 2}) {
      CompilerOptions opts;
      opts.analyzeRaces = true;
      opts.optLevel = lvl;
      CompileResult r = compileXmtc(p.source, opts);
      appendDiagnostics(text, r.diagnostics);
      text += hex64(fnv1a64(r.asmText)) + "\n";
    }
  }
  EXPECT_EQ(registryPrograms().size(), 17u);
  EXPECT_EQ(hex64(fnv1a64(text)), "47c50c722d07bbbe");
}

// --- rangeAt against a replay of the block prefix ---------------------------

// The reference: the state entering instruction i of a block is the block's
// entry state with the transfer of instructions [0, i) applied, on an
// ordered map of the registers that are not TOP. This is a test-local copy
// of the transfer function the interval engine applies.
class PrefixReplay {
 public:
  using State = std::map<int, VRange>;

  PrefixReplay(const analysis::RangeAnalysis& ra,
               const analysis::ModuleSummaries& sums)
      : ra_(ra), sums_(sums) {}

  static VRange get(const State& st, int reg) {
    if (reg == 0) return VRange::constant(0);
    auto it = st.find(reg);
    return it == st.end() ? VRange::full32() : it->second;
  }

  void apply(const IrInstr& in, int block, State& st) const {
    auto set = [&](int r, VRange v) {
      if (v.isFull32())
        st.erase(r);
      else
        st[r] = v;
    };
    switch (in.op) {
      case IOp::kCall: {
        clobber(st);
        VRange ret = VRange::full32();
        if (const analysis::FuncSummary* s = sums_.find(in.sym);
            s != nullptr && !s->recursive)
          ret = s->ret;
        set(kV0, ret);
        return;
      }
      case IOp::kSys:
        clobber(st);
        return;
      case IOp::kMtgr:
        st[grKey(in.imm)] = get(st, in.a);
        return;
      case IOp::kPs:
        st.erase(grKey(in.imm));
        break;
      default:
        break;
    }
    if (in.dst < 0) return;
    VRange a = get(st, in.a), b = get(st, in.b);
    VRange imm = VRange::constant(in.imm);
    switch (in.op) {
      case IOp::kLi: set(in.dst, imm); break;
      case IOp::kCopy: set(in.dst, a); break;
      case IOp::kAdd: set(in.dst, VRange::add32(a, b)); break;
      case IOp::kAddi: set(in.dst, VRange::add32(a, imm)); break;
      case IOp::kSub: set(in.dst, VRange::sub32(a, b)); break;
      case IOp::kMul: set(in.dst, VRange::mul32(a, b)); break;
      case IOp::kDiv: set(in.dst, VRange::div32(a, b)); break;
      case IOp::kRem: set(in.dst, VRange::rem32(a, b)); break;
      case IOp::kAnd: set(in.dst, VRange::and32(a, b)); break;
      case IOp::kAndi: set(in.dst, VRange::and32(a, imm)); break;
      case IOp::kOr: set(in.dst, VRange::or32(a, b)); break;
      case IOp::kOri: set(in.dst, VRange::or32(a, imm)); break;
      case IOp::kXor: set(in.dst, VRange::xor32(a, b)); break;
      case IOp::kXori: set(in.dst, VRange::xor32(a, imm)); break;
      case IOp::kNor: set(in.dst, VRange::nor32(a, b)); break;
      case IOp::kSll: set(in.dst, VRange::sll32(a, imm)); break;
      case IOp::kSrl: set(in.dst, VRange::srl32(a, imm)); break;
      case IOp::kSra: set(in.dst, VRange::sra32(a, imm)); break;
      case IOp::kSllv: set(in.dst, VRange::sll32(a, b)); break;
      case IOp::kSrlv: set(in.dst, VRange::srl32(a, b)); break;
      case IOp::kSrav: set(in.dst, VRange::sra32(a, b)); break;
      case IOp::kSlt:
      case IOp::kSlti: {
        VRange rhs = in.op == IOp::kSlt ? b : imm;
        if (a.hi < rhs.lo)
          set(in.dst, VRange::constant(1));
        else if (a.lo >= rhs.hi)
          set(in.dst, VRange::constant(0));
        else
          set(in.dst, VRange::of(0, 1));
        break;
      }
      case IOp::kSltu:
      case IOp::kFeq:
      case IOp::kFlt:
      case IOp::kFle:
        set(in.dst, VRange::of(0, 1));
        break;
      case IOp::kLoadB: set(in.dst, VRange::of(0, 255)); break;
      case IOp::kGetTid: set(in.dst, ra_.tidRangeOf(block)); break;
      case IOp::kMfgr: set(in.dst, get(st, grKey(in.imm))); break;
      default: set(in.dst, VRange::full32()); break;
    }
  }

 private:
  static int grKey(int gr) { return -100 - gr; }

  static void clobber(State& st) {
    for (auto it = st.begin(); it != st.end();)
      it = (it->first <= -100 || (it->first > 0 && it->first < kNumRegs))
               ? st.erase(it)
               : std::next(it);
  }

  const analysis::RangeAnalysis& ra_;
  const analysis::ModuleSummaries& sums_;
};

/// Checks rangeAt at every instruction of `fn` for the instruction's
/// operands, the defs of the instructions around it and two physical
/// registers; returns the number of queries, counting mismatches in `bad`.
long checkRangeAt(const IrFunc& fn, const analysis::RangeAnalysis& ra,
                  const analysis::ModuleSummaries& sums, int& bad,
                  std::string& firstBad) {
  PrefixReplay ref(ra, sums);
  long queries = 0;
  std::vector<int> probe;
  for (const IrBlock& blk : fn.blocks) {
    if (!ra.blockReachable(blk.id)) continue;
    PrefixReplay::State st;
    for (int r = 1; r < fn.nextVreg; ++r) {
      VRange v = ra.rangeAt(blk.id, 0, r);
      if (!v.isFull32()) st[r] = v;
    }
    auto n = static_cast<int>(blk.instrs.size());
    for (int i = 0; i <= n + 1; ++i) {
      probe.assign({0, kV0, kA0});
      if (i < n) analysis::collectUses(blk.instrs[static_cast<std::size_t>(i)],
                                       probe);
      for (int j = std::max(0, i - 4); j < std::min(n, i + 4); ++j)
        probe.push_back(blk.instrs[static_cast<std::size_t>(j)].dst);
      for (int r : probe) {
        ++queries;
        VRange got = ra.rangeAt(blk.id, i, r);
        VRange want = PrefixReplay::get(st, r);
        if (got == want) continue;
        if (bad++ == 0)
          firstBad = fn.name + " block " + std::to_string(blk.id) +
                     " instr " + std::to_string(i) + " reg " +
                     std::to_string(r) + ": [" + std::to_string(got.lo) +
                     ", " + std::to_string(got.hi) + "] vs [" +
                     std::to_string(want.lo) + ", " +
                     std::to_string(want.hi) + "]";
      }
      if (i < n) ref.apply(blk.instrs[static_cast<std::size_t>(i)], blk.id, st);
    }
  }
  return queries;
}

TEST(RangeAtProperty, AgreesWithPrefixReplay) {
  std::vector<GoldenProgram> progs = smithPrograms();
  for (const auto* family : {&corpusPrograms(), &registryPrograms()})
    progs.insert(progs.end(), family->begin(), family->end());
  long queries = 0;
  int seededFuncs = 0, bad = 0;
  std::string firstBad;
  for (const GoldenProgram& p : progs) {
    IrModule mod = lowerForAnalysis(p.source);
    analysis::AnalysisManager am;
    analysis::ModuleSummaries sums = analysis::buildModuleSummaries(mod, am);
    for (const IrFunc& fn : mod.funcs) {
      const analysis::FuncSummary* s = sums.find(fn.name);
      bool hasSeed = fn.nParams > 0 && s != nullptr && !s->recursive;
      seededFuncs += hasSeed ? 1 : 0;
      // Without parameter seeds, then with the summarized ones.
      queries += checkRangeAt(fn, am.ranges(fn, &sums, nullptr), sums, bad,
                              firstBad);
      if (hasSeed)
        queries += checkRangeAt(fn, am.ranges(fn, &sums, s->paramRanges.data()),
                                sums, bad, firstBad);
    }
  }
  EXPECT_GT(seededFuncs, 0);
  EXPECT_GT(queries, 100000);
  EXPECT_EQ(bad, 0) << "first mismatch: " << firstBad;
}
}  // namespace
}  // namespace xmt
