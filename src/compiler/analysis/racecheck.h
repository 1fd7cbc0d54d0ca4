// Spawn-region race detector.
//
// For every spawn region (blocks reachable from a kSpawn body entry while
// `parallel` holds) the detector buckets the region's memory operations by
// symbolic base and checks each pair — including a site against a second
// virtual thread executing the same site — for cross-thread overlap using
// the AbsVal algebra from alias.h:
//
//   * two accesses at  base + s*u + C1  and  base + s*u + C2  (C1, C2
//     offset *intervals*) on the same unique origin are disjoint across
//     threads iff |s| >= size + max|c1 - c2|; a loop-carried offset that
//     widened to an infinity sentinel makes the delta unbounded, which
//     conservatively reports overlap;
//   * accesses whose origin term is the same for every thread (no origin,
//     or a *uniform* origin — defined in serial code, hence broadcast) hit
//     thread-invariant addresses, so they conflict exactly when their byte
//     intervals can intersect;
//   * psm-to-psm pairs are exempt (the paper's sanctioned concurrent
//     update); psm against a plain access is still a race;
//   * a write whose address has a known base (global symbol / frame) but an
//     opaque per-thread index — a value the algebra could not express,
//     defined inside the region — is deliberately *not* reported: it is an
//     unresolved index into a known array, the interprocedural analogue of
//     the PR-1 rule that ignores unresolved reads. This is the documented
//     imprecision that keeps bfs/fft-style indirect updates free of false
//     positives. Only writes with no known base at all are reported as
//     "unknown address", named after the source variable when the IR
//     carries one (IrFunc::vregNames / the AbsVal hint);
//   * unresolved *reads* are ignored, as before.
//
// Frame-local accesses are checked like a shared symbol ("<frame>"): the
// functional model broadcasts the master's stack pointer to every virtual
// thread, so spawn-body writes through it are genuinely shared.
//
// With `summaries` (see summary.h) call sites are no longer a cliff: the
// callee's return value is substituted into the caller's value algebra,
// so `dist[at(i)]`-style helpers resolve instead of degrading to unknown.
#pragma once

#include <vector>

#include "src/compiler/analysis/dataflow.h"
#include "src/compiler/diag.h"
#include "src/compiler/ir.h"

namespace xmt::analysis {

struct ModuleSummaries;

/// Runs the detector over one function (no-op unless it spawns), on the
/// value solution `am` holds for it (see AnalysisManager::values).
/// Diagnostics are appended with Severity::kWarning; the caller decides
/// whether warnings are fatal. runModuleAnalysis runs it per function.
void analyzeFunctionRaces(const IrFunc& fn, AnalysisManager& am,
                          std::vector<Diagnostic>& out,
                          const ModuleSummaries* summaries = nullptr);

/// Feeds model-checking verdicts back into the lint output: when xmtmc has
/// *exhaustively* verified every spawn region of the program free of races
/// and order dependence (`verified`), the static detector's "may race"
/// warnings are demonstrably over-approximations — they are downgraded to
/// Severity::kNote with an explanatory suffix instead of being dropped, so
/// the imprecision stays visible without failing -Werror builds. Verdicts
/// from non-exhaustive (budget-capped) runs must not be applied; pass
/// verified = false and the diagnostics are returned untouched.
void applyExplorationVerdicts(std::vector<Diagnostic>& diags, bool verified);

}  // namespace xmt::analysis
