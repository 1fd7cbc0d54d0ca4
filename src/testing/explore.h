// xmtmc: exhaustive spawn-region interleaving exploration with DPOR.
//
// The functional simulator serializes spawn regions, so every existing
// oracle — the static race lint, the dynamic RaceCheckPlugin, xmtsmith
// differential fuzzing — observes exactly one schedule per run, and "no
// violation found" never means "no reachable interleaving violates it".
// McExplorer closes that gap: installed as the FuncModel's RegionRunner it
// intercepts each spawn region, snapshots the architectural state (memory,
// global registers, printf transcript) and enumerates the causally distinct
// visible-operation interleavings by stateless replay under
// Flanagan/Godefroid dynamic partial-order reduction with sleep sets.
//
// Verified properties, per region:
//   * data-race freedom — any cross-thread pair of overlapping accesses
//     with a write that is not psm-against-psm (the paper's sanctioned
//     concurrent update) is reported as kMcRace, matching RaceCheckPlugin
//     semantics, with the schedule prefix that exposed it as a witness;
//   * global-register discipline — mtgr inside a region, or a gr read
//     racing a concurrent ps, is kMcGrConflict;
//   * order-independence — the digest of memory + global registers after
//     every complete trace must equal the first (serial-order) trace's;
//     a divergence is kMcOrderDependent with the full schedule as witness.
//     The printf transcript and statically order-permuted symbols (ps-
//     allocated compaction targets; see mcheck.h) are masked.
//
// Static pruning: pairs of ps/psm operations at source lines proven
// order-commutative by computeMcFacts never generate backtrack points —
// this is what collapses a ps-counter region from n! traces to one. Pairs
// of accesses at provably thread-private lines skip straight to a
// disjointness cross-check; an overlap there means the static algebra was
// wrong and is reported as kMcStaticUnsound.
//
// Budgets are explicit: a region that exceeds maxTracesPerRegion /
// maxTransitionsPerRegion is reported kMcBudgetExhausted (never a silent
// pass) and falls back to seeded random schedule perturbation, which runs
// the same per-trace checks without the exhaustiveness claim.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/compiler/analysis/mcheck.h"
#include "src/compiler/diag.h"
#include "src/sim/funcmodel.h"
#include "src/workloads/registry.h"

namespace xmt::testing {

struct McOptions {
  std::uint64_t maxTracesPerRegion = 4096;
  std::uint64_t maxTransitionsPerRegion = 2000000;
  std::uint64_t maxInstructions = 200000000;  // functional runaway guard
  bool staticPrune = true;    // use McStaticFacts to shrink the dependence
  std::uint64_t perturbSeed = 1;  // seed for the budget-exhausted fallback
  int perturbRounds = 8;          // random schedules after exhaustion
  std::set<std::string> digestExclude;  // extra masked symbols (registry)
};

/// One region's exploration statistics.
struct McRegionReport {
  std::uint64_t spawnSeq = 0;
  std::uint32_t threads = 0;
  std::uint64_t traces = 0;       // complete interleavings executed
  std::uint64_t transitions = 0;  // visible operations executed, all traces
  std::uint64_t sleepSkips = 0;   // sleep-set-blocked prefixes abandoned
  std::uint64_t prunedPairs = 0;  // dependence tests short-cut statically
  /// log10 of the naive interleaving count (the multinomial over the
  /// serial trace's per-thread step counts) — the denominator of the
  /// reduction factor.
  double naiveLog10 = 0.0;
  bool exhaustive = false;  // every Mazurkiewicz trace within budget
  int perturbRounds = 0;    // fallback schedules run after exhaustion
};

struct McViolation {
  Diagnostic diag;
  std::uint64_t spawnSeq = 0;
  /// Witness: thread index (region-local, 0-based) per visible step, from
  /// region entry up to and including the violating step. Replaying it
  /// through RegionExec reproduces the violation deterministically.
  std::vector<std::uint32_t> schedule;
};

struct McResult {
  bool ran = false;  // runFunctional completed (halted or not)
  bool halted = false;
  std::int32_t haltCode = 0;
  std::uint64_t instructions = 0;
  std::string output;
  std::string error;  // SimError text when the run aborted
  std::vector<McViolation> violations;
  std::vector<McRegionReport> regions;
  /// Violations plus budget notes, in discovery order (for --diag-json).
  std::vector<Diagnostic> diagnostics;

  bool clean() const { return violations.empty() && error.empty(); }
  bool allExhaustive() const {
    for (const McRegionReport& r : regions)
      if (!r.exhaustive) return false;
    return true;
  }
  /// Exhaustively verified free of violations.
  bool verified() const { return ran && clean() && allExhaustive(); }
};

/// "t0*3 t1*2 t0" — run-length rendering of a schedule witness.
std::string renderSchedule(const std::vector<std::uint32_t>& schedule);

/// The DPOR region runner. Install on a FuncModel with setRegionRunner,
/// run, then read violations()/regions(). `facts` may be null (no static
/// pruning). Not reusable across runs: make a fresh explorer per program.
class McExplorer : public RegionRunner {
 public:
  McExplorer(const Program& prog, const McOptions& opts,
             const analysis::McStaticFacts* facts);

  std::uint64_t runRegion(FuncModel& fm, const Context& master,
                          std::uint32_t startPc, std::uint32_t low,
                          std::uint32_t high, std::uint64_t spawnSeq,
                          std::uint64_t instrBudget, SimObserver* observer,
                          Stats* stats) override;

  const std::vector<McViolation>& violations() const { return violations_; }
  const std::vector<McRegionReport>& regions() const { return regions_; }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  struct PairClass {
    bool dependent = false;
    bool pruned = false;  // independent by a static fact
    DiagCode violation = DiagCode::kDollarOutsideSpawn;  // sentinel
    bool hasViolation = false;
  };
  struct StepRec {
    std::size_t thread = 0;
    RegionExec::VisibleOp op;
    std::vector<std::uint32_t> clockAfter;
  };
  struct Node {
    std::size_t chosen = 0;
    StepRec step;
    std::vector<std::size_t> done;
    std::vector<std::size_t> backtrack;
    std::vector<std::size_t> sleepBase;
  };

  PairClass classifyPair(const RegionExec::VisibleOp& a,
                         const RegionExec::VisibleOp& b) const;
  void recordViolation(DiagCode code, const RegionExec::VisibleOp& earlier,
                       const RegionExec::VisibleOp& later,
                       std::uint64_t spawnSeq,
                       const std::vector<std::uint32_t>& schedule);
  void explore(FuncModel& fm, const Context& master, std::uint32_t startPc,
               std::uint32_t low, std::uint32_t high, std::uint64_t spawnSeq,
               std::uint64_t instrBudget, const FuncModel::ArchState& entry,
               McRegionReport& rep);
  void perturb(FuncModel& fm, const Context& master, std::uint32_t startPc,
               std::uint32_t low, std::uint32_t high, std::uint64_t spawnSeq,
               std::uint64_t instrBudget, const FuncModel::ArchState& entry,
               McRegionReport& rep);
  std::uint64_t digestState(const FuncModel& fm) const;
  std::string symbolAt(std::uint32_t addr) const;

  const Program& prog_;
  McOptions opts_;
  const analysis::McStaticFacts* facts_;
  std::vector<McViolation> violations_;
  std::vector<McRegionReport> regions_;
  std::vector<Diagnostic> diagnostics_;
  std::set<std::string> emitted_;  // violation dedup keys
  std::uint64_t refDigest_ = 0;    // current region's serial-trace digest
  bool haveRef_ = false;
  // Data symbols sorted by address, for violation naming.
  std::vector<std::pair<std::uint32_t, std::pair<std::uint32_t, std::string>>>
      dataSyms_;
};

/// Model-checks a loaded program image. `facts` may be null; `prepare`
/// (may be empty) fills input globals before the run.
McResult modelCheckProgram(
    const Program& prog, const McOptions& opts = {},
    const analysis::McStaticFacts* facts = nullptr,
    const std::function<void(FuncModel&)>& prepare = {});

/// Compiles `source` with default options, computes the static facts on
/// the lint lowering, and model-checks the result.
McResult modelCheckSource(const std::string& source,
                          const McOptions& opts = {});

/// Model-checks a registry workload instance: builds its source and input
/// (instancePrepare), merges the entry's digestExclude set into the
/// order-independence mask, and runs under a functional Simulator so any
/// attached plugins observe the committed replay.
McResult modelCheckWorkload(const workloads::WorkloadInstance& w,
                            McOptions opts = {});

/// A discipline-violation mutant for the self-validation harness: XMTC
/// source derived from a clean template by one seeded mutation.
struct McMutant {
  std::string name;
  std::string source;
  bool shouldViolate = true;  // false: the unmutated clean original
};

/// The fixed mutant corpus: clean originals (shouldViolate = false) plus
/// >= 20 seeded ps/psm/ordering violations that xmtmc must catch with a
/// concrete schedule witness.
std::vector<McMutant> disciplineMutants();

}  // namespace xmt::testing
