// xmtai — interprocedural value-range abstract interpretation.
//
// A flow-sensitive interval analysis over the IR CFG: every block entry
// maps vregs to VRange facts; the transfer functions mirror the
// simulator's int32 semantics (vrange.h); conditional branches refine both
// operands along their out-edges; loop heads (back-edge targets) widen
// after a few iterations so carriers converge to one-sided intervals.
// Thread IDs get the spawn bounds of their region ($ in spawn(lo,hi) is in
// [lo.lo, hi.hi]); call results get the callee's summarized return range.
//
// Consumers:
//   * the interprocedural summaries (summary.h);
//   * the default-on lints (bounds / div-by-zero / shift-range /
//     ps-discipline), run through `analyzeModuleValues`;
//   * the race lint (racecheck.h) and the model checker's static facts
//     (mcheck.h);
//   * the -O2 range-driven simplification pass in opt.cc, which builds a
//     summary-free RangeAnalysis per function for the IR it rewrites.
//
// Ownership: within one module the first four share one AnalysisManager
// (dataflow.h), which owns each function's RangeAnalysis and ValueResolver
// (alias.h), computed once per argument seed. `runModuleAnalysis` and
// `computeMcFacts` free a function's solutions once its last consumer is
// done with them.
//
// Lint philosophy (matching the PR-1 race lint): warnings fire only on
// facts the analysis can *bound*. A definite violation (every execution of
// the site is wrong) gets the hard code; a possible violation fires the
// "-may" code only when the range is strictly bounded on both sides — an
// unconstrained value is never reported, which is what keeps the 17
// registry workloads and the fuzz corpus warning-free.
#pragma once

#include <map>
#include <vector>

#include "src/compiler/analysis/dataflow.h"
#include "src/compiler/analysis/vrange.h"
#include "src/compiler/diag.h"
#include "src/compiler/ir.h"

namespace xmt::analysis {

struct ModuleSummaries;

/// Flow-sensitive interval facts for one function. Physical registers are
/// tracked block-locally (plus kV0 across blocks — every return site
/// redefines it after the last call, so its reaching value is exact);
/// other phys regs reset to TOP at block entry and at calls/syscalls.
///
/// Blocks are walked on a flat per-register state; a block-entry state
/// keeps only its registers narrower than TOP, in register order (few
/// registers are, and a function may have hundreds of blocks and over a
/// thousand registers). One forward sweep over the converged entry states
/// then records every instruction's operand ranges and the range it leaves
/// in the register it defines, so queries replay nothing. Consumers share
/// one solution per IR version and argument seed through
/// AnalysisManager::ranges.
class RangeAnalysis {
 public:
  /// `paramRanges` (nullable) seeds the incoming argument registers;
  /// `summaries` (nullable) resolves call-site return ranges.
  RangeAnalysis(const IrFunc& fn, const Cfg& cfg,
                const ModuleSummaries* summaries, const VRange* paramRanges);

  /// Range of `reg` in the state entering instruction `instr` of `block`
  /// (an `instr` past the end: the block's exit state). Constant time for
  /// the instruction's operands and the previous instruction's def; any
  /// other register walks back to its last def in the block, or reads the
  /// block-entry state. full32 on unreachable blocks.
  VRange rangeAt(int block, int instr, int reg) const;

  /// Thread-ID range of a parallel block (full32 for serial blocks or when
  /// the spawn bounds are unknown).
  const VRange& tidRangeOf(int block) const;

  bool blockReachable(int block) const {
    return reached_[static_cast<std::size_t>(block)];
  }

 private:
  struct State;
  /// A register's range: an operand read, or one non-TOP register of a
  /// block-entry state.
  struct Fact {
    int reg;
    VRange range;
  };

  void transferInstr(const IrInstr& in, int block, State& st) const;

  const IrFunc& fn_;
  const ModuleSummaries* sums_;
  std::size_t nregs_;
  std::vector<std::vector<Fact>> entry_;  // block -> non-TOP entry facts
  std::vector<bool> reached_;
  std::vector<int> regionOf_;      // parallel block -> region entry block
  std::map<int, VRange> tidOfRegion_;
  std::vector<std::size_t> firstInstr_;  // block -> its first instruction
  std::vector<VRange> defRange_;   // instruction -> value it leaves behind
  std::vector<std::size_t> firstUse_;    // instruction -> its first use
  std::vector<Fact> uses_;         // operand ranges, instruction order
  VRange full_ = VRange::full32();
};

/// Which value lints to run (all default-on, mirroring -W flags).
struct AiConfig {
  bool bounds = true;        // -Wxmt-bounds
  bool divZero = true;       // -Wxmt-div-zero
  bool shift = true;         // -Wxmt-shift
  bool psDiscipline = true;  // -Wxmt-ps-discipline
  bool any() const { return bounds || divZero || shift || psDiscipline; }
};

/// Runs the value lints over the module (builds summaries internally).
std::vector<Diagnostic> analyzeModuleValues(const IrModule& mod,
                                            const AiConfig& cfg = {});

/// Combined analysis entry for the driver: builds summaries once and runs
/// the race lint and/or the value lints over them. Diagnostics are sorted
/// by source line.
std::vector<Diagnostic> runModuleAnalysis(const IrModule& mod, bool races,
                                          const AiConfig& cfg);

}  // namespace xmt::analysis
