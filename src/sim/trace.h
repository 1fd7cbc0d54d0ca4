// Execution traces.
//
// "XMTSim generates execution traces at various detail levels. At the
// functional level, only the results of executed assembly instructions are
// displayed. The more detailed cycle-accurate level reports the
// cycle-accurate components through which the instruction and data packages
// travel. Traces can be limited to specific instructions in the assembly
// input and/or to specific TCUs." (Section III-E)
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "src/sim/observer.h"

namespace xmt {

/// kFunctional lists committed instructions; kCycle adds the package hops
/// through the icn, cache and dram components.
enum class TraceLevel { kFunctional, kCycle };

/// Text trace with the paper's filters: by TCU and by opcode.
class TextTrace : public SimObserver {
 public:
  explicit TextTrace(TraceLevel level = TraceLevel::kFunctional)
      : level_(level) {}

  /// Restrict to one (cluster, tcu); pass (-2, -1) for "all" (default).
  void filterTcu(int cluster, int tcu) {
    fCluster_ = cluster;
    fTcu_ = tcu;
  }
  /// Restrict to one opcode; Op::kOpCount means "all".
  void filterOp(Op op) { fOp_ = op; }

  void onCommit(const CommitEvent& ev) override;
  void onPackage(const char* stage, const Package& pkg,
                 SimTime time) override;

  std::string str() const { return out_.str(); }
  std::uint64_t eventCount() const { return count_; }

 private:
  /// Applies the TCU filter, then appends one line.
  void emit(SimTime time, int cluster, int tcu, const char* stage,
            std::uint32_t pc, const Instruction* in, std::uint32_t addr);

  TraceLevel level_;
  int fCluster_ = -2;  // -2 = any (kMasterCluster is -1)
  int fTcu_ = -1;
  Op fOp_ = Op::kOpCount;
  std::ostringstream out_;
  std::uint64_t count_ = 0;
};

}  // namespace xmt
