// Interprocedural function summaries for the abstract interpreter.
//
// Built bottom-up over the call graph (callees first), then refined
// top-down (callers push argument ranges into their callees):
//
//   * `ret` — numeric range of the return value, computed by the interval
//     engine with all parameters TOP (sound for every call site);
//   * `retSym` — the return value in the AbsVal algebra with parameters
//     seeded as symbolic origins, so `int at(int i) { return i * 4; }`
//     summarizes as  4*param0  and a caller substitutes its argument's
//     abstract value (this is what removes the race lint's call cliff);
//   * `paramRanges` — per-parameter joined numeric range over every call
//     site observed in the module (TOP for recursive or never-called
//     functions), used by the lints to check helper bodies against the
//     values actually flowing in.
//
// Recursive functions (any non-trivial SCC or self-call) keep the TOP
// summary in every field.
#pragma once

#include <array>
#include <map>
#include <string>

#include "src/compiler/analysis/alias.h"
#include "src/compiler/analysis/vrange.h"
#include "src/compiler/ir.h"

namespace xmt::analysis {

inline constexpr int kMaxSummaryParams = 8;  // the call ABI's register args
/// Physical registers carrying the first 8 arguments (mirrors lower.cc).
inline constexpr int kSummaryArgRegs[kMaxSummaryParams] = {
    kA0, kA1, kA2, kA3, kT0, kT1, kT2, kT3};

struct FuncSummary {
  VRange ret = VRange::full32();
  AbsVal retSym;  // kind == kUnknown when inexpressible; views module strings
  std::array<VRange, kMaxSummaryParams> paramRanges{
      VRange::full32(), VRange::full32(), VRange::full32(), VRange::full32(),
      VRange::full32(), VRange::full32(), VRange::full32(), VRange::full32()};
  bool recursive = false;
};

struct ModuleSummaries {
  std::map<std::string, FuncSummary> byName;
  const FuncSummary* find(const std::string& name) const {
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : &it->second;
  }
  /// The argument seed a function's lints analyze it under: its summarized
  /// parameter ranges, or nullptr (TOP) when it is recursive or unknown.
  const VRange* paramRangesOf(const std::string& name) const {
    const FuncSummary* s = find(name);
    return s != nullptr && !s->recursive ? s->paramRanges.data() : nullptr;
  }
};

/// Applies a callee's symbolic return summary to concrete argument values.
/// Returns Unknown when the summary is inexpressible at this call site; the
/// resolver then materializes an opaque handle for the call result.
AbsVal applyReturnSummary(const FuncSummary& s,
                          const std::vector<AbsVal>& argVals);

/// Builds summaries for every function of the module: bottom-up return
/// summaries, then a top-down argument-range pass. The range and value
/// solutions it computes stay cached in `am` for the lints to reuse.
ModuleSummaries buildModuleSummaries(const IrModule& mod,
                                     AnalysisManager& am);

}  // namespace xmt::analysis
