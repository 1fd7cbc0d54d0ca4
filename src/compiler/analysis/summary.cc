#include "src/compiler/analysis/summary.h"

#include <vector>

#include "src/compiler/analysis/callgraph.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/isa/isa.h"

namespace xmt::analysis {

AbsVal applyReturnSummary(const FuncSummary& s,
                          const std::vector<AbsVal>& argVals) {
  const AbsVal& r = s.retSym;
  if (r.kind != AbsVal::Kind::kValue) return AbsVal::unknown();
  if (r.origin == kOriginNone) return r;  // constant or sym+const
  if (!isParamOrigin(r.origin)) return AbsVal::unknown();
  int p = paramOfOrigin(r.origin);
  if (p < 0 || static_cast<std::size_t>(p) >= argVals.size())
    return AbsVal::unknown();
  AbsVal scaled = absMulConst(argVals[static_cast<std::size_t>(p)], r.scale);
  AbsVal rest = r;
  rest.origin = kOriginNone;
  rest.uniqueOrigin = false;
  rest.scale = 0;
  return absAdd(rest, scaled);
}

namespace {

/// True when `v` is a return shape that means the same thing at every call
/// site: an exact constant, a symbol at a fixed offset, or an affine
/// function of one parameter. A constant *range* with no origin is
/// excluded — two executions draw from it independently, so substituting
/// it at call sites would let the race lint compare unrelated calls as if
/// they were the same interval variable.
bool exportableReturn(const AbsVal& v) {
  if (v.kind != AbsVal::Kind::kValue) return false;
  if (v.origin == kOriginNone) return v.off.isConst();
  return isParamOrigin(v.origin);
}

/// Joined numeric range of kV0 over every reachable kRet.
VRange returnRange(const IrFunc& fn, const RangeAnalysis& ra) {
  VRange ret = VRange::empty();
  for (const IrBlock& b : fn.blocks) {
    if (!ra.blockReachable(b.id)) continue;
    for (std::size_t i = 0; i < b.instrs.size(); ++i)
      if (b.instrs[i].op == IOp::kRet)
        ret = ret.joined(ra.rangeAt(b.id, static_cast<int>(i), kV0));
  }
  return ret.isEmpty() ? VRange::full32() : ret;
}

}  // namespace

ModuleSummaries buildModuleSummaries(const IrModule& mod,
                                     AnalysisManager& am) {
  ModuleSummaries out;
  CallGraph cg = buildCallGraph(mod);
  for (std::size_t i = 0; i < mod.funcs.size(); ++i)
    out.byName[mod.funcs[i].name].recursive = cg.recursive[i];

  // Bottom-up: return summaries (params TOP — sound for every call site).
  // Callees are final before any caller is processed, so nested calls
  // compose: f(){return g()+1;} summarizes through g's summary.
  for (int fi : cg.bottomUp) {
    const IrFunc& fn = mod.funcs[static_cast<std::size_t>(fi)];
    FuncSummary& s = out.byName[fn.name];
    if (s.recursive) continue;
    s.ret = returnRange(fn, am.ranges(fn, &out, nullptr));
    const ValueResolver& vr =
        am.values(fn, &out, nullptr, /*paramOrigins=*/true);
    if (exportableReturn(vr.returnValue())) s.retSym = vr.returnValue();
  }

  // Top-down: join the numeric argument ranges observed at every call
  // site into the callee's parameter summary (callers first, so a
  // caller's own refined parameters sharpen what it passes down).
  std::map<std::string, std::array<VRange, kMaxSummaryParams>> seen;
  for (int fi : cg.topDown) {
    const IrFunc& fn = mod.funcs[static_cast<std::size_t>(fi)];
    FuncSummary& s = out.byName[fn.name];
    if (!s.recursive) {
      if (auto it = seen.find(fn.name); it != seen.end())
        for (int p = 0; p < kMaxSummaryParams; ++p)
          if (!it->second[static_cast<std::size_t>(p)].isEmpty())
            s.paramRanges[static_cast<std::size_t>(p)] =
                it->second[static_cast<std::size_t>(p)];
    }
    const RangeAnalysis& ra = am.ranges(fn, &out, out.paramRangesOf(fn.name));
    for (const IrBlock& b : fn.blocks) {
      if (!ra.blockReachable(b.id)) continue;
      for (std::size_t i = 0; i < b.instrs.size(); ++i) {
        const IrInstr& in = b.instrs[i];
        if (in.op != IOp::kCall) continue;
        auto it = seen.find(in.sym);
        if (it == seen.end()) {
          std::array<VRange, kMaxSummaryParams> init;
          init.fill(VRange::empty());
          it = seen.emplace(in.sym, init).first;
        }
        for (std::size_t p = 0; p < in.args.size() &&
                                p < static_cast<std::size_t>(kMaxSummaryParams);
             ++p)
          it->second[p] = it->second[p].joined(
              ra.rangeAt(b.id, static_cast<int>(i), in.args[p]));
      }
    }
  }
  return out;
}

}  // namespace xmt::analysis
