#include "src/compiler/analysis/xmtai.h"

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "src/compiler/analysis/alias.h"
#include "src/compiler/analysis/racecheck.h"
#include "src/compiler/analysis/summary.h"
#include "src/isa/isa.h"

namespace xmt::analysis {

namespace {

// Fixpoint visits to one block before moved bounds are widened.
constexpr int kWidenVisits = 3;

/// The register an instruction leaves a new value in: its dst, or v0 for a
/// call (the callee's return).
int definedReg(const IrInstr& in) {
  return in.op == IOp::kCall ? kV0 : in.dst;
}

// Refines (a, b) under "rel(a, b) is `taken`"; empty result = edge dead.
std::pair<VRange, VRange> refineBranch(Op rel, bool taken, VRange a,
                                       VRange b) {
  // Normalize to the taken sense of a relation.
  if (!taken) {
    switch (rel) {
      case Op::kBeq: rel = Op::kBne; break;
      case Op::kBne: rel = Op::kBeq; break;
      case Op::kBlt: rel = Op::kBge; break;
      case Op::kBge: rel = Op::kBlt; break;
      case Op::kBle: rel = Op::kBgt; break;
      case Op::kBgt: rel = Op::kBle; break;
      default: return {a, b};
    }
  }
  switch (rel) {
    case Op::kBeq: {
      VRange m = a.intersected(b);
      return {m, m};
    }
    case Op::kBne:
      // Intervals can only exclude an endpoint equal to a constant side.
      if (b.isConst()) {
        if (a.lo == b.lo) a.lo += 1;
        if (a.hi == b.lo) a.hi -= 1;
      }
      if (a.isConst()) {
        if (b.lo == a.lo) b.lo += 1;
        if (b.hi == a.lo) b.hi -= 1;
      }
      return {a, b};
    case Op::kBlt:
      return {{a.lo, std::min(a.hi, b.hi - 1)},
              {std::max(b.lo, a.lo + 1), b.hi}};
    case Op::kBle:
      return {{a.lo, std::min(a.hi, b.hi)}, {std::max(b.lo, a.lo), b.hi}};
    case Op::kBgt:
      return {{std::max(a.lo, b.lo + 1), a.hi},
              {b.lo, std::min(b.hi, a.hi - 1)}};
    case Op::kBge:
      return {{std::max(a.lo, b.lo), a.hi}, {b.lo, std::min(b.hi, a.hi)}};
    default:
      return {a, b};
  }
}

}  // namespace

// A flat per-register state: one range per register, full32 meaning
// nothing is known, plus the global registers, tracked so the spawn-bound
// staging (mtgr gr6/gr7 ... spawn) is visible to the engine.
struct RangeAnalysis::State {
  std::vector<VRange> regs;
  std::array<VRange, kNumGlobalRegs> grs;

  VRange get(int reg) const {
    if (reg == 0) return VRange::constant(0);
    if (reg < 0 || static_cast<std::size_t>(reg) >= regs.size())
      return VRange::full32();
    return regs[static_cast<std::size_t>(reg)];
  }
  void set(int reg, const VRange& v) {
    if (reg <= 0 || static_cast<std::size_t>(reg) >= regs.size()) return;
    regs[static_cast<std::size_t>(reg)] = v.isFull32() ? VRange::full32() : v;
  }
  VRange gr(int g) const {
    return g >= 0 && g < kNumGlobalRegs ? grs[static_cast<std::size_t>(g)]
                                        : VRange::full32();
  }
  void setGr(int g, const VRange& v) {
    if (g >= 0 && g < kNumGlobalRegs) grs[static_cast<std::size_t>(g)] = v;
  }
  /// Drops the transient staging: every physical register (v0 too unless
  /// `keepV0`) and every global register.
  void clobber(bool keepV0) {
    for (int r = 1; r < kNumRegs; ++r)
      if (!(keepV0 && r == kV0))
        regs[static_cast<std::size_t>(r)] = VRange::full32();
    grs.fill(VRange::full32());
  }
  void load(const std::vector<Fact>& entry) {
    std::fill(regs.begin(), regs.end(), VRange::full32());
    for (const Fact& f : entry) regs[static_cast<std::size_t>(f.reg)] = f.range;
    grs.fill(VRange::full32());
  }
};

void RangeAnalysis::transferInstr(const IrInstr& in, int block,
                                  State& st) const {
  auto get = [&](int r) { return st.get(r); };
  auto set = [&](int r, const VRange& v) { st.set(r, v); };
  switch (in.op) {
    case IOp::kCall: {
      st.clobber(/*keepV0=*/false);
      VRange ret = VRange::full32();
      if (sums_ != nullptr) {
        if (const FuncSummary* s = sums_->find(in.sym);
            s != nullptr && !s->recursive)
          ret = s->ret;
      }
      set(kV0, ret);
      return;
    }
    case IOp::kSys:
      st.clobber(/*keepV0=*/false);
      return;
    case IOp::kMtgr:
      st.setGr(in.imm, get(in.a));
      return;
    case IOp::kPs:
      st.setGr(in.imm, VRange::full32());  // the counter advanced
      break;
    default:
      break;
  }
  if (in.dst < 0) return;
  VRange a = get(in.a), b = get(in.b);
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
    case IOp::kLoadB:
      set(in.dst, VRange::of(0, 255));  // lbu: byte loads are unsigned
      break;
    case IOp::kGetTid:
      set(in.dst, tidRangeOf(block));
      break;
    case IOp::kMfgr: set(in.dst, st.gr(in.imm)); break;
    case IOp::kPs:
    case IOp::kPsm:
    case IOp::kLoadW:
    case IOp::kLa:
    case IOp::kFrameAddr:
    default:
      set(in.dst, VRange::full32());
      break;
  }
}

RangeAnalysis::RangeAnalysis(const IrFunc& fn, const Cfg& cfg,
                             const ModuleSummaries* summaries,
                             const VRange* paramRanges)
    : fn_(fn),
      sums_(summaries),
      nregs_(static_cast<std::size_t>(std::max(fn.nextVreg, kNumRegs))) {
  std::size_t n = fn.blocks.size();
  entry_.assign(n, {});
  reached_.assign(n, false);
  regionOf_.assign(n, -1);

  // Structural region map: parallel blocks -> their spawn body entry.
  for (const IrBlock& b : fn.blocks) {
    if (b.instrs.empty() || b.instrs.back().op != IOp::kSpawn) continue;
    int entry = b.instrs.back().t1;
    std::deque<int> work{entry};
    while (!work.empty()) {
      int cur = work.front();
      work.pop_front();
      auto ci = static_cast<std::size_t>(cur);
      if (regionOf_[ci] >= 0 || !fn.blocks[ci].parallel) continue;
      regionOf_[ci] = entry;
      for (int s : cfg.succ[ci]) work.push_back(s);
    }
  }

  // RPO position for worklist ordering.
  std::vector<int> rpoPos(n, 0);
  for (std::size_t i = 0; i < cfg.rpo.size(); ++i)
    rpoPos[static_cast<std::size_t>(cfg.rpo[i])] = static_cast<int>(i);

  if (paramRanges != nullptr) {
    for (int i = 0; i < fn.nParams && i < kMaxSummaryParams; ++i)
      if (!paramRanges[i].isFull32())
        entry_[0].push_back({kSummaryArgRegs[i], paramRanges[i]});
    std::sort(entry_[0].begin(), entry_[0].end(),
              [](const Fact& x, const Fact& y) { return x.reg < y.reg; });
  }
  reached_[0] = true;

  State st, out;
  st.regs.resize(nregs_);
  out.regs.resize(nregs_);
  std::vector<Fact> merged;
  std::vector<int> visits(n, 0);
  std::set<std::pair<int, int>> work;  // (rpo position, block)
  work.insert({rpoPos[0], 0});

  // Joins `out` into the entry state of `succ`, widening after a few
  // visits. `refinedA`/`refinedB` are registers the branch just refined:
  // they are exempt, since their bound is derived from the other operand's
  // (converging) range, and widening would throw the refinement away — the
  // classic `while (q < 8)` carrier would jump from [0,7] to [0, 2^31).
  auto propagate = [&](int succ, State& o, int refinedA, int refinedB) {
    o.clobber(/*keepV0=*/true);
    auto si = static_cast<std::size_t>(succ);
    std::vector<Fact>& target = entry_[si];
    if (!reached_[si]) {
      reached_[si] = true;
      for (std::size_t r = 1; r < nregs_; ++r)
        if (!o.regs[r].isFull32())
          target.push_back({static_cast<int>(r), o.regs[r]});
      work.insert({rpoPos[si], succ});
      return;
    }
    // A register TOP on either side stays TOP, so the join keeps a subset
    // of the target's registers, in order.
    merged.clear();
    for (const Fact& f : target) {
      VRange j = f.range.joined(o.get(f.reg));
      if (!j.isFull32()) merged.push_back({f.reg, j});
    }
    auto same = [&] {
      if (merged.size() != target.size()) return false;
      for (std::size_t i = 0; i < merged.size(); ++i)
        if (merged[i].reg != target[i].reg ||
            !(merged[i].range == target[i].range))
          return false;
      return true;
    };
    if (same()) return;
    if (++visits[si] > kWidenVisits) {
      std::size_t kept = 0, t = 0;
      for (Fact f : merged) {
        while (target[t].reg != f.reg) ++t;
        if (f.reg != refinedA && f.reg != refinedB) {
          f.range = f.range.widened32(target[t].range);
          if (f.range.isFull32()) continue;
        }
        merged[kept++] = f;
      }
      merged.resize(kept);
    }
    if (!same()) {
      target.swap(merged);
      work.insert({rpoPos[si], succ});
    }
  };

  while (!work.empty()) {
    int b = work.begin()->second;
    work.erase(work.begin());
    auto bi = static_cast<std::size_t>(b);
    const IrBlock& blk = fn_.blocks[bi];
    st.load(entry_[bi]);
    for (const IrInstr& in : blk.instrs)
      if (!in.isTerminator() && in.op != IOp::kSpawn)
        transferInstr(in, b, st);

    // Spawn-bound capture: tid of the region is [gr6.lo, gr7.hi] as staged.
    if (!blk.instrs.empty() && blk.instrs.back().op == IOp::kSpawn) {
      VRange lo = st.gr(kGrNextId);
      VRange hi = st.gr(kGrHigh);
      VRange tid = VRange::of(lo.lo, hi.hi);
      if (tid.isEmpty()) tid = VRange::full32();
      auto [it, fresh] =
          tidOfRegion_.try_emplace(blk.instrs.back().t1, tid);
      if (!fresh) {
        VRange joinedTid = it->second.joined(tid);
        if (!(joinedTid == it->second)) {
          it->second = joinedTid;
          // Region blocks already visited must observe the wider tid.
          for (std::size_t r = 0; r < n; ++r)
            if (regionOf_[r] == it->first && reached_[r])
              work.insert({rpoPos[r], static_cast<int>(r)});
        }
      }
    }

    if (!blk.instrs.empty() && blk.instrs.back().op == IOp::kBr) {
      const IrInstr& br = blk.instrs.back();
      VRange a = st.get(br.a), b2 = st.get(br.b);
      for (bool taken : {true, false}) {
        auto [ra, rb] = refineBranch(br.rel, taken, a, b2);
        if (ra.isEmpty() || rb.isEmpty()) continue;  // edge cannot execute
        out.regs = st.regs;
        out.grs = st.grs;
        int refinedA = -1, refinedB = -1;
        if (br.a != 0) {
          out.set(br.a, ra);
          if (!ra.isFull32()) refinedA = br.a;
        }
        if (br.b != 0) {
          out.set(br.b, rb);
          if (!rb.isFull32()) refinedB = br.b;
        }
        propagate(taken ? br.t1 : br.t2, out, refinedA, refinedB);
      }
    } else {
      for (int s : cfg.succ[bi]) {
        out.regs = st.regs;
        out.grs = st.grs;
        propagate(s, out, -1, -1);
      }
    }
  }

  // One forward sweep over the converged entry states records what each
  // instruction reads and what it defines.
  firstInstr_.assign(n + 1, 0);
  for (std::size_t b = 0; b < n; ++b)
    firstInstr_[b + 1] = firstInstr_[b] + fn.blocks[b].instrs.size();
  defRange_.assign(firstInstr_[n], VRange::full32());
  firstUse_.assign(firstInstr_[n] + 1, 0);
  std::vector<int> regs;
  for (std::size_t b = 0; b < n; ++b) {
    const IrBlock& blk = fn.blocks[b];
    std::size_t base = firstInstr_[b];
    if (reached_[b]) st.load(entry_[b]);
    for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
      firstUse_[base + i] = uses_.size();
      if (!reached_[b]) continue;
      const IrInstr& in = blk.instrs[i];
      regs.clear();
      collectUses(in, regs);
      for (int r : regs) uses_.push_back({r, st.get(r)});
      transferInstr(in, static_cast<int>(b), st);
      if (definedReg(in) >= 0) defRange_[base + i] = st.get(definedReg(in));
    }
  }
  firstUse_[firstInstr_[n]] = uses_.size();
}

VRange RangeAnalysis::rangeAt(int block, int instr, int reg) const {
  auto bi = static_cast<std::size_t>(block);
  if (block < 0 || bi >= reached_.size() || !reached_[bi])
    return VRange::full32();
  if (reg == 0) return VRange::constant(0);
  if (reg < 0 || static_cast<std::size_t>(reg) >= nregs_)
    return VRange::full32();
  const std::vector<IrInstr>& instrs = fn_.blocks[bi].instrs;
  instr = std::clamp(instr, 0, static_cast<int>(instrs.size()));
  std::size_t at = firstInstr_[bi] + static_cast<std::size_t>(instr);
  if (static_cast<std::size_t>(instr) < instrs.size())
    for (std::size_t u = firstUse_[at]; u < firstUse_[at + 1]; ++u)
      if (uses_[u].reg == reg) return uses_[u].range;
  bool phys = reg < kNumRegs;
  for (int j = instr - 1; j >= 0; --j) {
    const IrInstr& in = instrs[static_cast<std::size_t>(j)];
    if (definedReg(in) == reg)
      return defRange_[firstInstr_[bi] + static_cast<std::size_t>(j)];
    if (phys && (in.op == IOp::kCall || in.op == IOp::kSys))
      return VRange::full32();
  }
  const std::vector<Fact>& entry = entry_[bi];
  auto it = std::lower_bound(
      entry.begin(), entry.end(), reg,
      [](const Fact& f, int r) { return f.reg < r; });
  return it != entry.end() && it->reg == reg ? it->range : VRange::full32();
}

const VRange& RangeAnalysis::tidRangeOf(int block) const {
  int region = regionOf_[static_cast<std::size_t>(block)];
  if (region >= 0) {
    auto it = tidOfRegion_.find(region);
    if (it != tidOfRegion_.end()) return it->second;
  }
  return full_;
}

namespace {

/// Byte size of each data symbol of a module (the first definition of a
/// label wins).
using SymbolExtents = std::unordered_map<std::string_view, std::int64_t>;

SymbolExtents symbolExtents(const IrModule& mod) {
  SymbolExtents out;
  for (const IrData& d : mod.data) {
    std::int64_t size = 0;
    switch (d.kind) {
      case IrData::Kind::kWords:
        size = static_cast<std::int64_t>(d.words.size()) * 4;
        break;
      case IrData::Kind::kSpace:
        size = static_cast<std::int64_t>(d.spaceBytes);
        break;
      case IrData::Kind::kAscii:
        size = static_cast<std::int64_t>(d.str.size()) + 1;
        break;
    }
    out.try_emplace(d.label, size);
  }
  return out;
}

// "Informative" interval: both ends derived from real constraints rather
// than full32 / the widening sentinels. The may-lints only speak when the
// user actually constrained the value (same philosophy as the race lint's
// resolved-addresses-only rule) — an unconstrained full32 fact says
// nothing about the program and would warn on every unchecked input.
bool informative(const VRange& r) {
  return !r.isEmpty() && r.strictlyBounded32();
}

class Linter {
 public:
  Linter(const AiConfig& cfg, const ModuleSummaries& sums,
         const SymbolExtents& extents, AnalysisManager& am,
         std::vector<Diagnostic>& out)
      : cfg_(cfg), sums_(sums), extents_(extents), am_(am), out_(out) {}

  void runFunction(const IrFunc& fn) {
    const VRange* seed = sums_.paramRangesOf(fn.name);
    const RangeAnalysis& ra = am_.ranges(fn, &sums_, seed);
    if (cfg_.divZero || cfg_.shift || cfg_.psDiscipline) {
      for (const IrBlock& b : fn.blocks) {
        if (!ra.blockReachable(b.id)) continue;
        for (std::size_t i = 0; i < b.instrs.size(); ++i)
          lintInstr(b.instrs[i], [&](int reg) {
            return ra.rangeAt(b.id, static_cast<int>(i), reg);
          });
      }
    }
    if (cfg_.bounds) lintBounds(fn, ra, am_.values(fn, &sums_, seed));
  }

 private:
  void report(DiagCode code, int line, std::string symbol,
              std::string message) {
    if (!seen_.insert({static_cast<int>(code), line}).second) return;
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kWarning;
    d.line = line;
    d.symbol = std::move(symbol);
    d.message = std::move(message);
    out_.push_back(std::move(d));
  }

  static std::string rangeStr(const VRange& r) {
    return "[" + std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
  }

  /// `rangeOf(reg)`: the register's range entering `in`.
  template <typename RangeOf>
  void lintInstr(const IrInstr& in, const RangeOf& rangeOf) {
    switch (in.op) {
      case IOp::kDiv:
      case IOp::kRem: {
        if (!cfg_.divZero) return;
        const char* what = in.op == IOp::kDiv ? "division" : "remainder";
        VRange b = rangeOf(in.b);
        if (b.isConst() && b.lo == 0) {
          report(DiagCode::kDivByZero, in.srcLine, "",
                 std::string(what) + " by zero (traps at runtime)");
        } else if (informative(b) && b.contains(0)) {
          report(DiagCode::kDivMayBeZero, in.srcLine, "",
                 std::string(what) + " divisor range " + rangeStr(b) +
                     " contains zero");
        }
        return;
      }
      case IOp::kSllv:
      case IOp::kSrlv:
      case IOp::kSrav: {
        if (!cfg_.shift) return;
        VRange b = rangeOf(in.b);
        if (informative(b) && (b.lo < 0 || b.hi > 31))
          report(DiagCode::kShiftRange, in.srcLine, "",
                 "shift amount range " + rangeStr(b) +
                     " escapes [0, 31]; the hardware masks to 5 bits");
        return;
      }
      case IOp::kSll:
      case IOp::kSrl:
      case IOp::kSra:
        if (cfg_.shift && (in.imm < 0 || in.imm > 31))
          report(DiagCode::kShiftRange, in.srcLine, "",
                 "shift amount " + std::to_string(in.imm) +
                     " escapes [0, 31]; the hardware masks to 5 bits");
        return;
      case IOp::kPs: {
        // `ps` (global-register prefix-sum) is the paper's index-allocation
        // primitive; an increment that is never positive cannot allocate.
        // `psm` is deliberately exempt: it doubles as a general atomic add,
        // where negative increments are meaningful.
        if (!cfg_.psDiscipline) return;
        VRange inc = rangeOf(in.a);
        if (!inc.isEmpty() && inc.hi <= 0)
          report(DiagCode::kPsNonPositive, in.srcLine, "",
                 "prefix-sum increment range " + rangeStr(inc) +
                     " is never positive; ps cannot hand out distinct "
                     "indices this way");
        return;
      }
      default:
        return;
    }
  }

  /// Blocks dominated by a branch the interval domain cannot encode: a
  /// reg-reg compare where neither side is a single constant. `if ($ >= d)
  /// T[$] = S[$ - d]` is in-bounds *because* of that relation, which no
  /// per-register interval carries — may-warnings are suppressed under such
  /// guards (definite errors never are).
  static std::vector<bool> relationallyGuarded(const IrFunc& fn,
                                               const Cfg& cfg,
                                               const RangeAnalysis& ra) {
    std::size_t nb = cfg.numBlocks();
    std::vector<int> guards;
    for (std::size_t b = 0; b < nb; ++b) {
      if (!cfg.reachable[b]) continue;
      const auto& ins = fn.blocks[b].instrs;
      for (std::size_t i = 0; i < ins.size(); ++i) {
        const IrInstr& in = ins[i];
        if (in.op != IOp::kBr || in.a < 0 || in.b < 0) continue;
        if (!ra.rangeAt(static_cast<int>(b), static_cast<int>(i), in.a)
                 .isConst() &&
            !ra.rangeAt(static_cast<int>(b), static_cast<int>(i), in.b)
                 .isConst())
          guards.push_back(static_cast<int>(b));
      }
    }
    std::vector<bool> out(nb, false);
    if (guards.empty()) return out;
    // Iterative dominator sets over bitsets (functions are small).
    std::vector<BitSet> dom(nb, BitSet(nb));
    for (std::size_t b = 1; b < nb; ++b) dom[b].fill();
    dom[0].set(0);
    bool changed = true;
    while (changed) {
      changed = false;
      for (int b : cfg.rpo) {
        if (b == 0) continue;
        BitSet nd(nb);
        nd.fill();
        bool any = false;
        for (int p : cfg.pred[static_cast<std::size_t>(b)]) {
          if (!cfg.reachable[static_cast<std::size_t>(p)]) continue;
          nd.intersectWith(dom[static_cast<std::size_t>(p)]);
          any = true;
        }
        if (!any) nd.clear();
        nd.set(static_cast<std::size_t>(b));
        if (!(nd == dom[static_cast<std::size_t>(b)])) {
          dom[static_cast<std::size_t>(b)] = nd;
          changed = true;
        }
      }
    }
    for (std::size_t b = 0; b < nb; ++b)
      for (int g : guards)
        if (static_cast<int>(b) != g &&
            dom[b].test(static_cast<std::size_t>(g)))
          out[b] = true;
    return out;
  }

  void lintBounds(const IrFunc& fn, const RangeAnalysis& ra,
                  const ValueResolver& vr) {
    std::vector<bool> relGuarded = relationallyGuarded(fn, am_.cfg(fn), ra);
    const ReachingDefsResult& rd = am_.reachingDefs(fn);
    // Copies of each opaque origin: the defs whose abstract value is
    // exactly `origin + c` carry the origin value in their register.
    std::vector<std::vector<int>> copiesOf(rd.sites.size());
    for (std::size_t sid = 0; sid < rd.sites.size(); ++sid) {
      const AbsVal& dv = vr.valueOfDef(static_cast<int>(sid));
      if (dv.isValue() && dv.base == AbsVal::Base::kNone && dv.origin >= 0 &&
          static_cast<std::size_t>(dv.origin) < copiesOf.size() &&
          dv.scale == 1 && dv.off.isConst())
        copiesOf[static_cast<std::size_t>(dv.origin)].push_back(
            static_cast<int>(sid));
    }
    for (const MemSite& m : vr.memorySites()) {
      if (!ra.blockReachable(m.block)) continue;
      if (!m.addr.isValue() || m.addr.base != AbsVal::Base::kSym) continue;
      auto extent = extents_.find(m.addr.sym);
      if (extent == extents_.end()) continue;
      std::int64_t size = extent->second;
      // Concretize the origin term where a numeric range is known.
      VRange term = VRange::constant(0);
      if (m.addr.origin == kOriginTid) {
        term = ra.tidRangeOf(m.block).mulConstSat(m.addr.scale);
      } else if (m.addr.origin >= 0) {
        // Opaque handle / ps result: its def site is still a register the
        // interval engine may bound (a loaded value under a guard — the
        // `if (0 <= g && g < n) A[g]` idiom).
        const DefSite& osite =
            rd.sites[static_cast<std::size_t>(m.addr.origin)];
        VRange n = ra.rangeAt(osite.block, osite.instr + 1, osite.vreg);
        // The interval engine keys refinements by register, and a guard may
        // test a *copy* of the origin (`int g = G; if (g < n) A[g]`: the
        // branch refines g's home register, not the load's). Where such a
        // copy still solely owns its register at the access, the use-point
        // state (which has seen the guard) bounds the origin too.
        for (int sid : copiesOf[static_cast<std::size_t>(m.addr.origin)]) {
          const AbsVal& dv = vr.valueOfDef(sid);
          const DefSite& s = rd.sites[static_cast<std::size_t>(sid)];
          bool solo;
          if (s.block == m.block && s.instr < m.instr) {
            solo = true;
            for (int i = s.instr + 1; solo && i < m.instr; ++i)
              if (fn.blocks[m.block].instrs[static_cast<std::size_t>(i)]
                      .dst == s.vreg)
                solo = false;
          } else {
            solo = rd.flow.in[static_cast<std::size_t>(m.block)].test(
                static_cast<std::size_t>(sid));
            auto it = rd.sitesOfVreg.find(s.vreg);
            if (solo && it != rd.sitesOfVreg.end())
              for (int other : it->second)
                if (other != sid &&
                    rd.flow.in[static_cast<std::size_t>(m.block)].test(
                        static_cast<std::size_t>(other)))
                  solo = false;
            for (int i = 0; solo && i < m.instr; ++i)
              if (fn.blocks[m.block].instrs[static_cast<std::size_t>(i)]
                      .dst == s.vreg)
                solo = false;
          }
          if (!solo) continue;
          VRange atUse = ra.rangeAt(m.block, m.instr, s.vreg)
                             .addSat(VRange::constant(-dv.off.lo));
          VRange cut = n.intersected(atUse);
          if (!cut.isEmpty()) n = cut;
        }
        if (!n.strictlyBounded32()) continue;
        term = n.mulConstSat(m.addr.scale);
      } else if (m.addr.origin != kOriginNone) {
        continue;  // summary param origin: no concrete range here
      }
      VRange addr = term.addSat(m.addr.off);
      if (addr.isEmpty()) continue;
      std::int64_t first = addr.lo, last = addr.hi + m.sizeBytes - 1;
      const char* what = m.atomic ? "psm" : m.write ? "store" : "load";
      std::string sym(m.addr.sym);
      if (last < 0 || first >= size) {
        report(DiagCode::kBoundsOutOfRange, m.srcLine, sym,
               std::string(what) + " at byte offset " + rangeStr(addr) +
                   " is entirely outside '" + sym + "' (" +
                   std::to_string(size) + " bytes)");
      } else if (informative(addr) && (first < 0 || last >= size) &&
                 !(relGuarded[static_cast<std::size_t>(m.block)] &&
                   !m.addr.off.isConst())) {
        report(DiagCode::kBoundsMayExceed, m.srcLine, sym,
               std::string(what) + " at byte offset " + rangeStr(addr) +
                   " can exceed '" + sym + "' (" +
                   std::to_string(size) + " bytes)");
      }
    }
  }

  const AiConfig& cfg_;
  const ModuleSummaries& sums_;
  const SymbolExtents& extents_;
  AnalysisManager& am_;
  std::vector<Diagnostic>& out_;
  std::set<std::pair<int, int>> seen_;  // (code, line) dedup
};

}  // namespace

std::vector<Diagnostic> analyzeModuleValues(const IrModule& mod,
                                            const AiConfig& cfg) {
  return runModuleAnalysis(mod, /*races=*/false, cfg);
}

std::vector<Diagnostic> runModuleAnalysis(const IrModule& mod, bool races,
                                          const AiConfig& cfg) {
  std::vector<Diagnostic> out;
  if (!races && !cfg.any()) return out;
  AnalysisManager am;
  ModuleSummaries sums = buildModuleSummaries(mod, am);
  SymbolExtents extents = symbolExtents(mod);
  Linter linter(cfg, sums, extents, am, out);
  std::vector<Diagnostic> raceDiags;
  for (const IrFunc& fn : mod.funcs) {
    if (cfg.any()) linter.runFunction(fn);
    if (races) analyzeFunctionRaces(fn, am, raceDiags, &sums);
    am.invalidate(fn);  // the function's last consumer is done
  }
  std::sort(raceDiags.begin(), raceDiags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.line < b.line;
            });
  out.insert(out.end(), raceDiags.begin(), raceDiags.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace xmt::analysis
