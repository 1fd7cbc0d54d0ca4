#include "src/compiler/opt.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/common/error.h"
#include "src/compiler/analysis/dataflow.h"
#include "src/compiler/analysis/xmtai.h"

namespace xmt {

using analysis::collectUses;
using analysis::successors;

namespace {

bool isPure(IOp op) {
  switch (op) {
    case IOp::kAdd: case IOp::kSub: case IOp::kMul: case IOp::kDiv:
    case IOp::kRem: case IOp::kAnd: case IOp::kOr: case IOp::kXor:
    case IOp::kNor: case IOp::kSlt: case IOp::kSltu: case IOp::kSllv:
    case IOp::kSrlv: case IOp::kSrav: case IOp::kFadd: case IOp::kFsub:
    case IOp::kFmul: case IOp::kFdiv: case IOp::kFeq: case IOp::kFlt:
    case IOp::kFle: case IOp::kAddi: case IOp::kAndi: case IOp::kOri:
    case IOp::kXori: case IOp::kSlti: case IOp::kSll: case IOp::kSrl:
    case IOp::kSra: case IOp::kCvtif: case IOp::kCvtfi: case IOp::kLi:
    case IOp::kLa: case IOp::kCopy: case IOp::kGetTid: case IOp::kFrameAddr:
    case IOp::kMfgr:
      return true;
    default:
      return false;
  }
}

// kDiv/kRem can trap on zero; exclude them from folding removal when the
// divisor is an unknown value, and from DCE entirely (conservative).
bool isRemovableIfDead(const IrInstr& in) {
  if (in.op == IOp::kDiv || in.op == IOp::kRem) return false;
  if (isPure(in.op)) return true;
  if ((in.op == IOp::kLoadW || in.op == IOp::kLoadB) && !in.volatileMem)
    return true;
  return false;
}

void removeUnreachable(IrFunc& fn) {
  analysis::Cfg cfg = analysis::buildCfg(fn);
  for (std::size_t i = 0; i < fn.blocks.size(); ++i)
    if (!cfg.reachable[i]) fn.blocks[i].instrs.clear();
}

std::int32_t foldAlu(IOp op, std::int32_t a, std::int32_t b, bool& ok) {
  ok = true;
  auto ua = static_cast<std::uint32_t>(a);
  auto ub = static_cast<std::uint32_t>(b);
  switch (op) {
    case IOp::kAdd: case IOp::kAddi: return static_cast<std::int32_t>(ua + ub);
    case IOp::kSub: return static_cast<std::int32_t>(ua - ub);
    case IOp::kMul:
      return static_cast<std::int32_t>(static_cast<std::int64_t>(a) * b);
    case IOp::kAnd: case IOp::kAndi: return a & b;
    case IOp::kOr: case IOp::kOri: return a | b;
    case IOp::kXor: case IOp::kXori: return a ^ b;
    case IOp::kNor: return ~(a | b);
    case IOp::kSlt: case IOp::kSlti: return a < b ? 1 : 0;
    case IOp::kSltu: return ua < ub ? 1 : 0;
    case IOp::kSllv: case IOp::kSll:
      return static_cast<std::int32_t>(ua << (ub & 31));
    case IOp::kSrlv: case IOp::kSrl:
      return static_cast<std::int32_t>(ua >> (ub & 31));
    case IOp::kSrav: case IOp::kSra: return a >> (ub & 31);
    case IOp::kDiv:
      if (b == 0) { ok = false; return 0; }
      if (a == INT32_MIN && b == -1) return a;
      return a / b;
    case IOp::kRem:
      if (b == 0) { ok = false; return 0; }
      if (a == INT32_MIN && b == -1) return 0;
      return a % b;
    default:
      ok = false;
      return 0;
  }
}

bool isImmForm(IOp op) {
  switch (op) {
    case IOp::kAddi: case IOp::kAndi: case IOp::kOri: case IOp::kXori:
    case IOp::kSlti: case IOp::kSll: case IOp::kSrl: case IOp::kSra:
      return true;
    default:
      return false;
  }
}

bool isRegAlu(IOp op) {
  switch (op) {
    case IOp::kAdd: case IOp::kSub: case IOp::kMul: case IOp::kDiv:
    case IOp::kRem: case IOp::kAnd: case IOp::kOr: case IOp::kXor:
    case IOp::kNor: case IOp::kSlt: case IOp::kSltu: case IOp::kSllv:
    case IOp::kSrlv: case IOp::kSrav:
      return true;
    default:
      return false;
  }
}

// Block-local constant folding and copy propagation. Only vregs >= 32 are
// tracked (physical registers are clobbered by calls and convention).
void localValueNumbering(IrFunc& fn) {
  for (auto& blk : fn.blocks) {
    std::map<int, std::int32_t> constOf;
    std::map<int, int> copyOf;
    auto resolve = [&](int v) {
      auto it = copyOf.find(v);
      return it == copyOf.end() ? v : it->second;
    };
    auto constVal = [&](int v, std::int32_t& out) {
      if (v == 0) {  // the zero register
        out = 0;
        return true;
      }
      auto it = constOf.find(v);
      if (it == constOf.end()) return false;
      out = it->second;
      return true;
    };
    auto invalidate = [&](int v) {
      constOf.erase(v);
      copyOf.erase(v);
      for (auto it = copyOf.begin(); it != copyOf.end();) {
        if (it->second == v) it = copyOf.erase(it);
        else ++it;
      }
    };
    for (auto& in : blk.instrs) {
      if (in.a >= 32) in.a = resolve(in.a);
      if (in.b >= 32) in.b = resolve(in.b);
      for (auto& v : in.args)
        if (v >= 32) v = resolve(v);

      // Fold register-ALU with constant operands.
      if (isRegAlu(in.op) && in.dst >= 32) {
        std::int32_t ca, cb;
        bool hasA = constVal(in.a, ca), hasB = constVal(in.b, cb);
        if (hasA && hasB) {
          bool ok;
          std::int32_t r = foldAlu(in.op, ca, cb, ok);
          if (ok) {
            in.op = IOp::kLi;
            in.imm = r;
            in.a = in.b = -1;
          }
        }
      }
      if (isImmForm(in.op) && in.dst >= 32) {
        std::int32_t ca;
        if (constVal(in.a, ca)) {
          bool ok;
          std::int32_t r = foldAlu(in.op, ca, in.imm, ok);
          if (ok) {
            in.op = IOp::kLi;
            in.imm = r;
            in.a = -1;
          }
        }
      }
      if (in.op == IOp::kCopy && in.dst >= 32) {
        std::int32_t c;
        if (constVal(in.a, c)) {
          in.op = IOp::kLi;
          in.imm = c;
          in.a = -1;
        }
      }
      // Fold constant branches.
      if (in.op == IOp::kBr) {
        std::int32_t ca, cb;
        if (constVal(in.a, ca) && constVal(in.b, cb)) {
          bool taken = false;
          switch (in.rel) {
            case Op::kBeq: taken = ca == cb; break;
            case Op::kBne: taken = ca != cb; break;
            case Op::kBlt: taken = ca < cb; break;
            case Op::kBle: taken = ca <= cb; break;
            case Op::kBgt: taken = ca > cb; break;
            case Op::kBge: taken = ca >= cb; break;
            default: break;
          }
          in.op = IOp::kJmp;
          in.t1 = taken ? in.t1 : in.t2;
          in.t2 = -1;
          in.a = in.b = -1;
        }
      }

      // Record facts about the def.
      if (in.dst >= 0) {
        invalidate(in.dst);
        if (in.dst >= 32) {
          if (in.op == IOp::kLi) constOf[in.dst] = in.imm;
          else if (in.op == IOp::kCopy && in.a >= 32) copyOf[in.dst] = in.a;
        }
      }
    }
  }
}

void deadCodeElim(IrFunc& fn) {
  // Backward liveness over vregs (including physical for safety), solved by
  // the shared dataflow engine.
  analysis::Cfg cfg = analysis::buildCfg(fn);
  analysis::LivenessResult live = analysis::computeLiveness(fn, cfg);
  // Remove dead pure instructions, iterating within each block so a removed
  // instruction can in turn kill the instructions feeding it.
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    IrBlock& b = fn.blocks[bi];
    analysis::BitSet liveNow = live.flow.out[bi];
    std::vector<IrInstr> kept;
    kept.reserve(b.instrs.size());
    std::vector<int> uses;
    for (std::size_t i = b.instrs.size(); i-- > 0;) {
      IrInstr& ins = b.instrs[i];
      bool dead = ins.dst >= 32 &&
                  !liveNow.test(static_cast<std::size_t>(ins.dst)) &&
                  isRemovableIfDead(ins);
      if (dead) continue;
      if (ins.op == IOp::kCopy && ins.dst == ins.a) continue;
      if (ins.dst >= 0) liveNow.reset(static_cast<std::size_t>(ins.dst));
      uses.clear();
      collectUses(ins, uses);
      for (int u : uses) liveNow.set(static_cast<std::size_t>(u));
      kept.push_back(std::move(ins));
    }
    std::reverse(kept.begin(), kept.end());
    b.instrs = std::move(kept);
  }
}

}  // namespace

bool rangeSimplify(IrFunc& fn) {
  analysis::RangeAnalysis ra(fn, analysis::buildCfg(fn), nullptr, nullptr);
  using analysis::VRange;

  // Collect rewrites against the unmutated ranges, then apply: every
  // rewrite is semantics-preserving on its own, so applying them together
  // is safe even though later ranges were computed over the original ops.
  bool changed = false;
  for (IrBlock& b : fn.blocks) {
    if (!ra.blockReachable(b.id)) continue;
    for (std::size_t i = 0; i < b.instrs.size(); ++i) {
      IrInstr& in = b.instrs[i];
      auto idx = static_cast<int>(i);
      auto rangeOf = [&](int reg) { return ra.rangeAt(b.id, idx, reg); };

      if (in.op == IOp::kBr) {
        VRange a = rangeOf(in.a), b2 = rangeOf(in.b);
        if (a.isEmpty() || b2.isEmpty()) continue;
        int decided = -1;  // 0 = never taken, 1 = always taken
        switch (in.rel) {
          case Op::kBeq:
            if (a.isConst() && b2.isConst() && a.lo == b2.lo) decided = 1;
            else if (a.hi < b2.lo || b2.hi < a.lo) decided = 0;
            break;
          case Op::kBne:
            if (a.hi < b2.lo || b2.hi < a.lo) decided = 1;
            else if (a.isConst() && b2.isConst() && a.lo == b2.lo) decided = 0;
            break;
          case Op::kBlt:
            if (a.hi < b2.lo) decided = 1;
            else if (a.lo >= b2.hi) decided = 0;
            break;
          case Op::kBle:
            if (a.hi <= b2.lo) decided = 1;
            else if (a.lo > b2.hi) decided = 0;
            break;
          case Op::kBgt:
            if (a.lo > b2.hi) decided = 1;
            else if (a.hi <= b2.lo) decided = 0;
            break;
          case Op::kBge:
            if (a.lo >= b2.hi) decided = 1;
            else if (a.hi < b2.lo) decided = 0;
            break;
          default:
            break;
        }
        if (decided < 0) continue;
        in.op = IOp::kJmp;
        in.t1 = decided == 1 ? in.t1 : in.t2;
        in.t2 = -1;
        in.a = in.b = -1;
        changed = true;
        continue;
      }

      if (in.dst < 32) continue;

      // Any pure computation whose result range collapsed to one value.
      // kDiv/kRem are implicitly trap-free here: div32/rem32 only produce
      // a constant when the divisor range excludes zero.
      if (isPure(in.op) && in.op != IOp::kLi && in.op != IOp::kCopy &&
          in.op != IOp::kLa && in.op != IOp::kFrameAddr) {
        VRange r = ra.rangeAt(b.id, idx + 1, in.dst);
        if (r.isConst()) {
          in.op = IOp::kLi;
          in.imm = static_cast<std::int32_t>(r.lo);
          in.a = in.b = -1;
          changed = true;
          continue;
        }
      }

      if (in.op == IOp::kDiv || in.op == IOp::kRem) {
        VRange d = rangeOf(in.b);
        if (!d.isConst()) continue;
        std::int64_t c = d.lo;
        if (c == 1) {
          if (in.op == IOp::kDiv) {
            in.op = IOp::kCopy;
          } else {
            in.op = IOp::kLi;
            in.imm = 0;
            in.a = -1;
          }
          in.b = -1;
          changed = true;
        } else if (c > 1 && (c & (c - 1)) == 0 && rangeOf(in.a).lo >= 0) {
          // x / 2^k == x >> k and x % 2^k == x & (2^k - 1) for x >= 0.
          if (in.op == IOp::kDiv) {
            in.op = IOp::kSra;
            in.imm = static_cast<std::int32_t>(__builtin_ctzll(
                static_cast<unsigned long long>(c)));
          } else {
            in.op = IOp::kAndi;
            in.imm = static_cast<std::int32_t>(c - 1);
          }
          in.b = -1;
          changed = true;
        }
        continue;
      }

      // Mask the operand range already satisfies.
      if (in.op == IOp::kAndi && in.imm >= 0) {
        VRange a = rangeOf(in.a);
        if (!a.isEmpty() && a.lo >= 0 && a.hi <= in.imm) {
          in.op = IOp::kCopy;
          in.imm = 0;
          changed = true;
        }
      }
    }
  }
  return changed;
}

void optimizeIr(IrFunc& fn, int level) {
  removeUnreachable(fn);
  if (level <= 0) return;
  for (int round = 0; round < 3; ++round) {
    localValueNumbering(fn);
    deadCodeElim(fn);
  }
  if (level >= 2 && rangeSimplify(fn)) {
    removeUnreachable(fn);
    localValueNumbering(fn);
    deadCodeElim(fn);
  }
}

void applyNonBlockingStores(IrFunc& fn) {
  bool anyStores = false;
  for (auto& b : fn.blocks)
    for (auto& in : b.instrs)
      if (in.op == IOp::kStoreW && !in.volatileMem) {
        in.nonBlocking = true;
        anyStores = true;
      } else if (in.op == IOp::kStoreB) {
        anyStores = true;
      }
  if (!anyStores) return;
  // Fences before ps/psm/spawn: the XMT memory model orders memory
  // operations relative to prefix-sums and spawn boundaries (Section IV-A).
  // Dirty tracking is block-local and assumes dirty at block entry.
  for (auto& b : fn.blocks) {
    std::vector<IrInstr> out;
    out.reserve(b.instrs.size());
    bool dirty = true;
    for (auto& in : b.instrs) {
      bool needsFence =
          in.op == IOp::kPs || in.op == IOp::kPsm || in.op == IOp::kSpawn;
      if (needsFence && dirty) {
        IrInstr f(IOp::kFence);
        f.srcLine = in.srcLine;
        out.push_back(f);
        dirty = false;
      }
      if (in.op == IOp::kFence) dirty = false;
      if (in.op == IOp::kStoreW || in.op == IOp::kStoreB) dirty = true;
      if (in.op == IOp::kCall) dirty = true;  // callee may store
      out.push_back(std::move(in));
    }
    b.instrs = std::move(out);
  }
}

void insertPrefetches(IrFunc& fn, int depth) {
  if (depth <= 0) return;
  for (auto& b : fn.blocks) {
    if (!b.parallel) continue;
    // The optimizable prefix of the block ends at the first instruction
    // that orders memory or transfers control.
    std::size_t prefixEnd = 0;
    while (prefixEnd < b.instrs.size()) {
      const IrInstr& in = b.instrs[prefixEnd];
      if (in.op == IOp::kStoreW || in.op == IOp::kStoreB ||
          in.op == IOp::kPs || in.op == IOp::kPsm || in.op == IOp::kFence ||
          in.op == IOp::kCall || in.op == IOp::kSys || in.isTerminator())
        break;
      ++prefixEnd;
    }
    // Find loads in the prefix.
    std::vector<std::size_t> loads;
    for (std::size_t i = 0; i < prefixEnd; ++i)
      if (b.instrs[i].op == IOp::kLoadW && !b.instrs[i].volatileMem)
        loads.push_back(i);
    if (loads.size() < 2) continue;
    if (loads.size() > static_cast<std::size_t>(depth))
      loads.resize(static_cast<std::size_t>(depth));

    std::size_t first = loads[0];
    // Def position of each vreg within the prefix.
    std::map<int, std::size_t> defPos;
    for (std::size_t i = 0; i < prefixEnd; ++i)
      if (b.instrs[i].dst >= 32) defPos[b.instrs[i].dst] = i;

    // For each later load, compute the pure backward slice of its address.
    std::set<std::size_t> moved;       // instructions hoisted above `first`
    std::vector<std::size_t> loadIdxs; // loads whose pref we insert
    std::set<int> loadResults;
    for (std::size_t li : loads) loadResults.insert(b.instrs[li].dst);

    for (std::size_t k = 1; k < loads.size(); ++k) {
      std::size_t li = loads[k];
      std::vector<std::size_t> slice;
      std::set<std::size_t> inSlice;
      bool ok = true;
      std::vector<int> work{b.instrs[li].a};
      while (!work.empty() && ok) {
        int v = work.back();
        work.pop_back();
        if (v < 32) continue;  // physical regs are stable here
        auto dp = defPos.find(v);
        if (dp == defPos.end() || dp->second < first) continue;  // already ok
        std::size_t di = dp->second;
        const IrInstr& def = b.instrs[di];
        if (!isPure(def.op) || loadResults.count(v) != 0 ||
            def.op == IOp::kDiv || def.op == IOp::kRem) {
          ok = false;
          break;
        }
        if (inSlice.insert(di).second) {
          slice.push_back(di);
          if (def.a >= 0) work.push_back(def.a);
          if (def.b >= 0) work.push_back(def.b);
        }
      }
      if (!ok) continue;
      for (std::size_t s : slice) moved.insert(s);
      loadIdxs.push_back(li);
    }
    if (loadIdxs.empty()) continue;

    // Rebuild the block: [hoisted slices (original order)] [prefs]
    // [remaining prefix] [rest].
    std::vector<IrInstr> out;
    out.reserve(b.instrs.size() + loadIdxs.size());
    for (std::size_t i = 0; i < first; ++i)
      if (!moved.count(i)) out.push_back(b.instrs[i]);
    // (moved instrs before `first` stay in place relative to each other)
    std::vector<IrInstr> hoisted;
    for (std::size_t i = 0; i < prefixEnd; ++i)
      if (moved.count(i)) hoisted.push_back(b.instrs[i]);
    for (auto& h : hoisted) out.push_back(h);
    for (std::size_t li : loadIdxs) {
      IrInstr pref(IOp::kPref);
      pref.a = b.instrs[li].a;
      pref.imm = b.instrs[li].imm;
      pref.srcLine = b.instrs[li].srcLine;
      out.push_back(pref);
    }
    for (std::size_t i = first; i < b.instrs.size(); ++i)
      if (!moved.count(i)) out.push_back(b.instrs[i]);
    b.instrs = std::move(out);
  }
}

void verifyParallelDataflow(const IrFunc& fn) {
  std::set<int> parallelDefs;
  for (const auto& b : fn.blocks) {
    if (!b.parallel) continue;
    for (const auto& in : b.instrs)
      if (in.dst >= 32) parallelDefs.insert(in.dst);
  }
  for (const auto& b : fn.blocks) {
    if (b.parallel) continue;
    for (const auto& in : b.instrs) {
      std::vector<int> uses;
      collectUses(in, uses);
      for (int u : uses)
        if (parallelDefs.count(u))
          throw InternalError(
              "illegal dataflow: value defined in a spawn block used in "
              "serial code (function " + fn.name + ")");
    }
  }
}

}  // namespace xmt
