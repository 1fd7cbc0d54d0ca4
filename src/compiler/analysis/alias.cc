#include "src/compiler/analysis/alias.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "src/compiler/analysis/summary.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/isa/isa.h"

namespace xmt::analysis {

void AbsVal::meetWith(const AbsVal& o) {
  if (o.kind == Kind::kBottom) return;
  if (kind == Kind::kBottom) {
    *this = o;
    return;
  }
  if (kind == Kind::kValue && o.kind == Kind::kValue && base == o.base &&
      sym == o.sym && origin == o.origin && uniqueOrigin == o.uniqueOrigin &&
      scale == o.scale) {
    off = off.joined(o.off);
    if (hint.empty()) hint = o.hint;
    return;
  }
  std::string_view keep = !sym.empty()    ? sym
                          : !hint.empty() ? hint
                          : !o.sym.empty() ? o.sym
                                           : o.hint;
  *this = unknown();
  hint = keep;
}

AbsVal absAdd(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::Kind::kBottom || b.kind == AbsVal::Kind::kBottom)
    return AbsVal{};
  if (!a.isValue() || !b.isValue()) return AbsVal::unknown();
  if (a.base != AbsVal::Base::kNone && b.base != AbsVal::Base::kNone)
    return AbsVal::unknown();
  AbsVal r = a.base != AbsVal::Base::kNone ? a : b;
  const AbsVal& other = a.base != AbsVal::Base::kNone ? b : a;
  r.off = a.off.addSat(b.off);
  if (a.origin != kOriginNone && b.origin != kOriginNone) {
    if (a.origin != b.origin || a.uniqueOrigin != b.uniqueOrigin)
      return AbsVal::unknown();
    r.origin = a.origin;
    r.uniqueOrigin = a.uniqueOrigin;
    r.scale = a.scale + b.scale;
  } else if (other.origin != kOriginNone) {
    r.origin = other.origin;
    r.uniqueOrigin = other.uniqueOrigin;
    r.scale = other.scale;
  }
  if (r.origin != kOriginNone && r.scale == 0) {
    r.origin = kOriginNone;
    r.uniqueOrigin = false;
  }
  if (r.hint.empty()) r.hint = other.hint;
  return r;
}

AbsVal absNeg(const AbsVal& a) {
  if (a.kind == AbsVal::Kind::kBottom) return AbsVal{};
  if (!a.isValue() || a.base != AbsVal::Base::kNone) return AbsVal::unknown();
  AbsVal r = a;
  r.scale = -r.scale;
  r.off = r.off.negated();
  return r;
}

AbsVal absMulConst(const AbsVal& a, std::int64_t k) {
  if (a.kind == AbsVal::Kind::kBottom) return AbsVal{};
  if (!a.isValue() || a.base != AbsVal::Base::kNone) return AbsVal::unknown();
  // Keep coefficients sane: index arithmetic never needs huge scales, and
  // bounding them keeps the overlap algebra overflow-free.
  if (std::llabs(k) > (std::int64_t{1} << 40) ||
      std::llabs(a.scale) > (std::int64_t{1} << 20))
    return AbsVal::unknown();
  AbsVal r = a;
  r.scale *= k;
  r.off = r.off.mulConstSat(k);
  if (r.scale == 0) {
    r.origin = kOriginNone;
    r.uniqueOrigin = false;
  }
  return r;
}

namespace {

// Updates to one def site before its growing offset interval is widened to
// the infinity sentinels (loop carriers converge right after).
constexpr int kWidenAfter = 8;

}  // namespace

ValueResolver::ValueResolver(const IrFunc& fn, AnalysisManager& am,
                             const ModuleSummaries* summaries,
                             const RangeAnalysis* ranges,
                             bool seedParamOrigins) {
  const Cfg& cfg = am.cfg(fn);
  const ReachingDefsResult& rd = am.reachingDefs(fn);
  std::size_t nb = fn.blocks.size();
  auto nregs = static_cast<std::size_t>(std::max(fn.nextVreg, kNumRegs));
  defVals_.assign(rd.sites.size(), AbsVal{});
  std::vector<int> bumps(rd.sites.size(), 0);

  // Blocks the interval engine proves unreachable (a range-decided branch
  // prunes every path in) cannot execute: their definitions stay kBottom
  // and their memory accesses are never collected.
  auto live = [&](int b) {
    return ranges == nullptr || ranges->blockReachable(b);
  };

  // Site ids number the definitions in block/instruction order.
  std::vector<int> firstSite(nb + 1, 0);
  for (const DefSite& s : rd.sites)
    ++firstSite[static_cast<std::size_t>(s.block) + 1];
  for (std::size_t b = 0; b < nb; ++b) firstSite[b + 1] += firstSite[b];

  std::vector<std::string_view> names(nregs);
  for (const auto& [vreg, name] : fn.vregNames)
    if (vreg >= 0 && static_cast<std::size_t>(vreg) < nregs)
      names[static_cast<std::size_t>(vreg)] = name;

  // Memory sites and returns, laid out in RPO; each walk of a block
  // rewrites the block's slots, so its last walk leaves the final values.
  std::vector<std::size_t> firstMem(nb, 0), firstRet(nb, 0);
  std::vector<AbsVal> retVals;
  for (int b : cfg.rpo) {
    if (!live(b)) continue;
    auto bi = static_cast<std::size_t>(b);
    firstMem[bi] = memSites_.size();
    firstRet[bi] = retVals.size();
    const IrBlock& blk = fn.blocks[bi];
    for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
      const IrInstr& in = blk.instrs[i];
      if (in.op == IOp::kRet) retVals.emplace_back();
      bool isLoad = in.op == IOp::kLoadW || in.op == IOp::kLoadB;
      bool isStore = in.op == IOp::kStoreW || in.op == IOp::kStoreB;
      bool isPsm = in.op == IOp::kPsm;
      if (!isLoad && !isStore && !isPsm) continue;
      MemSite m;
      m.block = b;
      m.instr = static_cast<int>(i);
      m.op = in.op;
      m.read = isLoad || isPsm;
      m.write = isStore || isPsm;
      m.atomic = isPsm;
      m.sizeBytes = (in.op == IOp::kLoadB || in.op == IOp::kStoreB) ? 1 : 4;
      m.srcLine = in.srcLine;
      m.addrReg = in.a;
      memSites_.push_back(m);
    }
  }

  // The per-register value state of the block being walked. Physical
  // registers are transient staging: they are tracked within a block (and
  // kV0 across blocks — every return site re-defines v0 after its last
  // call, so its reaching definitions are exact), but other phys regs are
  // dropped at block entry and at call/syscall clobbers. A register holds
  // a value only if it was written since the current walk seeded the block
  // (its stamp is the walk's epoch); any other register reads as Unknown.
  std::vector<AbsVal> vals(nregs);
  std::vector<std::uint32_t> stamp(nregs, 0);
  std::uint32_t epoch = 0;
  auto operandVal = [&](int reg) -> AbsVal {
    if (reg == 0) return AbsVal::constant(0);
    auto ri = static_cast<std::size_t>(reg);
    if (reg < 0 || ri >= nregs || stamp[ri] != epoch) return AbsVal::unknown();
    return vals[ri];
  };
  auto setVal = [&](int reg, const AbsVal& v) {
    auto ri = static_cast<std::size_t>(reg);
    vals[ri] = v;
    stamp[ri] = epoch;
  };
  auto erasePhys = [&] {
    std::fill(stamp.begin() + 1, stamp.begin() + kNumRegs, 0);
  };

  // Call transfer: substitute the callee's return summary into v0 and
  // clobber the transient phys state. An inexpressible return leaves v0
  // Unknown, so the following `copy res, v0` materializes an opaque handle.
  auto applyCall = [&](const IrInstr& in) {
    AbsVal ret = AbsVal::unknown();
    if (summaries != nullptr) {
      if (const FuncSummary* s = summaries->find(in.sym);
          s != nullptr && !s->recursive) {
        std::vector<AbsVal> argVals;
        argVals.reserve(in.args.size());
        for (int r : in.args) argVals.push_back(operandVal(r));
        ret = applyReturnSummary(*s, argVals);
      }
    }
    erasePhys();
    setVal(kV0, ret);
  };

  // Numeric range of an operand at an instruction, when available.
  auto numRange = [&](int block, int instr, int reg) -> VRange {
    if (ranges == nullptr) return VRange::full32();
    return ranges->rangeAt(block, instr, reg);
  };

  auto evalDef = [&](const IrInstr& in, int siteId, int block,
                     int instr) -> AbsVal {
    switch (in.op) {
      case IOp::kLi:
        return AbsVal::constant(in.imm);
      case IOp::kLa: {
        AbsVal r;
        r.kind = AbsVal::Kind::kValue;
        r.base = AbsVal::Base::kSym;
        r.sym = in.sym;
        r.off = VRange::constant(in.imm);
        r.hint = in.sym;
        return r;
      }
      case IOp::kGetTid: {
        AbsVal r;
        r.kind = AbsVal::Kind::kValue;
        r.origin = kOriginTid;
        r.uniqueOrigin = true;
        r.scale = 1;
        return r;
      }
      case IOp::kFrameAddr: {
        AbsVal r;
        r.kind = AbsVal::Kind::kValue;
        r.base = AbsVal::Base::kFrame;
        r.off = VRange::constant(in.imm);
        return r;
      }
      case IOp::kCopy:
        return operandVal(in.a);
      case IOp::kAdd:
        return absAdd(operandVal(in.a), operandVal(in.b));
      case IOp::kAddi:
        return absAdd(operandVal(in.a), AbsVal::constant(in.imm));
      case IOp::kSub:
        return absAdd(operandVal(in.a), absNeg(operandVal(in.b)));
      case IOp::kMul: {
        AbsVal a = operandVal(in.a), b = operandVal(in.b);
        if (a.kind == AbsVal::Kind::kBottom ||
            b.kind == AbsVal::Kind::kBottom)
          return AbsVal{};
        if (a.isConst()) return absMulConst(b, a.constVal());
        if (b.isConst()) return absMulConst(a, b.constVal());
        return AbsVal::unknown();
      }
      case IOp::kSll:
        if (in.imm >= 0 && in.imm < 32)
          return absMulConst(operandVal(in.a), std::int64_t{1} << in.imm);
        return AbsVal::unknown();
      case IOp::kSllv: {
        AbsVal b = operandVal(in.b);
        if (b.kind == AbsVal::Kind::kBottom) return AbsVal{};
        if (b.isConst() && b.constVal() >= 0 && b.constVal() < 32)
          return absMulConst(operandVal(in.a),
                             std::int64_t{1} << b.constVal());
        return AbsVal::unknown();
      }
      case IOp::kAndi:
        if (in.imm >= 0) {
          // `x & mask` is the identity when x provably fits the mask (the
          // fuzzer's canonical in-bounds index idiom) and a [0, mask]
          // constant range otherwise.
          AbsVal a = operandVal(in.a);
          if (a.kind == AbsVal::Kind::kBottom) return AbsVal{};
          VRange n = numRange(block, instr, in.a);
          if (!n.isEmpty() && n.lo >= 0 && n.hi <= in.imm) return a;
          return AbsVal::constRange(VRange::of(0, in.imm));
        }
        return AbsVal::unknown();
      case IOp::kAnd: {
        AbsVal a = operandVal(in.a), b = operandVal(in.b);
        if (a.kind == AbsVal::Kind::kBottom ||
            b.kind == AbsVal::Kind::kBottom)
          return AbsVal{};
        const AbsVal* cst = b.isConst() && b.constVal() >= 0   ? &b
                            : a.isConst() && a.constVal() >= 0 ? &a
                                                               : nullptr;
        if (cst == nullptr) return AbsVal::unknown();
        const AbsVal& other = cst == &b ? a : b;
        int otherReg = cst == &b ? in.a : in.b;
        VRange n = numRange(block, instr, otherReg);
        if (!n.isEmpty() && n.lo >= 0 && n.hi <= cst->constVal())
          return other;
        return AbsVal::constRange(VRange::of(0, cst->constVal()));
      }
      case IOp::kLoadW:
      case IOp::kLoadB: {
        // A loaded value is inexpressible, but the handle it opaqueizes to
        // should carry the loaded location's name: `*p = ...` through a
        // pointer fetched from global P reports "P", not "<unknown>".
        AbsVal addr = absAdd(operandVal(in.a), AbsVal::constant(in.imm));
        if (addr.kind == AbsVal::Kind::kBottom) return AbsVal{};
        AbsVal r = AbsVal::unknown();
        r.hint = !addr.sym.empty() ? addr.sym : addr.hint;
        return r;
      }
      case IOp::kPs:
      case IOp::kPsm: {
        // The returned fetch-add base is distinct per *execution* when the
        // increment is a provably positive constant — the classifier's
        // "ps-mediated index" class (array compaction, queue allocation).
        // Distinct per *thread* only when the ps executes inside the spawn
        // region: a serial ps broadcasts one value to every thread, so its
        // result must not license a disjointness proof (uniqueOrigin off).
        AbsVal inc = operandVal(in.op == IOp::kPs ? in.a : in.b);
        if (inc.kind == AbsVal::Kind::kBottom) return AbsVal{};
        if (inc.isConst() && inc.constVal() > 0) {
          AbsVal r;
          r.kind = AbsVal::Kind::kValue;
          r.origin = siteId;
          r.uniqueOrigin =
              fn.blocks[static_cast<std::size_t>(block)].parallel;
          r.scale = 1;
          return r;
        }
        return AbsVal::unknown();
      }
      default:
        return AbsVal::unknown();
    }
  };

  // Block-entry seeding: the meet over reaching definition sites. Phys
  // registers other than v0 are excluded (call-clobbered staging).
  auto seedEntry = [&](std::size_t bi) {
    ++epoch;
    rd.flow.in[bi].forEach([&](std::size_t s) {
      int reg = rd.sites[s].vreg;
      if (reg > 0 && reg < kNumRegs && reg != kV0) return;
      auto ri = static_cast<std::size_t>(reg);
      if (stamp[ri] != epoch)
        setVal(reg, defVals_[s]);
      else
        vals[ri].meetWith(defVals_[s]);
    });
    if (seedParamOrigins && bi == 0) {
      for (int i = 0; i < fn.nParams && i < kMaxSummaryParams; ++i) {
        AbsVal p;
        p.kind = AbsVal::Kind::kValue;
        p.origin = paramOrigin(i);
        p.scale = 1;
        setVal(kSummaryArgRegs[i], p);
      }
    }
  };

  // A changed definition re-queues every swept block it reaches.
  std::vector<char> swept(nb, 0), dirty(nb, 0);
  for (int b : cfg.rpo)
    if (live(b)) swept[static_cast<std::size_t>(b)] = 1;
  auto defChanged = [&](int siteId) {
    for (std::size_t c = 0; c < nb; ++c)
      if (swept[c] != 0 &&
          rd.flow.in[c].test(static_cast<std::size_t>(siteId)))
        dirty[c] = 1;
  };

  // One walk of block `b` from its seeded entry state. Inexpressible
  // definitions become opaque handles for their own site (never raw
  // Unknown), and offset intervals that keep growing are widened to the
  // infinity sentinels, so the chain of updates per site is bounded and
  // the fixpoint converges. With `settled`, the definitions are final and
  // the walk only re-reads them. Returns whether a definition was left
  // pending (an operand still kBottom).
  auto walk = [&](int b, bool settled) {
    auto bi = static_cast<std::size_t>(b);
    seedEntry(bi);
    int site = firstSite[bi];
    std::size_t mem = firstMem[bi], ret = firstRet[bi];
    bool pending = false;
    const IrBlock& blk = fn.blocks[bi];
    for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
      const IrInstr& in = blk.instrs[i];
      int siteId = in.dst >= 0 ? site++ : -1;
      if (in.op == IOp::kCall) {
        applyCall(in);
        continue;
      }
      if (in.op == IOp::kSys) {
        erasePhys();
        continue;
      }
      if (in.op == IOp::kRet) retVals[ret++] = operandVal(kV0);
      if (in.op == IOp::kLoadW || in.op == IOp::kLoadB ||
          in.op == IOp::kStoreW || in.op == IOp::kStoreB ||
          in.op == IOp::kPsm)
        memSites_[mem++].addr =
            absAdd(operandVal(in.a), AbsVal::constant(in.imm));
      if (in.dst < 0) continue;
      auto di = static_cast<std::size_t>(in.dst);
      auto si = static_cast<std::size_t>(siteId);
      if (settled) {
        setVal(in.dst, defVals_[si]);
        continue;
      }
      AbsVal v = evalDef(in, siteId, b, static_cast<int>(i));
      if (v.kind == AbsVal::Kind::kBottom) {  // operands pending
        pending = true;
        continue;
      }
      if (!v.isValue())
        v = AbsVal::opaque(siteId, !v.hint.empty() ? v.hint : names[di]);
      if (v.hint.empty()) v.hint = names[di];
      AbsVal& slot = defVals_[si];
      AbsVal merged = slot;
      merged.meetWith(v);
      if (!merged.isValue())
        merged = AbsVal::opaque(
            siteId, !merged.hint.empty() ? merged.hint : names[di]);
      if (!(merged == slot)) {
        if (++bumps[si] > kWidenAfter && slot.isValue() &&
            merged.base == slot.base && merged.origin == slot.origin &&
            merged.scale == slot.scale)
          merged.off = merged.off.widenedInf(slot.off);
        // A pure-offset value (no base, no origin) *is* the register's
        // numeric value: the interval engine's post-state bounds it,
        // which tames loop carriers the offset widening would otherwise
        // leave at the infinity sentinels (`q = q + 1` under `q < n`).
        if (ranges != nullptr && merged.isValue() &&
            merged.base == AbsVal::Base::kNone &&
            merged.origin == kOriginNone && !merged.off.isConst()) {
          VRange cut = merged.off.intersected(
              ranges->rangeAt(b, static_cast<int>(i) + 1, in.dst));
          if (!cut.isEmpty()) merged.off = cut;
        }
        // Re-test: the widen + numeric cut may have landed back on the
        // stored value, and flagging a change then would never converge.
        if (!(merged == slot)) {
          slot = merged;
          defChanged(siteId);
        }
      }
      setVal(in.dst, slot);
    }
    return pending;
  };

  // Fixed point in RPO sweeps, re-walking only blocks whose reaching
  // definitions changed since their last walk: a loop-free function
  // converges in one sweep.
  std::vector<char> pendingIn(nb, 0);
  dirty = swept;
  for (bool again = true; again;) {
    for (int b : cfg.rpo) {
      auto bi = static_cast<std::size_t>(b);
      if (dirty[bi] == 0) continue;
      dirty[bi] = 0;
      pendingIn[bi] = walk(b, /*settled=*/false) ? 1 : 0;
    }
    again = std::find(dirty.begin(), dirty.end(), 1) != dirty.end();
  }
  // A block's last walk saw the converged entry state and its own final
  // definitions, so its recorded addresses are final — except where a
  // pending definition kept a stale register value: walk those again with
  // the settled definitions.
  for (int b : cfg.rpo)
    if (pendingIn[static_cast<std::size_t>(b)] != 0)
      walk(b, /*settled=*/true);

  retVal_ = AbsVal{};
  for (const AbsVal& r : retVals) retVal_.meetWith(r);
  for (MemSite& m : memSites_) {
    if (!m.addr.isValue()) {
      m.cls = AddrClass::kUnknown;
    } else if (m.addr.base == AbsVal::Base::kSym) {
      m.cls = m.addr.origin != kOriginNone && m.addr.uniqueOrigin
                  ? AddrClass::kTidIndexed
                  : AddrClass::kGlobal;
    } else if (m.addr.base == AbsVal::Base::kFrame) {
      m.cls = AddrClass::kFrameLocal;
    } else {
      m.cls = m.addr.origin != kOriginNone && m.addr.uniqueOrigin
                  ? AddrClass::kTidIndexed
                  : AddrClass::kUnknown;
    }
    m.threadPrivate =
        m.addr.isValue() && m.addr.origin != kOriginNone &&
        m.addr.uniqueOrigin && !m.addr.off.isEmpty() &&
        m.addr.off.width() < VRange::kPosInf / 2 &&
        std::llabs(m.addr.scale) >= m.sizeBytes + m.addr.off.width();
  }
}

}  // namespace xmt::analysis
