#include "src/compiler/analysis/mcheck.h"

#include <map>
#include <utility>
#include <vector>

#include "src/compiler/analysis/alias.h"
#include "src/compiler/analysis/summary.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/compiler/lower.h"
#include "src/compiler/parser.h"
#include "src/compiler/sema.h"
#include "src/compiler/transforms.h"

namespace xmt::analysis {

namespace {

/// Blocks of the spawn region whose body entry is `entry` (same traversal
/// as the race detector's).
std::vector<int> regionBlocks(const IrFunc& fn, const Cfg& cfg, int entry) {
  std::vector<int> blocks;
  if (entry < 0 || static_cast<std::size_t>(entry) >= fn.blocks.size())
    return blocks;
  if (!fn.blocks[static_cast<std::size_t>(entry)].parallel) return blocks;
  std::vector<bool> seen(fn.blocks.size(), false);
  std::vector<int> work{entry};
  seen[static_cast<std::size_t>(entry)] = true;
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    blocks.push_back(b);
    for (int s : cfg.succ[static_cast<std::size_t>(b)]) {
      auto si = static_cast<std::size_t>(s);
      if (!seen[si] && fn.blocks[si].parallel) {
        seen[si] = true;
        work.push_back(s);
      }
    }
  }
  return blocks;
}

/// Thread-local arithmetic a tainted index may flow through without
/// becoming order-visible.
bool isLocalArith(IOp op) {
  switch (op) {
    case IOp::kAdd: case IOp::kSub: case IOp::kMul: case IOp::kDiv:
    case IOp::kRem: case IOp::kAnd: case IOp::kOr: case IOp::kXor:
    case IOp::kNor: case IOp::kSlt: case IOp::kSltu: case IOp::kSllv:
    case IOp::kSrlv: case IOp::kSrav: case IOp::kFadd: case IOp::kFsub:
    case IOp::kFmul: case IOp::kFdiv: case IOp::kFeq: case IOp::kFlt:
    case IOp::kFle: case IOp::kAddi: case IOp::kAndi: case IOp::kOri:
    case IOp::kXori: case IOp::kSlti: case IOp::kSll: case IOp::kSrl:
    case IOp::kSra: case IOp::kCvtif: case IOp::kCvtfi: case IOp::kCopy:
      return true;
    default:
      return false;
  }
}

struct UseRef {
  int block = 0;
  int instr = 0;
};

/// Def-site-precise def→use chains: a replay of the reaching-definitions
/// solution that records each instruction's uses *before* applying its own
/// definition. This is what makes `ps(one, counter)` inside a loop body
/// come out dead when `li one, 1` re-kills the result each iteration — the
/// ps's increment operand reads the li's def, not its own.
struct DefUse {
  std::map<std::pair<int, int>, int> siteAt;    // (block, instr) -> site id
  std::vector<std::vector<UseRef>> usesOfSite;  // site id -> reading instrs

  DefUse(const IrFunc& fn, const ReachingDefsResult& rd) {
    usesOfSite.resize(rd.sites.size());
    for (std::size_t s = 0; s < rd.sites.size(); ++s)
      siteAt[{rd.sites[s].block, rd.sites[s].instr}] = static_cast<int>(s);
    std::vector<int> uses;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      std::map<int, std::vector<int>> cur;  // vreg -> reaching site ids
      rd.flow.in[b].forEach([&](std::size_t s) {
        cur[rd.sites[s].vreg].push_back(static_cast<int>(s));
      });
      const IrBlock& blk = fn.blocks[b];
      for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
        const IrInstr& in = blk.instrs[i];
        uses.clear();
        collectUses(in, uses);
        for (int v : uses)
          if (auto it = cur.find(v); it != cur.end())
            for (int s : it->second)
              usesOfSite[static_cast<std::size_t>(s)].push_back(
                  {static_cast<int>(b), static_cast<int>(i)});
        if (in.dst >= 0) {
          auto it = siteAt.find({static_cast<int>(b), static_cast<int>(i)});
          if (it != siteAt.end()) cur[in.dst] = {it->second};
        }
      }
    }
  }
};

/// Module-wide accumulators behind the name-keyed fact sets: a name is
/// emitted only when every matching site across every function is clean,
/// and an unresolvable site poisons the whole category.
struct FactAcc {
  std::set<int> grSeen, grPoisoned;
  std::set<std::string> psmSeen, psmPoisoned;
  bool psmUnknownPoison = false;   // non-commuting psm with opaque target
  std::set<std::string> privSeen, privPoisoned;
  bool privUnknownPoison = false;  // non-private access with opaque target
};

void analyzeFunction(const IrFunc& fn, AnalysisManager& am,
                     const ModuleSummaries* summaries, McStaticFacts& out,
                     FactAcc& acc) {
  std::vector<int> entries;
  for (const IrBlock& b : fn.blocks)
    if (!b.instrs.empty() && b.instrs.back().op == IOp::kSpawn)
      entries.push_back(b.instrs.back().t1);
  if (entries.empty()) return;

  const Cfg& cfg = am.cfg(fn);
  const ValueResolver& resolver = am.values(
      fn, summaries,
      summaries != nullptr ? summaries->paramRangesOf(fn.name) : nullptr);
  const ReachingDefsResult& rd = am.reachingDefs(fn);
  DefUse du(fn, rd);

  std::map<std::pair<int, int>, const MemSite*> siteOfInstr;
  for (const MemSite& m : resolver.memorySites())
    siteOfInstr[{m.block, m.instr}] = &m;

  // Region membership of blocks (by index).
  std::vector<bool> inRegion(fn.blocks.size(), false);
  for (int e : entries)
    for (int b : regionBlocks(fn, cfg, e))
      inRegion[static_cast<std::size_t>(b)] = true;
  out.regionCount += static_cast<int>(entries.size());

  // Pass 1: order-permuted symbols — region writes through a unique
  // ps-derived index (origin >= 0; the tid origin is schedule-invariant).
  for (const MemSite& m : resolver.memorySites()) {
    if (!inRegion[static_cast<std::size_t>(m.block)] || !m.write) continue;
    if (m.addr.isValue() && m.addr.base == AbsVal::Base::kSym &&
        m.addr.origin >= 0 && m.addr.uniqueOrigin)
      out.orderPermutedSymbols.insert(std::string(m.addr.sym));
  }

  // Pass 2: private memory lines (plain loads/stores only; one impure site
  // poisons its whole line).
  std::set<int> privateSeen, privatePoisoned;
  for (const MemSite& m : resolver.memorySites()) {
    if (!inRegion[static_cast<std::size_t>(m.block)] || m.atomic) continue;
    privateSeen.insert(m.srcLine);
    if (!m.threadPrivate) privatePoisoned.insert(m.srcLine);
    if (m.addr.isValue() && m.addr.base == AbsVal::Base::kSym) {
      acc.privSeen.insert(std::string(m.addr.sym));
      if (!m.threadPrivate) acc.privPoisoned.insert(std::string(m.addr.sym));
    } else {
      acc.privUnknownPoison = true;  // could alias any symbol
    }
  }
  for (int line : privateSeen)
    if (privatePoisoned.count(line) == 0) out.privateMemLines.insert(line);

  // Pass 3: commutative atomics. Taint the ps/psm result through
  // thread-local arithmetic; acceptable sinks are thread-private address
  // operands, store values landing in order-permuted private slots, and
  // prefetches. Everything else (branches, calls, printf, increments of a
  // further atomic, escaping stores) makes the handed-out order visible.
  auto commutes = [&](int blockIdx, int instrIdx) {
    auto seedIt = du.siteAt.find({blockIdx, instrIdx});
    if (seedIt == du.siteAt.end()) return true;  // no def recorded: dead
    std::vector<int> work{seedIt->second};
    std::set<int> tainted{seedIt->second};
    while (!work.empty()) {
      int s = work.back();
      work.pop_back();
      int sv = rd.sites[static_cast<std::size_t>(s)].vreg;
      for (const UseRef& u : du.usesOfSite[static_cast<std::size_t>(s)]) {
        const IrInstr& in =
            fn.blocks[static_cast<std::size_t>(u.block)]
                .instrs[static_cast<std::size_t>(u.instr)];
        if (auto it = siteOfInstr.find({u.block, u.instr});
            it != siteOfInstr.end()) {
          const MemSite& m = *it->second;
          bool asValue = (in.op == IOp::kStoreW || in.op == IOp::kStoreB ||
                          in.op == IOp::kPsm) &&
                         in.b == sv;
          if (asValue) {
            if (in.op == IOp::kPsm) return false;  // order-visible increment
            if (!(m.threadPrivate && m.addr.base == AbsVal::Base::kSym &&
                  out.orderPermutedSymbols.count(std::string(m.addr.sym)) != 0))
              return false;
            continue;
          }
          if (in.a == sv) {  // address operand
            if (!m.threadPrivate) return false;
            continue;
          }
          return false;
        }
        if (in.op == IOp::kPref) continue;  // prefetch has no semantics
        if (in.op == IOp::kPs && in.a == sv) return false;
        if (!isLocalArith(in.op)) return false;
        if (in.dst >= 0) {
          auto dit = du.siteAt.find({u.block, u.instr});
          if (dit != du.siteAt.end() && tainted.insert(dit->second).second)
            work.push_back(dit->second);
        }
      }
    }
    return true;
  };

  std::set<int> atomicSeen, atomicPoisoned;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    if (!inRegion[b]) continue;
    const IrBlock& blk = fn.blocks[b];
    for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
      const IrInstr& in = blk.instrs[i];
      if (in.op != IOp::kPs && in.op != IOp::kPsm) continue;
      atomicSeen.insert(in.srcLine);
      bool ok = commutes(static_cast<int>(b), static_cast<int>(i));
      if (!ok) atomicPoisoned.insert(in.srcLine);
      if (in.op == IOp::kPs) {
        acc.grSeen.insert(in.imm);
        if (!ok) acc.grPoisoned.insert(in.imm);
      } else {
        auto it = siteOfInstr.find({static_cast<int>(b), static_cast<int>(i)});
        const MemSite* m = it != siteOfInstr.end() ? it->second : nullptr;
        if (m != nullptr && m->addr.isValue() &&
            m->addr.base == AbsVal::Base::kSym) {
          acc.psmSeen.insert(std::string(m->addr.sym));
          if (!ok) acc.psmPoisoned.insert(std::string(m->addr.sym));
        } else if (!ok) {
          // A non-commuting psm that could land anywhere: no psm symbol
          // may be trusted.
          acc.psmUnknownPoison = true;
        }
      }
    }
  }
  for (int line : atomicSeen)
    if (atomicPoisoned.count(line) == 0)
      out.commutativeAtomicLines.insert(line);
}

}  // namespace

McStaticFacts computeMcFacts(const IrModule& mod,
                             const ModuleSummaries* summaries) {
  McStaticFacts facts;
  AnalysisManager am;
  ModuleSummaries local;
  if (summaries == nullptr) {
    local = buildModuleSummaries(mod, am);
    summaries = &local;
  }
  FactAcc acc;
  for (const IrFunc& fn : mod.funcs) {
    analyzeFunction(fn, am, summaries, facts, acc);
    am.invalidate(fn);  // the function's last consumer is done
  }
  for (int g : acc.grSeen)
    if (acc.grPoisoned.count(g) == 0) facts.commutativePsGrs.insert(g);
  if (!acc.psmUnknownPoison)
    for (const std::string& s : acc.psmSeen)
      if (acc.psmPoisoned.count(s) == 0) facts.commutativePsmSymbols.insert(s);
  if (!acc.privUnknownPoison)
    for (const std::string& s : acc.privSeen)
      if (acc.privPoisoned.count(s) == 0) facts.privateSymbols.insert(s);
  return facts;
}

McStaticFacts computeMcFactsForSource(const std::string& source,
                                      bool inlineParallel) {
  auto tu = parse(source);
  analyze(*tu);
  if (inlineParallel) inlineParallelCalls(*tu);
  IrModule mod = lowerToIr(*tu);
  return computeMcFacts(mod);
}

}  // namespace xmt::analysis
