#include "src/compiler/analysis/dataflow.h"

#include <algorithm>
#include <array>

#include "src/compiler/analysis/alias.h"
#include "src/compiler/analysis/summary.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/isa/isa.h"

namespace xmt::analysis {

bool BitSet::uniteWith(const BitSet& other) {
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t neu = words_[i] | other.words_[i];
    if (neu != words_[i]) {
      words_[i] = neu;
      changed = true;
    }
  }
  return changed;
}

bool BitSet::intersectWith(const BitSet& other) {
  bool changed = false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t neu = words_[i] & other.words_[i];
    if (neu != words_[i]) {
      words_[i] = neu;
      changed = true;
    }
  }
  return changed;
}

void BitSet::subtract(const BitSet& other) {
  for (std::size_t i = 0; i < words_.size(); ++i)
    words_[i] &= ~other.words_[i];
}

std::size_t BitSet::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

DataflowResult solve(const IrFunc& fn, const Cfg& cfg,
                     const DataflowProblem& problem) {
  std::size_t nb = fn.blocks.size();
  bool forward = problem.direction() == Direction::kForward;
  bool unionC = problem.confluence() == Confluence::kUnion;

  DataflowResult r;
  r.in.assign(nb, problem.initial());
  r.out.assign(nb, problem.initial());

  // Seed the worklist in an order that lets values propagate in one sweep.
  std::vector<int> order = cfg.rpo;
  if (!forward) std::reverse(order.begin(), order.end());
  // Include unreachable blocks at the end so their state is still defined.
  for (std::size_t b = 0; b < nb; ++b)
    if (!cfg.reachable[b]) order.push_back(static_cast<int>(b));

  std::vector<bool> onList(nb, false);
  std::vector<int> work(order.rbegin(), order.rend());  // pop_back = order
  for (int b : work) onList[static_cast<std::size_t>(b)] = true;

  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    auto bi = static_cast<std::size_t>(b);
    onList[bi] = false;

    // Meet over the relevant neighbors.
    const std::vector<int>& meetFrom = forward ? cfg.pred[bi] : cfg.succ[bi];
    BitSet meet(problem.domainSize());
    bool haveNeighbor = false;
    for (int n : meetFrom) {
      const BitSet& v =
          forward ? r.out[static_cast<std::size_t>(n)]
                  : r.in[static_cast<std::size_t>(n)];
      if (!haveNeighbor) {
        meet = v;
        haveNeighbor = true;
      } else if (unionC) {
        meet.uniteWith(v);
      } else {
        meet.intersectWith(v);
      }
    }
    bool isBoundary = forward ? (b == 0) : cfg.succ[bi].empty();
    if (!haveNeighbor) {
      meet = problem.boundary();
    } else if (isBoundary) {
      // A boundary block that also has neighbors (entry with a back edge,
      // exit inside a loop) still meets the boundary value in.
      if (unionC) meet.uniteWith(problem.boundary());
      else meet.intersectWith(problem.boundary());
    }

    BitSet& preState = forward ? r.in[bi] : r.out[bi];
    BitSet& postState = forward ? r.out[bi] : r.in[bi];
    preState = meet;
    BitSet neu = meet;
    problem.transfer(fn, fn.blocks[bi], neu);
    if (neu == postState) continue;
    postState = std::move(neu);
    const std::vector<int>& propagateTo = forward ? cfg.succ[bi] : cfg.pred[bi];
    for (int n : propagateTo) {
      if (!onList[static_cast<std::size_t>(n)]) {
        onList[static_cast<std::size_t>(n)] = true;
        work.push_back(n);
      }
    }
  }
  return r;
}

void collectUses(const IrInstr& in, std::vector<int>& out) {
  if (in.a >= 0) out.push_back(in.a);
  if (in.b >= 0) out.push_back(in.b);
  for (int v : in.args) out.push_back(v);
  if (in.op == IOp::kRet) out.push_back(kV0);  // return value convention
}

namespace {

class LivenessProblem : public DataflowProblem {
 public:
  explicit LivenessProblem(std::size_t nvregs) : nvregs_(nvregs) {}
  std::size_t domainSize() const override { return nvregs_; }
  Direction direction() const override { return Direction::kBackward; }
  Confluence confluence() const override { return Confluence::kUnion; }

  void transfer(const IrFunc&, const IrBlock& b,
                BitSet& state) const override {
    std::vector<int> uses;
    for (std::size_t i = b.instrs.size(); i-- > 0;) {
      const IrInstr& in = b.instrs[i];
      if (in.dst >= 0) state.reset(static_cast<std::size_t>(in.dst));
      uses.clear();
      collectUses(in, uses);
      for (int u : uses) state.set(static_cast<std::size_t>(u));
    }
  }

 private:
  std::size_t nvregs_;
};

class ReachingDefsProblem : public DataflowProblem {
 public:
  ReachingDefsProblem(const IrFunc& fn, const ReachingDefsResult& r)
      : nsites_(r.sites.size()) {
    // Per-block gen/kill: the last def of each vreg in the block generates;
    // every def kills all other sites of the same vreg.
    gen_.assign(fn.blocks.size(), BitSet(nsites_));
    kill_.assign(fn.blocks.size(), BitSet(nsites_));
    std::size_t site = 0;
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      for (const IrInstr& in : fn.blocks[bi].instrs) {
        if (in.dst < 0) continue;
        for (int other : r.sitesOfVreg.at(in.dst)) {
          gen_[bi].reset(static_cast<std::size_t>(other));
          kill_[bi].set(static_cast<std::size_t>(other));
        }
        gen_[bi].set(site);
        kill_[bi].reset(site);
        ++site;
      }
    }
  }

  std::size_t domainSize() const override { return nsites_; }
  Direction direction() const override { return Direction::kForward; }
  Confluence confluence() const override { return Confluence::kUnion; }

  void transfer(const IrFunc&, const IrBlock& b,
                BitSet& state) const override {
    auto bi = static_cast<std::size_t>(b.id);
    state.subtract(kill_[bi]);
    state.uniteWith(gen_[bi]);
  }

 private:
  std::size_t nsites_;
  std::vector<BitSet> gen_, kill_;
};

}  // namespace

LivenessResult computeLiveness(const IrFunc& fn, const Cfg& cfg) {
  LivenessProblem p(static_cast<std::size_t>(fn.nextVreg));
  return {solve(fn, cfg, p)};
}

ReachingDefsResult computeReachingDefs(const IrFunc& fn, const Cfg& cfg) {
  ReachingDefsResult r;
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    const IrBlock& b = fn.blocks[bi];
    for (std::size_t i = 0; i < b.instrs.size(); ++i) {
      if (b.instrs[i].dst < 0) continue;
      int id = static_cast<int>(r.sites.size());
      r.sites.push_back({static_cast<int>(bi), static_cast<int>(i),
                         b.instrs[i].dst});
      r.sitesOfVreg[b.instrs[i].dst].push_back(id);
    }
  }
  ReachingDefsProblem p(fn, r);
  r.flow = solve(fn, cfg, p);
  return r;
}

struct AnalysisManager::Solution {
  std::array<VRange, kMaxSummaryParams> seed;
  std::unique_ptr<RangeAnalysis> ranges;
  std::unique_ptr<ValueResolver> values, paramValues;
};

AnalysisManager::AnalysisManager() = default;
AnalysisManager::~AnalysisManager() = default;

const Cfg& AnalysisManager::cfg(const IrFunc& fn) {
  Entry& e = cache_[&fn];
  if (!e.hasCfg) {
    e.cfg = buildCfg(fn);
    e.hasCfg = true;
  }
  return e.cfg;
}

const LivenessResult& AnalysisManager::liveness(const IrFunc& fn) {
  Entry& e = cache_[&fn];
  if (!e.hasLive) {
    e.live = computeLiveness(fn, cfg(fn));
    e.hasLive = true;
  }
  return e.live;
}

const ReachingDefsResult& AnalysisManager::reachingDefs(const IrFunc& fn) {
  Entry& e = cache_[&fn];
  if (!e.hasReach) {
    e.reach = computeReachingDefs(fn, cfg(fn));
    e.hasReach = true;
  }
  return e.reach;
}

AnalysisManager::Solution& AnalysisManager::solution(
    const IrFunc& fn, const ModuleSummaries* sums, const VRange* paramRanges) {
  // The seed as the interval engine reads it: only the function's own
  // argument registers, and only ranges narrower than TOP.
  std::array<VRange, kMaxSummaryParams> seed;
  seed.fill(VRange::full32());
  if (paramRanges != nullptr)
    for (int i = 0; i < fn.nParams && i < kMaxSummaryParams; ++i)
      if (!paramRanges[i].isFull32())
        seed[static_cast<std::size_t>(i)] = paramRanges[i];
  const Cfg& c = cfg(fn);
  Entry& e = cache_[&fn];
  for (const auto& s : e.solutions)
    if (s->seed == seed) return *s;
  auto s = std::make_unique<Solution>();
  s->seed = seed;
  s->ranges = std::make_unique<RangeAnalysis>(fn, c, sums, seed.data());
  e.solutions.push_back(std::move(s));
  return *e.solutions.back();
}

const RangeAnalysis& AnalysisManager::ranges(const IrFunc& fn,
                                             const ModuleSummaries* sums,
                                             const VRange* paramRanges) {
  return *solution(fn, sums, paramRanges).ranges;
}

const ValueResolver& AnalysisManager::values(const IrFunc& fn,
                                             const ModuleSummaries* sums,
                                             const VRange* paramRanges,
                                             bool paramOrigins) {
  Solution& s = solution(fn, sums, paramRanges);
  paramOrigins = paramOrigins && fn.nParams > 0;
  std::unique_ptr<ValueResolver>& v = paramOrigins ? s.paramValues : s.values;
  if (v == nullptr)
    v = std::make_unique<ValueResolver>(fn, *this, sums, s.ranges.get(),
                                        paramOrigins);
  return *v;
}

void AnalysisManager::invalidate(const IrFunc& fn) { cache_.erase(&fn); }

}  // namespace xmt::analysis
