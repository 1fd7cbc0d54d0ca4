// Generic forward/backward dataflow framework over the IrInstr CFG.
//
// Analyses are expressed as bit-vector problems: a finite domain (virtual
// registers, definition sites, ...), a union or intersection confluence, and
// a per-block transfer function. The solver runs a worklist to a fixed
// point, seeding in reverse post-order (forward) or post-order (backward) so
// typical CFGs converge in a couple of sweeps. Built-in problem instances —
// liveness and reaching definitions — serve both the optimizer (dead-code
// elimination) and the race detector; AnalysisManager caches per-function
// results, the xmtai solutions included, so stacked passes do not
// recompute them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/compiler/analysis/cfg.h"
#include "src/compiler/ir.h"

namespace xmt::analysis {

/// Fixed-size bitset sized at run time (the lattice element).
class BitSet {
 public:
  BitSet() = default;
  explicit BitSet(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  std::size_t sizeBits() const { return nbits_; }
  void set(std::size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void clear() { std::fill(words_.begin(), words_.end(), 0); }
  void fill() {
    std::fill(words_.begin(), words_.end(), ~0ull);
    trimTail();
  }

  /// this |= other; returns true when this changed.
  bool uniteWith(const BitSet& other);
  /// this &= other; returns true when this changed.
  bool intersectWith(const BitSet& other);
  /// this &= ~other.
  void subtract(const BitSet& other);

  bool operator==(const BitSet& other) const {
    return words_ == other.words_;
  }

  std::size_t count() const;

  /// Calls fn(index) for each set bit, ascending.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
        fn(w * 64 + tz);
        bits &= bits - 1;
      }
    }
  }

 private:
  void trimTail() {
    if (nbits_ % 64 != 0 && !words_.empty())
      words_.back() &= (1ull << (nbits_ % 64)) - 1;
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

enum class Direction : std::uint8_t { kForward, kBackward };
enum class Confluence : std::uint8_t { kUnion, kIntersection };

/// A bit-vector dataflow problem. Implementations provide the domain and a
/// block-granular transfer function applied in the problem's direction.
class DataflowProblem {
 public:
  virtual ~DataflowProblem() = default;

  virtual std::size_t domainSize() const = 0;
  virtual Direction direction() const = 0;
  virtual Confluence confluence() const = 0;

  /// Value at the CFG boundary (entry for forward, every exit for backward).
  virtual BitSet boundary() const { return BitSet(domainSize()); }
  /// Optimistic initial value for interior blocks (empty for union problems,
  /// full for intersection problems).
  virtual BitSet initial() const {
    BitSet b(domainSize());
    if (confluence() == Confluence::kIntersection) b.fill();
    return b;
  }

  /// Applies the block transfer to `state` in the problem's direction:
  /// forward problems receive the block-in and must leave the block-out,
  /// backward problems receive the block-out and must leave the block-in.
  virtual void transfer(const IrFunc& fn, const IrBlock& b,
                        BitSet& state) const = 0;
};

/// Per-block fixed-point solution. For forward problems `in[b]` is the state
/// at block entry and `out[b]` at exit; for backward problems `in[b]` is the
/// state at block entry (the transfer result) and `out[b]` at exit.
struct DataflowResult {
  std::vector<BitSet> in, out;
};

DataflowResult solve(const IrFunc& fn, const Cfg& cfg,
                     const DataflowProblem& problem);

// --- Built-in problem instances --------------------------------------------

/// Virtual registers read by `in` (operands, call args, kRet's implicit v0).
void collectUses(const IrInstr& in, std::vector<int>& out);

/// Backward liveness of virtual registers. Domain: vreg ids [0, nextVreg).
struct LivenessResult {
  DataflowResult flow;  // in = live-in, out = live-out per block
};
LivenessResult computeLiveness(const IrFunc& fn, const Cfg& cfg);

/// Forward reaching definitions. Domain: definition sites — instructions
/// with dst >= 0, numbered in block/instruction order.
struct DefSite {
  int block = 0;
  int instr = 0;
  int vreg = -1;
};
struct ReachingDefsResult {
  std::vector<DefSite> sites;                 // site id -> location
  std::map<int, std::vector<int>> sitesOfVreg;  // vreg -> site ids
  DataflowResult flow;                        // in/out per block over sites
};
ReachingDefsResult computeReachingDefs(const IrFunc& fn, const Cfg& cfg);

class RangeAnalysis;
class ValueResolver;
struct ModuleSummaries;
struct VRange;

/// Memoizes per-function analyses keyed by function identity, one manager
/// per module: the CFG, liveness and reaching definitions, and the xmtai
/// interval and value solutions, which are further keyed by the seed of
/// the incoming argument ranges. Each solution is computed once and shared
/// by every consumer (summaries, value lints, race lint, mcheck), so a
/// function without parameters is solved once in total.
///
/// The IR must not change between queries; invalidate() drops everything
/// cached for a function — after transforming it, or once its last
/// consumer is done, to free the solutions. All range and value queries on
/// one manager must pass the same module's summaries (or none): a solution
/// reads them only for callee return summaries, which are final before a
/// caller is first solved (buildModuleSummaries works bottom-up).
class AnalysisManager {
 public:
  AnalysisManager();
  ~AnalysisManager();
  AnalysisManager(const AnalysisManager&) = delete;
  AnalysisManager& operator=(const AnalysisManager&) = delete;

  const Cfg& cfg(const IrFunc& fn);
  const LivenessResult& liveness(const IrFunc& fn);
  const ReachingDefsResult& reachingDefs(const IrFunc& fn);
  /// Interval solution with the arguments seeded from `paramRanges`
  /// (nullable: all TOP).
  const RangeAnalysis& ranges(const IrFunc& fn, const ModuleSummaries* sums,
                              const VRange* paramRanges);
  /// Value solution over ranges(fn, sums, paramRanges). `paramOrigins`
  /// seeds the arguments with symbolic param origins instead (summary
  /// building); for a function without parameters it changes nothing.
  const ValueResolver& values(const IrFunc& fn, const ModuleSummaries* sums,
                              const VRange* paramRanges,
                              bool paramOrigins = false);
  void invalidate(const IrFunc& fn);

 private:
  struct Solution;  // the solutions for one argument seed
  struct Entry {
    bool hasCfg = false, hasLive = false, hasReach = false;
    Cfg cfg;
    LivenessResult live;
    ReachingDefsResult reach;
    std::vector<std::unique_ptr<Solution>> solutions;
  };
  Solution& solution(const IrFunc& fn, const ModuleSummaries* sums,
                     const VRange* paramRanges);
  std::map<const IrFunc*, Entry> cache_;
};

}  // namespace xmt::analysis
