#include "src/compiler/analysis/racecheck.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/compiler/analysis/alias.h"
#include "src/compiler/analysis/summary.h"
#include "src/compiler/analysis/xmtai.h"

namespace xmt::analysis {

namespace {

/// Blocks of the spawn region whose body entry is `entry`: everything
/// reachable from it while the `parallel` flag holds.
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

/// Bucket key: the symbolic base two accesses must share to be comparable.
std::string bucketKey(const AbsVal& addr) {
  switch (addr.base) {
    case AbsVal::Base::kSym: return std::string(addr.sym);
    case AbsVal::Base::kFrame: return "<frame>";
    case AbsVal::Base::kNone: return "<absolute>";
  }
  return "<absolute>";
}

/// Largest |c1 - c2| over the two offset intervals (saturated).
std::int64_t maxDelta(const VRange& c1, const VRange& c2) {
  return std::max(c1.hi - c2.lo, c2.hi - c1.lo);
}

/// Can the two byte intervals [c + 0, c + size) intersect for some choice
/// of offsets in the ranges?
bool byteIntervalsMayOverlap(const VRange& c1, int size1, const VRange& c2,
                             int size2) {
  return c1.lo <= c2.hi + size2 - 1 && c2.lo <= c1.hi + size1 - 1;
}

/// True when the two sites (possibly the same site, executed by two
/// distinct virtual threads) can touch overlapping bytes. `uniformOrigin`
/// answers whether a def-site origin is thread-invariant (serial-defined).
bool mayOverlapAcrossThreads(
    const MemSite& x, const MemSite& y,
    const std::function<bool(int)>& uniformOrigin) {
  const AbsVal& a = x.addr;
  const AbsVal& b = y.addr;
  if (a.origin != b.origin || a.uniqueOrigin != b.uniqueOrigin) {
    // Unrelated index spaces (or only one side indexed): assume collision.
    return true;
  }
  if (a.origin != kOriginNone && a.uniqueOrigin) {
    // base + s*u + c with u distinct across threads. With equal scales the
    // starts differ by s*(u-u') + (c1-c2) and |s*(u-u')| >= |s|, so
    // |s| >= maxSize + max|c1-c2| rules overlap out.
    if (a.scale != b.scale) return true;
    std::int64_t maxSize = std::max(x.sizeBytes, y.sizeBytes);
    return std::llabs(a.scale) < maxSize + maxDelta(a.off, b.off);
  }
  if (a.origin != kOriginNone) {
    // Same non-unique origin. If it is thread-invariant (broadcast from
    // serial code — e.g. a serial ps result), both addresses share the
    // same concrete origin value, so with equal scales the byte-interval
    // test on the offsets decides. A per-thread origin proves nothing.
    if (!uniformOrigin(a.origin) || a.scale != b.scale) return true;
  }
  // Thread-invariant addresses: conflict iff the byte intervals can touch.
  return byteIntervalsMayOverlap(a.off, x.sizeBytes, b.off, y.sizeBytes);
}

struct Reporter {
  std::vector<Diagnostic>& out;
  std::set<std::pair<std::string, DiagCode>> emitted;

  void report(DiagCode code, const std::string& symbol, int line,
              int otherLine, std::string message) {
    if (!emitted.insert({symbol, code}).second) return;
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kWarning;
    d.line = line;
    d.otherLine = otherLine;
    d.symbol = symbol;
    d.message = std::move(message);
    out.push_back(std::move(d));
  }
};

/// Name for an unresolved-address report: the value's provenance hint, the
/// source name of the address vreg, or "<unknown>".
std::string unresolvedName(const IrFunc& fn, const MemSite& m) {
  if (!m.addr.hint.empty()) return std::string(m.addr.hint);
  if (auto it = fn.vregNames.find(m.addrReg); it != fn.vregNames.end())
    return it->second;
  return "<unknown>";
}

void checkRegion(const IrFunc& fn, const std::vector<MemSite>& sites,
                 const std::function<bool(int)>& uniformOrigin,
                 Reporter& rep) {
  std::map<std::string, std::vector<const MemSite*>> buckets;
  for (const MemSite& m : sites) {
    // A value with a per-thread opaque origin is an index the algebra
    // could not express. With a known base this is an unresolved index
    // into a known array — excluded from the bucket instead of reported
    // (see racecheck.h); with no base it is a genuinely unknown pointer.
    bool opaqueIdx = m.addr.isValue() && m.addr.origin >= 0 &&
                     !m.addr.uniqueOrigin && !uniformOrigin(m.addr.origin);
    if (!m.addr.isValue() || (opaqueIdx && m.addr.base == AbsVal::Base::kNone)) {
      if (m.write && !m.atomic) {
        std::string name = unresolvedName(fn, m);
        std::string what =
            name == "<unknown>" ? "unresolved address"
                                : "unresolved address '" + name + "'";
        rep.report(DiagCode::kRaceUnknownAddress, name, m.srcLine, -1,
                   "write through " + what +
                       " inside spawn region may race");
      }
      // Unresolved reads are ignored (see header).
      continue;
    }
    if (opaqueIdx) continue;  // unresolved index into a known base: silent
    buckets[bucketKey(m.addr)].push_back(&m);
  }

  for (auto& [sym, v] : buckets) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      for (std::size_t j = i; j < v.size(); ++j) {
        const MemSite& a = *v[i];
        const MemSite& b = *v[j];
        if (!a.write && !b.write) continue;     // read/read never races
        if (a.atomic && b.atomic) continue;     // ps-mediated updates
        if (!mayOverlapAcrossThreads(a, b, uniformOrigin)) continue;
        bool ww = a.write && b.write;
        std::string what = sym == "<frame>" ? "shared stack location"
                                            : "'" + sym + "'";
        if (ww) {
          rep.report(DiagCode::kRaceWriteWrite, sym, a.srcLine, b.srcLine,
                     "concurrent virtual threads may write " + what +
                         " at the same address");
        } else {
          const MemSite& w = a.write ? a : b;
          const MemSite& r = a.write ? b : a;
          rep.report(DiagCode::kRaceReadWrite, sym, r.srcLine, w.srcLine,
                     "read of " + what +
                         " may race with a concurrent write");
        }
      }
    }
  }
}

}  // namespace

void analyzeFunctionRaces(const IrFunc& fn, AnalysisManager& am,
                          std::vector<Diagnostic>& out,
                          const ModuleSummaries* summaries) {
  // Collect spawn body entries first; skip the whole analysis otherwise.
  std::vector<int> entries;
  for (const IrBlock& b : fn.blocks)
    if (!b.instrs.empty() && b.instrs.back().op == IOp::kSpawn)
      entries.push_back(b.instrs.back().t1);
  if (entries.empty()) return;

  const Cfg& cfg = am.cfg(fn);
  const ValueResolver& resolver = am.values(
      fn, summaries,
      summaries != nullptr ? summaries->paramRangesOf(fn.name) : nullptr);

  // A def-site origin is uniform (thread-invariant) when it was defined in
  // serial code: the functional model broadcasts the master's state, so
  // every virtual thread observes the same value.
  const ReachingDefsResult& rd = am.reachingDefs(fn);
  auto uniformOrigin = [&](int origin) {
    if (origin < 0 || static_cast<std::size_t>(origin) >= rd.sites.size())
      return false;
    int blk = rd.sites[static_cast<std::size_t>(origin)].block;
    return !fn.blocks[static_cast<std::size_t>(blk)].parallel;
  };

  // Index the function's memory sites by block for region filtering.
  std::map<int, std::vector<const MemSite*>> sitesByBlock;
  for (const MemSite& m : resolver.memorySites())
    sitesByBlock[m.block].push_back(&m);

  Reporter rep{out, {}};
  for (int entry : entries) {
    std::vector<MemSite> regionSites;
    for (int b : regionBlocks(fn, cfg, entry)) {
      auto it = sitesByBlock.find(b);
      if (it == sitesByBlock.end()) continue;
      for (const MemSite* m : it->second) regionSites.push_back(*m);
    }
    checkRegion(fn, regionSites, uniformOrigin, rep);
  }
}

void applyExplorationVerdicts(std::vector<Diagnostic>& diags, bool verified) {
  if (!verified) return;
  for (Diagnostic& d : diags) {
    if (!isRaceDiag(d) || d.severity == Severity::kNote) continue;
    d.severity = Severity::kNote;
    d.message +=
        " — downgraded: exhaustive interleaving exploration (xmtmc) "
        "verified every spawn region race-free";
  }
}

}  // namespace xmt::analysis
