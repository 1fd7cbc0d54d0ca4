// Lightweight address/alias classification for the race detector and the
// value-range lints (the "joint domain" of the abstract interpreter).
//
// Every definition site in a function is assigned an abstract value of the
// form  base + scale*unique + [offLo, offHi]  where `base` is a global
// symbol or the (shared) stack frame, and `unique` is a per-virtual-thread
// -distinct source: the thread ID ($ / kGetTid) or the result of a
// prefix-sum executed inside the spawn region whose increment is a provably
// positive constant (ps hands out distinct indices — the paper's
// sanctioned concurrent-update idiom, e.g. Fig. 2a compaction). The offset
// is an interval, so multiply-defined loop carriers with affine updates
// stay symbolic (base + stride interval, widened to an infinity sentinel if
// they keep growing) instead of collapsing to Unknown.
//
// Definitions the algebra cannot express do not collapse to Unknown
// either: they become *opaque handles* — a value with its own def-site
// origin and uniqueOrigin=false. Opaque handles preserve the base symbol
// through later additions (dist + 4*opaque keeps base `dist`), which is
// what lets the race detector distinguish "unresolved index into a known
// array" from "write through a genuinely unknown pointer". Function calls
// are no longer a cliff: with module summaries the return value of a
// callee is substituted at the call site (constant range, param-affine
// form, or symbol address), falling back to an opaque handle.
//
// Memory operations are then bucketed into the four address classes the
// detector reasons about: global-symbol, TID-indexed (provably
// thread-private), frame-local (shared — all virtual threads broadcast the
// master's stack pointer), and unknown.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/compiler/analysis/dataflow.h"
#include "src/compiler/analysis/vrange.h"
#include "src/compiler/ir.h"

namespace xmt::analysis {

struct ModuleSummaries;
class RangeAnalysis;

inline constexpr int kOriginNone = -1;
/// Distinguished `unique` source: the virtual thread ID.
inline constexpr int kOriginTid = -2;
/// Function parameter i is origin kOriginParamBase - i (summary building).
inline constexpr int kOriginParamBase = -10;
// Origins >= 0 are definition-site ids: ps/psm results and opaque handles.

inline constexpr int paramOrigin(int i) { return kOriginParamBase - i; }
inline constexpr bool isParamOrigin(int o) { return o <= kOriginParamBase; }
inline constexpr int paramOfOrigin(int o) { return kOriginParamBase - o; }

struct AbsVal {
  enum class Kind : std::uint8_t { kBottom, kValue, kUnknown };
  enum class Base : std::uint8_t { kNone, kSym, kFrame };

  Kind kind = Kind::kBottom;
  Base base = Base::kNone;
  // Names are views into the IR module's own strings (kLa symbols and
  // IrFunc::vregNames), which outlive every analysis of the module, so
  // copying or meeting a value copies no string.
  std::string_view sym;  // when base == kSym
  int origin = kOriginNone;
  bool uniqueOrigin = false;  // origin provably distinct across threads
  std::int64_t scale = 0;  // coefficient of the origin term (0 iff no origin)
  VRange off{0, 0};        // constant offset (the value itself for constants)
  /// Best-effort provenance for diagnostics (variable or symbol name).
  /// Not part of the lattice: survives degradation, excluded from ==.
  std::string_view hint;

  static AbsVal unknown() {
    AbsVal r;
    r.kind = Kind::kUnknown;
    return r;
  }
  static AbsVal constant(std::int64_t v) {
    AbsVal r;
    r.kind = Kind::kValue;
    r.off = VRange::constant(v);
    return r;
  }
  static AbsVal constRange(const VRange& v) {
    AbsVal r;
    r.kind = Kind::kValue;
    r.off = v;
    return r;
  }
  /// Opaque handle for a def site whose value the algebra cannot express.
  static AbsVal opaque(int siteId, std::string_view hintName = {}) {
    AbsVal r;
    r.kind = Kind::kValue;
    r.origin = siteId;
    r.scale = 1;
    r.hint = hintName;
    return r;
  }

  bool isValue() const { return kind == Kind::kValue; }
  bool isConst() const {
    return isValue() && base == Base::kNone && origin == kOriginNone &&
           off.isConst();
  }
  std::int64_t constVal() const { return off.lo; }
  /// Origin >= 0 with uniqueOrigin unset: an opaque handle (or a ps result
  /// the region cannot rely on for distinctness).
  bool hasOpaqueOrigin() const {
    return origin >= 0 ? !uniqueOrigin : isParamOrigin(origin);
  }

  bool operator==(const AbsVal& o) const {
    return kind == o.kind && base == o.base && sym == o.sym &&
           origin == o.origin && uniqueOrigin == o.uniqueOrigin &&
           scale == o.scale && off == o.off;
  }

  /// Lattice meet (kBottom is the identity; same-shape values hull their
  /// offset intervals; different shapes go to kUnknown, keeping the hint).
  void meetWith(const AbsVal& o);
};

/// Addition / negation / constant-multiplication over the AbsVal algebra.
/// Exposed for the summary applier; anything unrepresentable is Unknown.
AbsVal absAdd(const AbsVal& a, const AbsVal& b);
AbsVal absNeg(const AbsVal& a);
AbsVal absMulConst(const AbsVal& a, std::int64_t k);

enum class AddrClass : std::uint8_t {
  kGlobal,      // global symbol at a fixed offset (same address every thread)
  kTidIndexed,  // offset carries a unique per-thread term ($- or ps-derived)
  kFrameLocal,  // master stack frame (shared by all virtual threads!)
  kUnknown,
};

/// One load/store/psm instruction with its resolved address.
struct MemSite {
  int block = 0;
  int instr = 0;
  IOp op = IOp::kLoadW;
  bool write = false;   // store or psm
  bool read = false;    // load or psm
  bool atomic = false;  // kPsm
  int sizeBytes = 4;
  int srcLine = 0;
  int addrReg = -1;     // address operand vreg (for IrFunc::vregNames)
  AbsVal addr;          // effective address (instruction imm folded in)
  AddrClass cls = AddrClass::kUnknown;
  /// Provably distinct across virtual threads (|scale| >= access size plus
  /// the offset-interval width, on a unique origin): no two threads can
  /// touch the same bytes through it.
  bool threadPrivate = false;
};

/// Resolves abstract values for all definition sites of `fn` and extracts
/// its memory sites. Uses (and populates) the manager's cached CFG and
/// reaching-definitions solutions. Optional sharpeners:
///   * `summaries` substitutes callee return values at call sites;
///   * `ranges` supplies numeric facts (the `x & mask` identity) and prunes
///     blocks the interval engine proves unreachable;
///   * `seedParamOrigins` seeds the incoming argument registers with
///     symbolic param origins — used when building this function's summary.
///
/// The analysis consumers do not build their own: AnalysisManager::values
/// owns one resolver per function and argument seed, shared by the
/// summaries, the value lints, the race lint and mcheck. The fixpoint
/// walks blocks in RPO on a flat per-register state and re-walks a block
/// only when a definition reaching it changed, so a loop-free function
/// converges in one sweep. Abstract values view the module's strings
/// (AbsVal::sym, AbsVal::hint): the IrModule must outlive the resolver and
/// everything copied out of it.
class ValueResolver {
 public:
  explicit ValueResolver(const IrFunc& fn, AnalysisManager& am,
                         const ModuleSummaries* summaries = nullptr,
                         const RangeAnalysis* ranges = nullptr,
                         bool seedParamOrigins = false);

  const std::vector<MemSite>& memorySites() const { return memSites_; }
  /// Abstract value of definition site `siteId` (reaching-defs numbering).
  const AbsVal& valueOfDef(int siteId) const {
    return defVals_[static_cast<std::size_t>(siteId)];
  }
  /// Meet over the values reaching `return` statements (kBottom if none).
  const AbsVal& returnValue() const { return retVal_; }

 private:
  std::vector<AbsVal> defVals_;
  std::vector<MemSite> memSites_;
  AbsVal retVal_;
};

}  // namespace xmt::analysis
