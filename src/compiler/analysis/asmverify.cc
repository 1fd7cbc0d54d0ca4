#include "src/compiler/analysis/asmverify.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "src/assembler/assembler.h"
#include "src/assembler/program.h"
#include "src/common/error.h"
#include "src/isa/isa.h"

namespace xmt::analysis {

namespace {

using RegMask = std::uint32_t;

constexpr RegMask kAllRegs = 0xffffffffu;

RegMask bit(int r) { return r < 0 ? 0u : (1u << static_cast<unsigned>(r)); }

// Registers the calling convention defines at a callee's entry: the
// hardware initializes sp, the caller's jal sets ra, and arguments arrive
// in a0..a3. gp/fp are reserved by convention and never read before being
// set by our codegen.
const RegMask kCalleeEntryDefs = bit(kZero) | bit(kSp) | bit(kGp) | bit(kFp) |
                                 bit(kRa) | bit(kA0) | bit(kA1) | bit(kA2) |
                                 bit(kA3);
// At program entry only zero/sp (hardware) and gp/fp (convention) hold
// meaningful values.
const RegMask kMainEntryDefs = bit(kZero) | bit(kSp) | bit(kGp) | bit(kFp);
// Caller-saved registers a call may clobber (plus the scratch regs at/k1
// the runtime reserves). Used as the call's def set in liveness so stale
// values are not considered live across calls.
const RegMask kCallClobbers = bit(kAt) | bit(kV0) | bit(kV1) | bit(kA0) |
                              bit(kA1) | bit(kA2) | bit(kA3) | bit(kT0) |
                              bit(kT1) | bit(kT2) | bit(kT3) | bit(kT4) |
                              bit(kT5) | bit(kT6) | bit(kT7) | bit(kT8) |
                              bit(kT9) | bit(kK1) | bit(kRa);

RegMask defMask(const Instruction& in) {
  int d = regDef(in);
  return d <= 0 ? 0u : bit(d);  // a write to `zero` is architecturally void
}

RegMask useMask(const Instruction& in) {
  int u[3];
  int cnt = regUses(in, u);
  RegMask m = 0;
  for (int i = 0; i < cnt; ++i) m |= bit(u[i]);
  return m & ~bit(kZero);  // reading `zero` never needs a definition
}

struct Verifier {
  const Program& prog;
  const AsmVerifyOptions& opts;
  std::vector<Diagnostic> diags;
  int n;
  std::map<std::uint32_t, std::string> textLabels;  // addr -> first label

  // One finding per (code, instruction, detail) so loops and shared paths
  // do not flood the report.
  std::set<std::tuple<int, int, int>> reported;

  Verifier(const Program& p, const AsmVerifyOptions& o)
      : prog(p), opts(o), n(static_cast<int>(p.text.size())) {
    for (const auto& [name, sym] : prog.symbols)
      if (sym.isText) textLabels.emplace(sym.addr, name);
  }

  const Instruction& at(int i) const {
    return prog.text[static_cast<std::size_t>(i)];
  }

  int indexOf(std::int32_t addr) const {
    std::uint32_t a = static_cast<std::uint32_t>(addr);
    if (a < kTextBase || (a - kTextBase) % 4 != 0) return -1;
    std::uint32_t i = (a - kTextBase) / 4;
    return i < static_cast<std::uint32_t>(n) ? static_cast<int>(i) : -1;
  }

  std::string labelAt(int i) const {
    auto it = textLabels.find(kTextBase + 4u * static_cast<std::uint32_t>(i));
    return it == textLabels.end() ? std::string() : it->second;
  }

  void report(DiagCode code, int i, std::string msg, std::string symbol = {},
              int otherLine = -1, int aux = 0) {
    if (!reported.emplace(static_cast<int>(code), i, aux).second) return;
    Diagnostic d;
    d.code = code;
    d.severity = Severity::kWarning;
    d.line = (i >= 0 && i < n) ? at(i).srcLine : 0;
    d.otherLine = otherLine;
    d.symbol = std::move(symbol);
    d.message = std::move(msg);
    diags.push_back(std::move(d));
  }

  // Successors as the serial (master) processor executes: calls fall
  // through (the callee returns), spawn resumes at the region end,
  // jr/join/halt end the path.
  void masterSuccs(int i, std::vector<int>& out) const {
    out.clear();
    const Instruction& in = at(i);
    switch (in.op) {
      case Op::kJ: {
        int t = indexOf(in.imm);
        if (t >= 0) out.push_back(t);
        return;
      }
      case Op::kJal:
      case Op::kJalr:
        if (i + 1 < n) out.push_back(i + 1);
        return;
      case Op::kJr:
      case Op::kJoin:
      case Op::kHalt:
        return;
      case Op::kSpawn: {
        int c = indexOf(in.imm2);
        if (c >= 0) out.push_back(c);
        return;
      }
      default:
        if (in.isBranch()) {  // conditional beq..bge
          int t = indexOf(in.imm);
          if (t >= 0) out.push_back(t);
        }
        if (i + 1 < n) out.push_back(i + 1);
    }
  }

  // Forward from `entry` (state: `entryDefs` defined, no swnb
  // outstanding): must-defined registers (intersection over paths) and
  // may-outstanding swnb (union over paths), following `succsOf(i, out)`.
  // Region CFGs never expand calls or spawns, so the call and spawn rules
  // only matter for master code.
  template <typename SuccsOf>
  void forwardDefsAndDirty(int entry, RegMask entryDefs, SuccsOf succsOf,
                           std::map<int, RegMask>& mustDefIn,
                           std::map<int, bool>& dirtyIn) const {
    std::vector<int> work{entry};
    std::vector<int> succs;
    mustDefIn[entry] = entryDefs;
    dirtyIn[entry] = false;
    while (!work.empty()) {
      int i = work.back();
      work.pop_back();
      const Instruction& in = at(i);
      RegMask m = mustDefIn[i] | defMask(in);
      if (isCall(in)) m |= bit(kV0) | bit(kV1) | bit(kRa);
      bool d = dirtyIn[i];
      if (drainsStores(in) || in.op == Op::kSpawn) d = false;
      else if (isNonBlockingStore(in)) d = true;
      else if (isCall(in)) d = true;  // mirror the compiler: callee may store
      succsOf(i, succs);
      for (int t : succs) {
        bool changed = false;
        auto it = mustDefIn.find(t);
        if (it == mustDefIn.end()) {
          mustDefIn[t] = m;
          dirtyIn[t] = d;
          changed = true;
        } else {
          if ((it->second & m) != it->second) {
            it->second &= m;
            changed = true;
          }
          if (d && !dirtyIn[t]) {
            dirtyIn[t] = true;
            changed = true;
          }
        }
        if (changed) work.push_back(t);
      }
    }
  }

  // --- Per-function master analyses -------------------------------------

  struct FuncAnalysis {
    std::vector<int> body;                 // reachable instruction indices
    std::map<int, RegMask> mustDefIn;      // defined on all paths, pre-instr
    std::map<int, RegMask> liveIn;         // read before redefinition
    std::map<int, bool> dirtyIn;           // swnb possibly outstanding
  };

  FuncAnalysis analyzeFunction(int entry, bool isProgramEntry) {
    FuncAnalysis fa;
    std::vector<int> succs;

    // Reachability.
    {
      std::set<int> seen;
      std::vector<int> work{entry};
      while (!work.empty()) {
        int i = work.back();
        work.pop_back();
        if (!seen.insert(i).second) continue;
        masterSuccs(i, succs);
        for (int t : succs) work.push_back(t);
      }
      fa.body.assign(seen.begin(), seen.end());
    }

    forwardDefsAndDirty(
        entry, isProgramEntry ? kMainEntryDefs : kCalleeEntryDefs,
        [this](int i, std::vector<int>& out) { masterSuccs(i, out); },
        fa.mustDefIn, fa.dirtyIn);

    // Backward: liveness. jal's clobber set kills values across calls and
    // its a0..a3 use keeps outgoing arguments alive; jr keeps the v0
    // return value alive into the caller.
    {
      bool changed = true;
      while (changed) {
        changed = false;
        for (auto it = fa.body.rbegin(); it != fa.body.rend(); ++it) {
          int i = *it;
          const Instruction& in = at(i);
          RegMask liveOut = 0;
          masterSuccs(i, succs);
          for (int t : succs) liveOut |= fa.liveIn[t];
          RegMask defs = defMask(in);
          RegMask uses = useMask(in);
          if (isCall(in)) {
            defs |= kCallClobbers;
            uses |= bit(kA0) | bit(kA1) | bit(kA2) | bit(kA3);
          }
          if (in.op == Op::kJr) uses |= bit(kV0);
          RegMask li = uses | (liveOut & ~defs);
          if (li != fa.liveIn[i]) {
            fa.liveIn[i] = li;
            changed = true;
          }
        }
      }
    }
    return fa;
  }

  // --- Spawn-region checks ----------------------------------------------

  // Successors inside a region: join ends a thread; illegal control
  // transfers (spawn/halt/calls/returns) are reported separately and not
  // expanded.
  void regionSuccs(int i, std::vector<int>& out) const {
    out.clear();
    const Instruction& in = at(i);
    switch (in.op) {
      case Op::kJ: {
        int t = indexOf(in.imm);
        if (t >= 0) out.push_back(t);
        return;
      }
      case Op::kJoin:
      case Op::kSpawn:
      case Op::kHalt:
      case Op::kJal:
      case Op::kJalr:
      case Op::kJr:
        return;
      default:
        if (in.isBranch()) {
          int t = indexOf(in.imm);
          if (t >= 0) out.push_back(t);
        }
        out.push_back(i + 1);  // may be == region end; caught as an escape
    }
  }

  void checkRegion(int si, RegMask broadcast, RegMask contLive) {
    const Instruction& sp = at(si);
    int s = indexOf(sp.imm);
    int c = indexOf(sp.imm2);
    std::string regionLbl = s >= 0 ? labelAt(s) : std::string();
    if (s < 0 || c < 0 || s >= c) {
      report(DiagCode::kAsmBadRegion, si,
             "spawn bounds do not form a valid text range (start 0x" +
                 toHex(sp.imm) + ", end 0x" + toHex(sp.imm2) + ")",
             regionLbl);
      return;
    }

    // Reachable region instructions; escapes and illegal ops on the way.
    std::set<int> body;
    bool sawJoin = false;
    {
      std::vector<int> work{s};
      std::vector<int> succs;
      while (!work.empty()) {
        int i = work.back();
        work.pop_back();
        if (!body.insert(i).second) continue;
        const Instruction& in = at(i);
        if (in.op == Op::kJoin) sawJoin = true;
        const char* illegal =
            in.op == Op::kSpawn  ? "nested spawn"
            : in.op == Op::kHalt ? "halt"
            : isCall(in)         ? "function call"
            : in.op == Op::kJr   ? "jr (no calls or returns in parallel code)"
                                 : nullptr;
        if (illegal)
          report(DiagCode::kAsmIllegalInRegion, i,
                 std::string(illegal) + " inside spawn region", regionLbl, -1,
                 i);
        if ((useMask(in) | defMask(in)) & bit(kSp))
          report(DiagCode::kAsmParallelStack, i,
                 "sp referenced inside spawn region ('" + disassemble(in) +
                     "'): there is no parallel stack",
                 regionLbl, -1, i);
        regionSuccs(i, succs);
        for (int t : succs) {
          if (t < s || t >= c) {
            std::string where = labelAt(t);
            report(DiagCode::kAsmRegionEscape, i,
                   "control flow leaves the spawn region ('" +
                       disassemble(in) + "' reaches " +
                       (where.empty() ? ("instruction " + std::to_string(t))
                                      : where) +
                       "): TCUs only fetch the broadcast range",
                   regionLbl, t >= 0 && t < n ? at(t).srcLine : -1, i);
          } else {
            work.push_back(t);
          }
        }
      }
    }
    if (!sawJoin)
      report(DiagCode::kAsmMissingJoin, si,
             "no reachable join terminates the spawn region", regionLbl);

    // Forward over the region CFG (TCUs start with an empty store queue and
    // the broadcast master registers): swnb-dirty (union) + must-defined
    // registers (intersection).
    std::map<int, RegMask> mustDefIn;
    std::map<int, bool> dirtyIn;
    forwardDefsAndDirty(
        s, broadcast | bit(kZero) | bit(kTid),
        [&](int i, std::vector<int>& out) {
          regionSuccs(i, out);  // escapes are already reported
          out.erase(std::remove_if(out.begin(), out.end(),
                                   [&](int t) { return t < s || t >= c; }),
                    out.end());
        },
        mustDefIn, dirtyIn);

    RegMask regionWrites = 0;
    for (int i : body) {
      const Instruction& in = at(i);
      regionWrites |= defMask(in);
      bool dirty = dirtyIn.count(i) && dirtyIn[i];
      if (isPrefixSum(in) && dirty)
        report(DiagCode::kAsmMissingFence, i,
               "path to '" + std::string(opInfo(in.op).name) +
                   "' with an outstanding swnb and no fence",
               regionLbl, -1, i);
      if (opts.strictJoinFence && in.op == Op::kJoin && dirty)
        report(DiagCode::kAsmSwnbAtJoin, i,
               "swnb outstanding at join (strict Section IV-A)", regionLbl, -1,
               i);
      // Every register read must be locally defined on all paths, a
      // broadcast master value, or a TCU-local special. at/k1 are runtime
      // scratch and never carry values into a region.
      RegMask defined =
          (mustDefIn.count(i) ? mustDefIn[i] : kAllRegs) | bit(kAt) | bit(kK1);
      RegMask missing = useMask(in) & ~defined & ~bit(kSp);
      for (int r = 0; r < kNumRegs && missing; ++r) {
        if (!(missing & bit(r))) continue;
        missing &= ~bit(r);
        report(DiagCode::kAsmUndefSpawnReg, i,
               "register " + std::string(regName(r)) +
                   " read inside spawn region ('" + disassemble(in) +
                   "') is neither locally defined nor a broadcast master "
                   "value",
               regionLbl, -1, i * kNumRegs + r);
      }
    }

    // Fig. 8 at machine level: a register written by the region and read by
    // the serial continuation is a lost update — TCU register files are
    // discarded at join. tid/zero are TCU-local; at/k1 are scratch.
    RegMask conflict = regionWrites & contLive &
                       ~(bit(kZero) | bit(kTid) | bit(kAt) | bit(kK1));
    for (int r = 0; r < kNumRegs && conflict; ++r) {
      if (!(conflict & bit(r))) continue;
      conflict &= ~bit(r);
      int defAt = -1;
      for (int i : body)
        if (defMask(at(i)) & bit(r)) {
          defAt = i;
          break;
        }
      report(DiagCode::kAsmRegionDataflow, defAt >= 0 ? defAt : si,
             "register " + std::string(regName(r)) +
                 " written inside spawn region but read by the serial "
                 "continuation: TCU registers are discarded at join "
                 "(Fig. 8 illegal dataflow)",
             std::string(regName(r)), c < n ? at(c).srcLine : -1, r);
    }
  }

  static std::string toHex(std::int32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%x", static_cast<std::uint32_t>(v));
    return buf;
  }

  void run() {
    if (n == 0) return;

    // Function entries: the program entry plus every jal target.
    std::set<int> entries;
    int mainIdx = indexOf(static_cast<std::int32_t>(prog.entry));
    if (mainIdx >= 0) entries.insert(mainIdx);
    for (int i = 0; i < n; ++i)
      if (at(i).op == Op::kJal) {
        int t = indexOf(at(i).imm);
        if (t >= 0) entries.insert(t);
      }

    // Master-side state at each spawn, merged across the functions that
    // reach it: broadcast register file (must-defined: intersection),
    // continuation liveness (union), store-queue state (union).
    std::map<int, RegMask> spawnBroadcast;
    std::map<int, RegMask> spawnContLive;
    for (int entry : entries) {
      FuncAnalysis fa = analyzeFunction(entry, entry == mainIdx);
      for (int i : fa.body) {
        const Instruction& in = at(i);
        bool dirty = fa.dirtyIn.count(i) && fa.dirtyIn[i];
        if (isPrefixSum(in) && dirty)
          report(DiagCode::kAsmMissingFence, i,
                 "path to '" + std::string(opInfo(in.op).name) +
                     "' with an outstanding swnb and no fence",
                 labelAt(entry), -1, i);
        if (in.op != Op::kSpawn) continue;
        if ((opts.strictJoinFence || opts.strictSpawnFence) && dirty)
          report(DiagCode::kAsmSwnbAtJoin, i,
                 "swnb outstanding at spawn (strict Section IV-A)",
                 labelAt(entry), -1, i);
        RegMask md = fa.mustDefIn.count(i) ? fa.mustDefIn[i] : kAllRegs;
        auto it = spawnBroadcast.find(i);
        if (it == spawnBroadcast.end()) spawnBroadcast[i] = md;
        else it->second &= md;
        int c = indexOf(in.imm2);
        RegMask live = (c >= 0 && fa.liveIn.count(c)) ? fa.liveIn[c] : 0;
        spawnContLive[i] |= live;
      }
    }

    // Region checks for every spawn in the text. Spawns unreachable from
    // any entry get a full broadcast mask (their definedness cannot be
    // judged) and empty continuation liveness.
    for (int i = 0; i < n; ++i) {
      if (at(i).op != Op::kSpawn) continue;
      RegMask broadcast =
          spawnBroadcast.count(i) ? spawnBroadcast[i] : kAllRegs;
      RegMask live = spawnContLive.count(i) ? spawnContLive[i] : 0;
      checkRegion(i, broadcast, live);
    }
  }
};

}  // namespace

std::vector<Diagnostic> verifyAssembly(const Program& prog,
                                       const AsmVerifyOptions& opts) {
  Verifier v(prog, opts);
  v.run();
  return std::move(v.diags);
}

std::vector<Diagnostic> verifyAssembly(const std::string& asmText,
                                       const AsmVerifyOptions& opts) {
  Program prog;
  try {
    prog = assemble(asmText);
  } catch (const Error& e) {
    Diagnostic d;
    d.code = DiagCode::kAsmUnassemblable;
    d.severity = Severity::kWarning;
    d.message = std::string("assembly does not decode: ") + e.what();
    return {std::move(d)};
  }
  return verifyAssembly(prog, opts);
}

}  // namespace xmt::analysis
