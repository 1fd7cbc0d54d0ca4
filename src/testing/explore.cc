#include "src/testing/explore.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/compiler/driver.h"
#include "src/sim/simulator.h"

namespace xmt::testing {

namespace {

using OpKind = RegionExec::OpKind;

bool isMemKind(OpKind k) {
  return k == OpKind::kLoad || k == OpKind::kStore || k == OpKind::kPsm;
}
bool isGrKind(OpKind k) {
  return k == OpKind::kPs || k == OpKind::kGrRead || k == OpKind::kGrWrite;
}

bool contains(const std::vector<std::size_t>& v, std::size_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

std::string hex64(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << v;
  return s.str();
}

const char* accessWord(const RegionExec::VisibleOp& op) {
  if (op.kind == OpKind::kPsm) return "psm";
  return op.write ? "write" : "read";
}

}  // namespace

std::string renderSchedule(const std::vector<std::uint32_t>& schedule) {
  std::string out = "[";
  for (std::size_t i = 0; i < schedule.size();) {
    std::size_t j = i;
    while (j < schedule.size() && schedule[j] == schedule[i]) ++j;
    if (i != 0) out += " ";
    out += "t" + std::to_string(schedule[i]);
    if (j - i > 1) out += "*" + std::to_string(j - i);
    i = j;
  }
  return out + "]";
}

McExplorer::McExplorer(const Program& prog, const McOptions& opts,
                       const analysis::McStaticFacts* facts)
    : prog_(prog), opts_(opts), facts_(facts) {
  for (const auto& [name, sym] : prog.symbols) {
    if (sym.isText) continue;
    dataSyms_.push_back(
        {sym.addr, {std::max<std::uint32_t>(sym.size, 4u), name}});
  }
  std::sort(dataSyms_.begin(), dataSyms_.end());
}

std::string McExplorer::symbolAt(std::uint32_t addr) const {
  for (const auto& [base, ext] : dataSyms_)
    if (addr >= base && addr < base + ext.first) return ext.second;
  return "<unknown>";
}

McExplorer::PairClass McExplorer::classifyPair(
    const RegionExec::VisibleOp& a, const RegionExec::VisibleOp& b) const {
  PairClass r;
  if (isMemKind(a.kind) && isMemKind(b.kind)) {
    bool overlap = a.addr < b.addr + b.size && b.addr < a.addr + a.size;
    if (!overlap) return r;
    if (a.kind == OpKind::kPsm && b.kind == OpKind::kPsm) {
      if (opts_.staticPrune && facts_ != nullptr &&
          facts_->commutativePsmSymbols.count(symbolAt(a.addr)) != 0) {
        r.pruned = true;  // every psm that can land here commutes
        return r;
      }
      r.dependent = true;  // sanctioned update, but result order is visible
      return r;
    }
    if (opts_.staticPrune && facts_ != nullptr && !a.atomic && !b.atomic &&
        a.srcLine == b.srcLine &&
        facts_->privateSymbols.count(symbolAt(a.addr)) != 0) {
      // threadPrivate is a per-site claim: two *instances of the same
      // instruction* in different threads never overlap. Seeing them
      // overlap dynamically means the static algebra was wrong. (Distinct
      // sites inside a private symbol may legitimately collide — that is
      // an ordinary race, reported below.)
      r.dependent = true;
      r.hasViolation = true;
      r.violation = DiagCode::kMcStaticUnsound;
      return r;
    }
    if (!a.write && !b.write) return r;
    r.dependent = true;
    r.hasViolation = true;
    r.violation = DiagCode::kMcRace;
    return r;
  }
  if (isGrKind(a.kind) && isGrKind(b.kind) && a.addr == b.addr) {
    if (a.kind == OpKind::kPs && b.kind == OpKind::kPs) {
      if (opts_.staticPrune && facts_ != nullptr &&
          facts_->commutativePsGrs.count(static_cast<int>(a.addr)) != 0) {
        r.pruned = true;
        return r;
      }
      r.dependent = true;
      return r;
    }
    if (a.kind == OpKind::kGrRead && b.kind == OpKind::kGrRead) return r;
    r.dependent = true;
    r.hasViolation = true;
    r.violation = DiagCode::kMcGrConflict;
    return r;
  }
  // Output-output (transcript order is tolerated and masked), joins, and
  // mixed memory/gr spaces never conflict.
  return r;
}

void McExplorer::recordViolation(DiagCode code,
                                 const RegionExec::VisibleOp& earlier,
                                 const RegionExec::VisibleOp& later,
                                 std::uint64_t spawnSeq,
                                 const std::vector<std::uint32_t>& schedule) {
  std::string sym;
  if (isMemKind(later.kind))
    sym = symbolAt(later.addr);
  else
    sym = "gr" + std::to_string(later.addr);
  std::string key = std::string(diagCodeTag(code)) + ":" +
                    std::to_string(earlier.srcLine) + ":" +
                    std::to_string(later.srcLine) + ":" + sym;
  if (!emitted_.insert(key).second) return;

  Diagnostic d;
  d.code = code;
  d.severity = Severity::kError;
  d.line = later.srcLine;
  d.otherLine = earlier.srcLine;
  d.symbol = sym;
  std::string where = sym == "<unknown>" ? "a shared location" : "'" + sym + "'";
  switch (code) {
    case DiagCode::kMcRace:
      d.message = "data race on " + where + ": " + accessWord(earlier) +
                  " at line " + std::to_string(earlier.srcLine) + " vs " +
                  accessWord(later) + " at line " +
                  std::to_string(later.srcLine) + "; witness schedule " +
                  renderSchedule(schedule);
      break;
    case DiagCode::kMcGrConflict:
      d.message = "non-ps conflict on global register " + sym +
                  " between lines " + std::to_string(earlier.srcLine) +
                  " and " + std::to_string(later.srcLine) +
                  "; witness schedule " + renderSchedule(schedule);
      break;
    case DiagCode::kMcStaticUnsound:
      d.message = "static independence contradicted: accesses inside " +
                  where +
                  " were proven pairwise thread-private but overlap "
                  "dynamically (asm lines " +
                  std::to_string(earlier.srcLine) + ", " +
                  std::to_string(later.srcLine) + "); witness schedule " +
                  renderSchedule(schedule);
      break;
    default:
      d.message = "model-check violation; witness schedule " +
                  renderSchedule(schedule);
      break;
  }
  McViolation v;
  v.diag = d;
  v.spawnSeq = spawnSeq;
  v.schedule = schedule;
  violations_.push_back(std::move(v));
  diagnostics_.push_back(std::move(d));
}

std::uint64_t McExplorer::digestState(const FuncModel& fm) const {
  FuncModel::ArchState s = fm.saveArchState();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> masks;
  auto addMask = [&](const std::string& name) {
    if (!prog_.hasSymbol(name)) return;
    const Symbol& sy = prog_.symbol(name);
    if (sy.isText) return;
    masks.push_back(
        {sy.addr, sy.addr + std::max<std::uint32_t>(sy.size, 4u)});
  };
  for (const std::string& name : opts_.digestExclude) addMask(name);
  if (facts_ != nullptr)
    for (const std::string& name : facts_->orderPermutedSymbols)
      addMask(name);

  std::sort(s.pages.begin(), s.pages.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Fnv1a64 h;
  for (auto& [pageIndex, bytes] : s.pages) {
    // snapshot() keys pages by index, not byte address.
    std::uint64_t pageBase = static_cast<std::uint64_t>(pageIndex)
                             << SparseMemory::kPageBits;
    for (const auto& [lo, hi] : masks) {
      std::uint64_t pLo = pageBase, pHi = pageBase + bytes.size();
      std::uint64_t a = std::max<std::uint64_t>(lo, pLo);
      std::uint64_t b = std::min<std::uint64_t>(hi, pHi);
      for (std::uint64_t x = a; x < b; ++x) bytes[x - pLo] = 0;
    }
    bool allZero = true;
    for (std::uint8_t b : bytes)
      if (b != 0) {
        allZero = false;
        break;
      }
    // A zero-filled page is indistinguishable from an untouched one; skip
    // it so traces differing only in lazy page allocation digest equal.
    if (allZero) continue;
    h.word(pageBase);
    for (std::uint8_t b : bytes) h.byte(b);
  }
  for (std::uint32_t g : s.gr) h.word<std::uint64_t>(g);
  return h.value();
}

void McExplorer::explore(FuncModel& fm, const Context& master,
                         std::uint32_t startPc, std::uint32_t low,
                         std::uint32_t high, std::uint64_t spawnSeq,
                         std::uint64_t instrBudget,
                         const FuncModel::ArchState& entry,
                         McRegionReport& rep) {
  std::vector<Node> nodes;
  bool outOfBudget = false;
  haveRef_ = false;
  for (;;) {
    if (rep.traces >= opts_.maxTracesPerRegion ||
        rep.transitions >= opts_.maxTransitionsPerRegion) {
      outOfBudget = true;
      break;
    }
    fm.restoreArchState(entry);
    RegionExec exec(fm, master, startPc, low, high, spawnSeq, instrBudget,
                    /*eager=*/true);
    const std::size_t n = exec.threadCount();
    std::vector<std::vector<std::uint32_t>> clocks(
        n, std::vector<std::uint32_t>(n, 0));
    std::vector<std::uint32_t> schedule;
    std::vector<std::size_t> childSleep;
    bool slept = false;
    std::size_t depth = 0;
    while (!exec.allDone()) {
      if (rep.transitions >= opts_.maxTransitionsPerRegion) {
        outOfBudget = true;
        break;
      }
      if (depth == nodes.size()) {
        Node fresh;
        fresh.sleepBase = childSleep;
        std::size_t pick = n;
        for (std::size_t t = 0; t < n; ++t) {
          if (exec.done(t) || contains(fresh.sleepBase, t)) continue;
          pick = t;
          break;
        }
        if (pick == n) {  // every enabled thread is asleep: redundant prefix
          slept = true;
          ++rep.sleepSkips;
          break;
        }
        fresh.chosen = pick;
        fresh.done.push_back(pick);
        fresh.backtrack.push_back(pick);
        nodes.push_back(std::move(fresh));
      }
      Node& node = nodes[depth];
      const std::size_t t = node.chosen;
      RegionExec::VisibleOp op = exec.step(t, nullptr, nullptr);
      ++rep.transitions;
      schedule.push_back(static_cast<std::uint32_t>(t));

      // Vector-clock scan, latest first. `c` accumulates the joins of all
      // later-than-f dependent steps, so the happens-before test against it
      // recognizes chains through intermediaries.
      std::vector<std::uint32_t> c = clocks[t];
      for (std::size_t i = depth; i-- > 0;) {
        const StepRec& f = nodes[i].step;
        if (f.thread == t) continue;
        PairClass pc = classifyPair(f.op, op);
        if (pc.pruned) {
          ++rep.prunedPairs;
          continue;
        }
        if (!pc.dependent) continue;
        bool hb = f.clockAfter[f.thread] <= c[f.thread];
        if (!hb) {
          if (!contains(nodes[i].backtrack, t)) nodes[i].backtrack.push_back(t);
          if (pc.hasViolation)
            recordViolation(pc.violation, f.op, op, spawnSeq, schedule);
        } else if (pc.hasViolation &&
                   pc.violation == DiagCode::kMcStaticUnsound) {
          recordViolation(pc.violation, f.op, op, spawnSeq, schedule);
        }
        for (std::size_t k = 0; k < n; ++k)
          c[k] = std::max(c[k], f.clockAfter[k]);
      }
      c[t] += 1;
      clocks[t] = c;
      node.step.thread = t;
      node.step.op = op;
      node.step.clockAfter = clocks[t];

      // Sleep set for the next depth: previously explored siblings and the
      // inherited sleepers stay asleep while their pending op is
      // independent of the op just executed.
      childSleep.clear();
      auto keepAsleep = [&](std::size_t q) {
        if (q == t || exec.done(q) || contains(childSleep, q)) return;
        if (!classifyPair(exec.pending(q), op).dependent) childSleep.push_back(q);
      };
      for (std::size_t q : node.sleepBase) keepAsleep(q);
      for (std::size_t q : node.done) keepAsleep(q);
      ++depth;
    }
    if (outOfBudget) break;

    if (!slept) {
      ++rep.traces;
      std::uint64_t dig = digestState(fm);
      if (!haveRef_) {
        haveRef_ = true;
        refDigest_ = dig;
        std::vector<std::uint64_t> cnt(n, 0);
        for (std::uint32_t x : schedule) ++cnt[x];
        double lg =
            std::lgamma(static_cast<double>(schedule.size()) + 1.0);
        for (std::uint64_t k : cnt)
          lg -= std::lgamma(static_cast<double>(k) + 1.0);
        rep.naiveLog10 = lg / std::log(10.0);
      } else if (dig != refDigest_) {
        std::string key = "order:" + std::to_string(spawnSeq);
        if (emitted_.insert(key).second) {
          Diagnostic d;
          d.code = DiagCode::kMcOrderDependent;
          d.severity = Severity::kError;
          d.line = 0;
          d.symbol = "<region " + std::to_string(spawnSeq) + ">";
          d.message =
              "spawn region " + std::to_string(spawnSeq) +
              " is order-dependent: final state digest " + hex64(dig) +
              " under schedule " + renderSchedule(schedule) +
              " differs from the serial schedule's " + hex64(refDigest_);
          McViolation v;
          v.diag = d;
          v.spawnSeq = spawnSeq;
          v.schedule = schedule;
          violations_.push_back(std::move(v));
          diagnostics_.push_back(std::move(d));
        }
      }
    }

    // Backtrack: deepest node with an unexplored, non-sleeping candidate.
    bool advanced = false;
    while (!nodes.empty()) {
      Node& nb = nodes.back();
      std::size_t pick = static_cast<std::size_t>(-1);
      for (std::size_t cand : nb.backtrack) {
        if (contains(nb.done, cand) || contains(nb.sleepBase, cand)) continue;
        if (pick == static_cast<std::size_t>(-1) || cand < pick) pick = cand;
      }
      if (pick != static_cast<std::size_t>(-1)) {
        nb.chosen = pick;
        nb.done.push_back(pick);
        advanced = true;
        break;
      }
      nodes.pop_back();
    }
    if (!advanced) {
      rep.exhaustive = true;
      break;
    }
  }

  if (outOfBudget) {
    rep.exhaustive = false;
    Diagnostic d;
    d.code = DiagCode::kMcBudgetExhausted;
    d.severity = Severity::kWarning;
    d.line = 0;
    d.symbol = "<region " + std::to_string(spawnSeq) + ">";
    d.message = "spawn region " + std::to_string(spawnSeq) +
                " exceeded the exploration budget after " +
                std::to_string(rep.traces) + " traces / " +
                std::to_string(rep.transitions) +
                " transitions; verification is NOT exhaustive (" +
                std::to_string(opts_.perturbRounds) +
                " seeded random schedules checked instead)";
    diagnostics_.push_back(std::move(d));
    perturb(fm, master, startPc, low, high, spawnSeq, instrBudget, entry,
            rep);
  }
}

void McExplorer::perturb(FuncModel& fm, const Context& master,
                         std::uint32_t startPc, std::uint32_t low,
                         std::uint32_t high, std::uint64_t spawnSeq,
                         std::uint64_t instrBudget,
                         const FuncModel::ArchState& entry,
                         McRegionReport& rep) {
  for (int round = 0; round < opts_.perturbRounds; ++round) {
    fm.restoreArchState(entry);
    RegionExec exec(fm, master, startPc, low, high, spawnSeq, instrBudget,
                    /*eager=*/true);
    const std::size_t n = exec.threadCount();
    Rng rng(opts_.perturbSeed * 0x9e3779b97f4a7c15ull +
            spawnSeq * 1000003ull + static_cast<std::uint64_t>(round));
    std::vector<StepRec> steps;
    std::vector<std::vector<std::uint32_t>> clocks(
        n, std::vector<std::uint32_t>(n, 0));
    std::vector<std::uint32_t> schedule;
    std::vector<std::size_t> live;
    for (std::size_t t = 0; t < n; ++t) live.push_back(t);
    while (!live.empty()) {
      std::size_t idx = static_cast<std::size_t>(rng.below(live.size()));
      std::size_t t = live[idx];
      RegionExec::VisibleOp op = exec.step(t, nullptr, nullptr);
      schedule.push_back(static_cast<std::uint32_t>(t));
      std::vector<std::uint32_t> c = clocks[t];
      for (std::size_t i = steps.size(); i-- > 0;) {
        const StepRec& f = steps[i];
        if (f.thread == t) continue;
        PairClass pc = classifyPair(f.op, op);
        if (pc.pruned || !pc.dependent) continue;
        bool hb = f.clockAfter[f.thread] <= c[f.thread];
        if (pc.hasViolation &&
            (!hb || pc.violation == DiagCode::kMcStaticUnsound))
          recordViolation(pc.violation, f.op, op, spawnSeq, schedule);
        for (std::size_t k = 0; k < n; ++k)
          c[k] = std::max(c[k], f.clockAfter[k]);
      }
      c[t] += 1;
      clocks[t] = c;
      steps.push_back({t, op, clocks[t]});
      if (exec.done(t)) {
        live[idx] = live.back();
        live.pop_back();
      }
    }
    if (haveRef_ && digestState(fm) != refDigest_) {
      std::string key = "order:" + std::to_string(spawnSeq);
      if (emitted_.insert(key).second) {
        Diagnostic d;
        d.code = DiagCode::kMcOrderDependent;
        d.severity = Severity::kError;
        d.line = 0;
        d.symbol = "<region " + std::to_string(spawnSeq) + ">";
        d.message = "spawn region " + std::to_string(spawnSeq) +
                    " is order-dependent (found by seeded perturbation): "
                    "schedule " +
                    renderSchedule(schedule) +
                    " diverges from the serial schedule's final state";
        McViolation v;
        v.diag = d;
        v.spawnSeq = spawnSeq;
        v.schedule = schedule;
        violations_.push_back(std::move(v));
        diagnostics_.push_back(std::move(d));
      }
    }
    ++rep.perturbRounds;
  }
}

std::uint64_t McExplorer::runRegion(FuncModel& fm, const Context& master,
                                    std::uint32_t startPc, std::uint32_t low,
                                    std::uint32_t high,
                                    std::uint64_t spawnSeq,
                                    std::uint64_t instrBudget,
                                    SimObserver* observer, Stats* stats) {
  std::int64_t count = static_cast<std::int64_t>(static_cast<std::int32_t>(high)) -
                       static_cast<std::int64_t>(static_cast<std::int32_t>(low)) + 1;
  if (count < 0) count = 0;
  McRegionReport rep;
  rep.spawnSeq = spawnSeq;
  rep.threads = static_cast<std::uint32_t>(count);

  FuncModel::ArchState entry = fm.saveArchState();
  if (count > 1) {
    explore(fm, master, startPc, low, high, spawnSeq, instrBudget, entry,
            rep);
    fm.restoreArchState(entry);
  } else {
    rep.exhaustive = true;
    rep.traces = count > 0 ? 1 : 0;
  }

  // Committed execution: the canonical serial schedule, replayed lazily so
  // the observer/stats event stream is identical to the classic
  // serialization (golden stats and plugins see no difference).
  RegionExec exec(fm, master, startPc, low, high, spawnSeq, instrBudget,
                  /*eager=*/false);
  if (stats != nullptr) stats->virtualThreads += exec.threadCount();
  for (std::size_t t = 0; t < exec.threadCount(); ++t)
    while (!exec.done(t)) exec.step(t, observer, stats);
  regions_.push_back(rep);
  return exec.instructionsExecuted();
}

McResult modelCheckProgram(const Program& prog, const McOptions& opts,
                           const analysis::McStaticFacts* facts,
                           const std::function<void(FuncModel&)>& prepare) {
  FuncModel fm(prog);
  if (prepare) prepare(fm);
  McExplorer explorer(prog, opts, facts);
  fm.setRegionRunner(&explorer);
  McResult res;
  try {
    FunctionalRunResult r =
        fm.runFunctional(opts.maxInstructions, nullptr, nullptr);
    res.ran = true;
    res.halted = r.halted;
    res.haltCode = r.haltCode;
    res.instructions = r.instructions;
  } catch (const SimError& e) {
    res.error = e.what();
  }
  res.output = fm.output();
  res.violations = explorer.violations();
  res.regions = explorer.regions();
  res.diagnostics = explorer.diagnostics();
  return res;
}

McResult modelCheckSource(const std::string& source, const McOptions& opts) {
  Program prog = compileToProgram(source, CompilerOptions{});
  analysis::McStaticFacts facts = analysis::computeMcFactsForSource(source);
  return modelCheckProgram(prog, opts, &facts, {});
}

McResult modelCheckWorkload(const workloads::WorkloadInstance& w,
                            McOptions opts) {
  const workloads::WorkloadEntry& entry = workloads::findWorkload(w.name);
  std::string source = workloads::instanceSource(w);
  Program prog = compileToProgram(source, CompilerOptions{});
  analysis::McStaticFacts facts = analysis::computeMcFactsForSource(source);
  for (const std::string& s : entry.digestExclude) opts.digestExclude.insert(s);

  Simulator sim(prog, XmtConfig::fpga64(), SimMode::kFunctional);
  workloads::instancePrepare(w, sim);
  McExplorer explorer(prog, opts, &facts);
  sim.funcModel().setRegionRunner(&explorer);
  McResult res;
  try {
    RunResult r = sim.run();
    res.ran = true;
    res.halted = r.halted;
    res.haltCode = r.haltCode;
    res.instructions = r.instructions;
  } catch (const SimError& e) {
    res.error = e.what();
  }
  res.output = sim.output();
  res.violations = explorer.violations();
  res.regions = explorer.regions();
  res.diagnostics = explorer.diagnostics();
  return res;
}

// --- The discipline-violation mutant corpus --------------------------------

namespace {

std::string mutantHeader(int n) {
  std::ostringstream s;
  s << "int A[" << n << "];\n"
    << "int B[" << n << "];\n"
    << "int S[" << n << "];\n"
    << "int T[" << n << "];\n"
    << "psBaseReg base = 0;\n"
    << "int total;\n"
    << "int flag;\n";
  return s.str();
}

std::string mutantMain(int n, const std::string& body,
                       const std::string& tail = "") {
  std::ostringstream s;
  s << "int main() {\n"
    << "  for (int i = 0; i < " << n << "; i++) A[i] = i - 1;\n"
    << "  spawn(0, " << (n - 1) << ") {\n"
    << body << "  }\n"
    << tail << "  return 0;\n"
    << "}\n";
  return s.str();
}

}  // namespace

std::vector<McMutant> disciplineMutants() {
  const int n = 4;
  std::vector<McMutant> out;
  auto add = [&](const std::string& name, const std::string& body,
                 bool violates, const std::string& tail = "") {
    out.push_back({name, mutantHeader(n) + mutantMain(n, body, tail),
                   violates});
  };

  // Clean originals: must verify silent and exhaustive.
  add("clean-counter", "    int one = 1;\n    ps(one, base);\n", false,
      "  total = base;\n");
  add("clean-vadd", "    B[$] = A[$] + 1;\n", false);
  add("clean-compaction",
      "    int inc = 1;\n    if (A[$] != 0) {\n      ps(inc, base);\n"
      "      B[inc] = A[$];\n    }\n",
      false, "  total = base;\n");
  add("clean-histogram",
      "    int one = 1;\n    int b = A[$] - (A[$] / 2) * 2;\n"
      "    if (b < 0) b = 0 - b;\n    psm(one, S[b]);\n",
      false);
  add("clean-psm-sum", "    int v = A[$];\n    psm(v, total);\n", false);

  // Seeded discipline violations: each must be caught with a witness.
  add("mut-shared-index-write", "    B[0] = $;\n", true);
  add("mut-shared-scalar-write", "    total = $;\n", true);
  add("mut-neighbor-read",
      "    S[$] = $;\n    if ($ > 0) T[$] = S[$ - 1];\n", true);
  add("mut-ps-result-leak",
      "    int i = 1;\n    ps(i, base);\n    total = i;\n", true);
  add("mut-ps-result-visible",
      "    int i = 1;\n    ps(i, base);\n    B[$] = i;\n", true);
  add("mut-psm-result-branch",
      "    int one = 1;\n    psm(one, total);\n"
      "    if (one == 0) flag = $;\n",
      true);
  add("mut-psm-result-visible",
      "    int v = 1;\n    psm(v, total);\n    S[$] = v;\n", true);
  add("mut-nonatomic-rmw", "    total = total + 1;\n", true);
  add("mut-nonatomic-accumulate", "    total = total + A[$];\n", true);
  add("mut-psm-vs-plain",
      "    int one = 1;\n    psm(one, total);\n    if ($ == 0) total = 5;\n",
      true);
  add("mut-ps-zero-increment",
      "    int inc = 0;\n    ps(inc, base);\n    B[inc] = $;\n", true);
  add("mut-stride-collision", "    B[$ / 2] = $;\n", true);
  add("mut-even-odd-collision", "    B[($ / 2) * 2] = $;\n", true);
  add("mut-index-wraparound",
      "    B[$ - ($ / 2) * 2] = $;\n", true);
  add("mut-read-of-written",
      "    B[$] = $;\n    if ($ == 1) T[0] = B[0];\n", true);
  add("mut-partial-overlap",
      "    B[$] = 1;\n    if ($ < " + std::to_string(n - 1) +
          ") B[$ + 1] = 2;\n",
      true);
  add("mut-gr-read-in-region",
      "    B[$] = base;\n    int i = 1;\n    ps(i, base);\n", true);
  add("mut-first-wins",
      "    if (flag == 0) {\n      flag = 1;\n      total = $;\n    }\n",
      true);
  add("mut-max-reduction",
      "    if (A[$] > total) total = A[$];\n", true);
  add("mut-queue-no-ps",
      "    B[total] = $;\n    total = total + 1;\n", true);
  add("mut-compaction-dup-index",
      "    int inc = 1;\n    ps(inc, base);\n    B[inc] = 1;\n"
      "    if (inc > 0) B[inc - 1] = 2;\n",
      true);
  add("mut-second-region-racy", "    B[$] = A[$];\n", true,
      "  spawn(0, " + std::to_string(n - 1) + ") { total = $; }\n");

  // A racy helper inlined into the region (inline-parallel pre-pass): the
  // inlined read of `total` races the region's write of it.
  {
    std::ostringstream s;
    s << mutantHeader(n) << "int touch(int t) {\n  return total + t;\n}\n"
      << mutantMain(n, "    total = touch($);\n");
    out.push_back({"mut-racy-helper", s.str(), true});
  }
  return out;
}

}  // namespace xmt::testing
