// xmtcc — the XMT toolchain command-line driver.
//
// Compiles an XMTC source file, optionally loads a memory-map file for
// input, runs it on a simulated XMT configuration, and prints the program
// output, final statistics and plug-in reports — the paper's programmer
// workflow in one command.
//
// Usage:
//   xmtcc [options] program.xc
//
// Options:
//   --config <fpga64|chip1024|custom>   machine model       (default fpga64)
//   --set key=value                     config override (repeatable)
//   --mode <cycle|functional>           simulation mode     (default cycle)
//   --map <file>                        memory-map input file
//   --emit-asm                          print generated assembly and exit
//   --emit-transformed                  print the outlining pre-pass output
//   --dump <symbol>                     print a global array after the run
//                                       (repeatable)
//   --stats                             print full simulation statistics
//   --stats-json <path>                 write config + result + stats as a
//                                       JSON record ("-" for stdout); same
//                                       schema as campaign results.jsonl
//   --hotmem                            enable the hottest-memory filter
//   --trace <functional|cycle>          print an execution trace
//   --analyze                           run the static analyses (race lint
//                                       + value-range lints) and exit
//                                       (exit 1 on any diagnostic)
//   --diag-json <path>                  write all compiler diagnostics
//                                       (race lint + value lints + asm
//                                       verifier) as JSON ("-" for stdout)
//   -Wxmt-race                          warn about spawn-region races while
//                                       compiling normally
//   -Werror-race                        promote race findings to errors
//   -Wno-xmt-bounds -Wno-xmt-div-zero -Wno-xmt-shift -Wno-xmt-ps-discipline
//                                       disable a default-on value lint
//   -O0 -O1 -O2                         optimization level (default -O1;
//                                       -O2 adds range-driven folding)
//   --workload <name>                   compile a registry workload instead
//                                       of a source file (params via --set
//                                       workload.key=value)
//   --list-workloads                    print the workload registry and exit
//   --race-check                        run the dynamic race checker
//                                       (forces functional mode)
//   --race-check-seed <N>               run the dynamic checker under a
//                                       seeded pseudo-random spawn-region
//                                       schedule instead of the serial one
//                                       (implies --race-check; a fallback
//                                       for regions too large to explore)
//   --model-check                       exhaustively explore every spawn
//                                       region's interleavings (xmtmc):
//                                       verifies race freedom, ps/psm
//                                       discipline and order-independence,
//                                       exit 1 on any violation. With
//                                       --analyze, exploration verdicts
//                                       downgrade refuted "may race" lints
//                                       to notes.
//   --mc-budget <N>                     max explored traces per region
//   --mc-steps <N>                      max visible transitions per region
//   --no-mc-prune                       disable static independence pruning
//   -Werror-asm                         promote asm-verifier findings to
//                                       errors
//   --no-opt --no-prefetch --no-nbstores --no-outline --no-postpass
//   --no-verify-asm                     skip the assembly-level verifier
//   --cluster <N>                       coarsen spawns to N virtual threads
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/assembler/memorymap.h"
#include "src/common/error.h"
#include "src/compiler/analysis/mcheck.h"
#include "src/compiler/analysis/racecheck.h"
#include "src/core/toolchain.h"
#include "src/sim/statsjson.h"
#include "src/testing/explore.h"
#include "src/workloads/registry.h"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw xmt::Error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: xmtcc [options] program.xc   (see header comment)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sourcePath, mapPath, configName = "fpga64", workloadName;
  std::vector<std::string> overrides, workloadOverrides, dumps;
  bool listWorkloads = false;
  bool emitAsm = false, emitTransformed = false, wantStats = false,
       hotmem = false, analyzeOnly = false, raceCheck = false;
  bool modelCheck = false, mcPrune = true, haveRaceSeed = false;
  std::uint64_t mcBudget = 0, mcSteps = 0, raceSeed = 0;
  std::string traceLevel, statsJsonPath, diagJsonPath;
  xmt::ToolchainOptions opts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") configName = next();
    else if (arg == "--set") {
      std::string kv = next();
      if (kv.rfind("workload.", 0) == 0)
        workloadOverrides.push_back(kv.substr(9));
      else
        overrides.push_back(kv);
    }
    else if (arg == "--mode") {
      std::string m = next();
      opts.mode = m == "functional" ? xmt::SimMode::kFunctional
                                    : xmt::SimMode::kCycleAccurate;
    } else if (arg == "--map") mapPath = next();
    else if (arg == "--emit-asm") emitAsm = true;
    else if (arg == "--emit-transformed") emitTransformed = true;
    else if (arg == "--dump") dumps.push_back(next());
    else if (arg == "--stats") wantStats = true;
    else if (arg == "--stats-json") statsJsonPath = next();
    else if (arg == "--hotmem") hotmem = true;
    else if (arg == "--trace") traceLevel = next();
    else if (arg == "--analyze") {
      analyzeOnly = true;
      opts.compiler.analyzeRaces = true;
    } else if (arg == "-Wxmt-race") opts.compiler.analyzeRaces = true;
    else if (arg == "-Werror-race") {
      opts.compiler.analyzeRaces = true;
      opts.compiler.werrorRace = true;
    } else if (arg == "--race-check") {
      raceCheck = true;
    } else if (arg == "--race-check-seed") {
      raceCheck = true;
      haveRaceSeed = true;
      raceSeed = std::strtoull(next().c_str(), nullptr, 0);
    } else if (arg == "--model-check") modelCheck = true;
    else if (arg == "--mc-budget")
      mcBudget = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--mc-steps")
      mcSteps = std::strtoull(next().c_str(), nullptr, 0);
    else if (arg == "--no-mc-prune") mcPrune = false;
    else if (arg == "--diag-json") diagJsonPath = next();
    else if (arg == "-Werror-asm") opts.compiler.werrorAsm = true;
    else if (arg == "-Wno-xmt-bounds") opts.compiler.lintBounds = false;
    else if (arg == "-Wno-xmt-div-zero") opts.compiler.lintDivZero = false;
    else if (arg == "-Wno-xmt-shift") opts.compiler.lintShift = false;
    else if (arg == "-Wno-xmt-ps-discipline")
      opts.compiler.lintPsDiscipline = false;
    else if (arg == "-O0") opts.compiler.optLevel = 0;
    else if (arg == "-O1") opts.compiler.optLevel = 1;
    else if (arg == "-O2") opts.compiler.optLevel = 2;
    else if (arg == "--workload") workloadName = next();
    else if (arg == "--list-workloads") listWorkloads = true;
    else if (arg == "--no-verify-asm") opts.compiler.verifyAsm = false;
    else if (arg == "--no-opt") opts.compiler.optLevel = 0;
    else if (arg == "--no-prefetch") opts.compiler.prefetch = false;
    else if (arg == "--no-nbstores") opts.compiler.nonBlockingStores = false;
    else if (arg == "--no-outline") opts.compiler.outline = false;
    else if (arg == "--no-postpass") opts.compiler.postPass = false;
    else if (arg == "--cluster") {
      opts.compiler.clusterThreads = true;
      opts.compiler.clusterCount = std::atoi(next().c_str());
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      sourcePath = arg;
    }
  }
  if (listWorkloads) {
    for (const auto& w : xmt::workloads::workloadRegistry())
      std::printf("%-16s %s\n", w.name.c_str(), w.description.c_str());
    return 0;
  }
  if (sourcePath.empty() && workloadName.empty()) return usage();
  // Shadow-memory checking needs the functional model's access events,
  // regardless of where --mode appeared on the command line.
  if (raceCheck) opts.mode = xmt::SimMode::kFunctional;

  auto writeDiagJson = [&](const std::vector<xmt::Diagnostic>& ds) {
    if (diagJsonPath.empty()) return;
    std::string record = xmt::diagnosticsJson(ds) + "\n";
    if (diagJsonPath == "-") {
      std::fputs(record.c_str(), stdout);
    } else {
      std::ofstream out(diagJsonPath, std::ios::trunc);
      if (!out) throw xmt::Error("cannot write '" + diagJsonPath + "'");
      out << record;
    }
  };

  try {
    xmt::ConfigMap cm;
    cm.set("base", configName);
    cm.applyOverrides(overrides);
    opts.config = xmt::XmtConfig::fromConfigMap(cm);

    xmt::Toolchain tc(opts);
    xmt::workloads::WorkloadInstance wi;
    std::string source;
    if (!workloadName.empty()) {
      wi.name = workloadName;
      wi.params.applyOverrides(workloadOverrides);
      source = xmt::workloads::instanceSource(wi);
    } else {
      source = readFile(sourcePath);
    }

    if (modelCheck) {
      // Compile first so syntax errors and the static lints surface as
      // usual; the explorer then runs the assembled image under its own
      // functional model (honoring the user's compiler flags).
      auto r = tc.compile(source);
      std::vector<xmt::Diagnostic> diags = r.diagnostics;

      xmt::testing::McOptions mo;
      if (mcBudget > 0) mo.maxTracesPerRegion = mcBudget;
      if (mcSteps > 0) mo.maxTransitionsPerRegion = mcSteps;
      mo.staticPrune = mcPrune;
      if (haveRaceSeed) mo.perturbSeed = raceSeed;

      xmt::testing::McResult mr;
      if (!workloadName.empty()) {
        mr = xmt::testing::modelCheckWorkload(wi, mo);
      } else {
        auto facts = xmt::analysis::computeMcFactsForSource(source);
        mr = xmt::testing::modelCheckProgram(r.program, mo, &facts);
      }

      // Exhaustive clean verdicts demote the static lint's surviving "may
      // race" warnings to notes; the explorer's own findings then join the
      // shared diagnostic stream.
      xmt::analysis::applyExplorationVerdicts(diags, mr.verified());
      diags.insert(diags.end(), mr.diagnostics.begin(), mr.diagnostics.end());
      writeDiagJson(diags);
      for (const auto& d : diags)
        std::printf("%s\n", xmt::formatDiagnostic(d).c_str());

      for (const auto& reg : mr.regions)
        std::printf(
            "[xmtmc] region %llu: threads=%u traces=%llu transitions=%llu "
            "pruned-pairs=%llu sleep-skips=%llu naive~1e%.1f %s\n",
            static_cast<unsigned long long>(reg.spawnSeq), reg.threads,
            static_cast<unsigned long long>(reg.traces),
            static_cast<unsigned long long>(reg.transitions),
            static_cast<unsigned long long>(reg.prunedPairs),
            static_cast<unsigned long long>(reg.sleepSkips), reg.naiveLog10,
            reg.exhaustive ? "exhaustive" : "budget-exhausted");
      if (!mr.error.empty())
        std::printf("[xmtmc] aborted: %s\n", mr.error.c_str());
      std::printf("[xmtmc] %s: %zu violation(s) in %zu region(s)\n",
                  mr.verified()           ? "verified"
                  : mr.clean()            ? "clean (budget exhausted)"
                                          : "FAILED",
                  mr.violations.size(), mr.regions.size());

      bool bad = !mr.clean();
      if (analyzeOnly)
        for (const auto& d : diags)
          if (d.severity != xmt::Severity::kNote) bad = true;
      return bad ? 1 : 0;
    }

    if (analyzeOnly) {
      auto r = tc.compile(source);
      writeDiagJson(r.diagnostics);
      for (const auto& d : r.diagnostics)
        std::printf("%s\n", xmt::formatDiagnostic(d).c_str());
      if (r.diagnostics.empty())
        std::printf("no findings\n");
      return r.diagnostics.empty() ? 0 : 1;
    }

    // Compile once: diagnostics (race lint + asm verifier) always reach
    // stderr and --diag-json, whether we emit, simulate, or fail.
    xmt::CompileResult cr;
    try {
      cr = tc.compile(source);
    } catch (const xmt::DiagnosticError& e) {
      writeDiagJson({e.diag()});
      throw;
    }
    writeDiagJson(cr.diagnostics);
    for (const auto& d : cr.diagnostics)
      std::fprintf(stderr, "%s\n", xmt::formatDiagnostic(d).c_str());
    if (emitTransformed || emitAsm) {
      if (emitTransformed)
        std::printf("%s\n", cr.transformedSource.c_str());
      if (emitAsm) std::printf("%s\n", cr.asmText.c_str());
      return 0;
    }

    auto sim = std::make_unique<xmt::Simulator>(std::move(cr.program),
                                                opts.config, opts.mode);
    std::unique_ptr<xmt::RandomScheduleRunner> seedRunner;
    if (raceCheck) {
      sim->addObserver(std::make_unique<xmt::RaceCheckPlugin>());
      if (haveRaceSeed) {
        // Perturb the spawn-region schedule so the shadow-memory checker
        // observes an interleaving other than the serial default — the
        // cheap fallback when a region is too large for --model-check.
        seedRunner = std::make_unique<xmt::RandomScheduleRunner>(raceSeed);
        sim->funcModel().setRegionRunner(seedRunner.get());
        std::fprintf(stderr, "[race-check] schedule perturbation seed=%llu\n",
                     static_cast<unsigned long long>(raceSeed));
      }
    }
    if (!workloadName.empty()) xmt::workloads::instancePrepare(wi, *sim);
    if (!mapPath.empty())
      sim->applyMemoryMap(xmt::MemoryMap::parse(readFile(mapPath)));
    if (hotmem) sim->addObserver(std::make_unique<xmt::HotMemoryFilter>(10));
    xmt::TextTrace* trace = nullptr;
    if (!traceLevel.empty())
      trace = sim->addObserver(std::make_unique<xmt::TextTrace>(
          traceLevel == "cycle" ? xmt::TraceLevel::kCycle
                                : xmt::TraceLevel::kFunctional));

    auto r = sim->run();
    std::fputs(r.output.c_str(), stdout);
    if (trace) std::fputs(trace->str().c_str(), stdout);
    for (const auto& sym : dumps) {
      auto vals = sim->getGlobalArray(sym);
      std::printf("%s =", sym.c_str());
      for (auto v : vals) std::printf(" %d", v);
      std::printf("\n");
    }
    std::fputs(sim->reports().c_str(), stdout);
    if (!statsJsonPath.empty()) {
      std::string record =
          xmt::runRecordJson(sim->config(), opts.mode, r, sim->stats())
              .dump() +
          "\n";
      if (statsJsonPath == "-") {
        std::fputs(record.c_str(), stdout);
      } else {
        std::ofstream out(statsJsonPath, std::ios::trunc);
        if (!out) throw xmt::Error("cannot write '" + statsJsonPath + "'");
        out << record;
      }
    }
    if (wantStats) {
      std::fputs(sim->stats().report().c_str(), stdout);
    } else {
      std::fprintf(stderr, "[xmtcc] halted=%d code=%d instructions=%llu",
                   r.halted, r.haltCode,
                   static_cast<unsigned long long>(r.instructions));
      if (opts.mode == xmt::SimMode::kCycleAccurate)
        std::fprintf(stderr, " cycles=%llu",
                     static_cast<unsigned long long>(r.cycles));
      std::fprintf(stderr, "\n");
    }
    return r.halted ? r.haltCode : 1;
  } catch (const xmt::Error& e) {
    std::fprintf(stderr, "xmtcc: %s\n", e.what());
    return 1;
  }
}
