// xmtverify — driver for the assembly-level XMT legality verifier.
//
// Two modes, both used by ci/verify_smoke.sh:
//
//   xmtverify            meta-oracle sweep: compile every registry workload
//                        at opt levels 0/1/2 under every combination of
//                        non-blocking stores / prefetch / clustering, and
//                        require the verifier to accept all of them.
//   xmtverify --mutants  fault-injection: perturb verified assembly with
//                        the asmmutate harness (plus two built-in programs
//                        that exhibit the swnb→fence→ps chain) and require
//                        every mutant to be flagged; prints the per-class
//                        kill count.
//
// Options:
//   --workload <name>    restrict to one workload (repeatable)
//   --strict             paper-strict mode (swnb must be drained at
//                        join/spawn, not just at fences)
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/compiler/analysis/asmmutate.h"
#include "src/compiler/analysis/asmverify.h"
#include "src/compiler/driver.h"
#include "src/workloads/registry.h"

namespace {

struct Combo {
  bool nbStores, prefetch, cluster;
};

std::string comboName(const Combo& c) {
  std::string s;
  s += c.nbStores ? "+nb" : "-nb";
  s += c.prefetch ? "+pf" : "-pf";
  s += c.cluster ? "+cl" : "-cl";
  return s;
}

// Built-in programs guaranteeing the straight-line swnb → fence → ps/psm
// chains the fence mutants need (serial and in-region).
const char* kSerialChain =
    "int A[4];\n"
    "int total;\n"
    "int main() {\n"
    "  A[0] = 7;\n"
    "  int v = 3;\n"
    "  psm(v, total);\n"
    "  A[1] = v;\n"
    "  return 0;\n"
    "}\n";

const char* kRegionChain =
    "int A[64];\n"
    "int total;\n"
    "int main() {\n"
    "  spawn(0, 63) {\n"
    "    A[$] = $;\n"
    "    int v = 1;\n"
    "    psm(v, total);\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

}  // namespace

int main(int argc, char** argv) {
  bool mutants = false;
  xmt::analysis::AsmVerifyOptions vopts;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--mutants") mutants = true;
    else if (arg == "--strict") vopts.strictJoinFence = true;
    else if (arg == "--workload" && i + 1 < argc) only.push_back(argv[++i]);
    else {
      std::fprintf(stderr, "usage: xmtverify [--mutants] [--strict] "
                           "[--workload <name>]...\n");
      return 2;
    }
  }

  auto wanted = [&](const std::string& name) {
    if (only.empty()) return true;
    for (const auto& w : only)
      if (w == name) return true;
    return false;
  };

  try {
    if (!mutants) {
      // Meta-oracle sweep: everything the driver accepts must verify clean.
      int checks = 0, failures = 0;
      for (const auto& entry : xmt::workloads::workloadRegistry()) {
        if (!wanted(entry.name)) continue;
        std::string src =
            xmt::workloads::instanceSource({entry.name, xmt::ConfigMap()});
        for (int opt = 0; opt <= 2; ++opt) {
          for (int bits = 0; bits < 8; ++bits) {
            Combo c{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
            xmt::CompilerOptions co;
            co.optLevel = opt;
            co.nonBlockingStores = c.nbStores;
            co.prefetch = c.prefetch;
            co.clusterThreads = c.cluster;
            co.clusterCount = 8;
            co.verifyAsm = false;  // we call the verifier ourselves
            auto r = xmt::compileXmtc(src, co);
            auto ds = xmt::analysis::verifyAssembly(r.program, vopts);
            ++checks;
            if (!ds.empty()) {
              ++failures;
              std::printf("[FAIL] %s -O%d %s:\n", entry.name.c_str(), opt,
                          comboName(c).c_str());
              for (const auto& d : ds)
                std::printf("       %s\n", xmt::formatDiagnostic(d).c_str());
            }
          }
        }
        std::printf("[ok] %s\n", entry.name.c_str());
      }
      std::printf("[summary] %d/%d configurations verify clean\n",
                  checks - failures, checks);
      return failures == 0 ? 0 : 1;
    }

    // Mutation mode.
    std::map<xmt::analysis::MutantClass, int> generated, killed;
    int totalGen = 0, totalKilled = 0;
    auto runCorpus = [&](const std::string& name, const std::string& src) {
      xmt::CompilerOptions co;
      co.verifyAsm = false;
      auto r = xmt::compileXmtc(src, co);
      auto base = xmt::analysis::verifyAssembly(r.program, vopts);
      if (!base.empty()) {
        std::printf("[FAIL] %s: baseline not clean:\n", name.c_str());
        for (const auto& d : base)
          std::printf("       %s\n", xmt::formatDiagnostic(d).c_str());
        return false;
      }
      bool ok = true;
      auto ms = xmt::analysis::generateMutants(r.asmText);
      int k = 0;
      for (const auto& m : ms) {
        ++generated[m.cls];
        ++totalGen;
        auto ds = xmt::analysis::verifyAssembly(m.asmText, vopts);
        if (!ds.empty()) {
          ++killed[m.cls];
          ++totalKilled;
          ++k;
        } else {
          ok = false;
          std::printf("[SURVIVED] %s: %s (%s)\n", name.c_str(),
                      m.description.c_str(),
                      xmt::analysis::mutantClassName(m.cls));
        }
      }
      std::printf("[mutants] %s: %zu generated, %d killed\n", name.c_str(),
                  ms.size(), k);
      return ok;
    };

    bool allKilled = true;
    for (const auto& entry : xmt::workloads::workloadRegistry()) {
      if (!wanted(entry.name)) continue;
      allKilled &= runCorpus(
          entry.name,
          xmt::workloads::instanceSource({entry.name, xmt::ConfigMap()}));
    }
    if (only.empty()) {
      allKilled &= runCorpus("builtin-serial-chain", kSerialChain);
      allKilled &= runCorpus("builtin-region-chain", kRegionChain);
    }

    bool allClasses = true;
    std::printf("[summary] mutation kill count: %d/%d\n", totalKilled,
                totalGen);
    for (auto cls : {xmt::analysis::MutantClass::kDropFence,
                     xmt::analysis::MutantClass::kHoistStoreAcrossPs,
                     xmt::analysis::MutantClass::kBlockOutOfRegion,
                     xmt::analysis::MutantClass::kInRegionSpill,
                     xmt::analysis::MutantClass::kUndefSpawnReg}) {
      std::printf("          %-22s %d/%d\n",
                  xmt::analysis::mutantClassName(cls), killed[cls],
                  generated[cls]);
      if (generated[cls] == 0 || killed[cls] != generated[cls])
        allClasses = false;
    }
    return (allKilled && allClasses) ? 0 : 1;
  } catch (const xmt::Error& e) {
    std::fprintf(stderr, "xmtverify: %s\n", e.what());
    return 1;
  }
}
