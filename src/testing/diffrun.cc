#include "src/testing/diffrun.h"

#include <cstdio>
#include <exception>
#include <sstream>

#include "src/campaign/spec.h"
#include "src/compiler/analysis/asmverify.h"
#include "src/core/toolchain.h"

namespace xmt::testing {

// ---------------------------------------------------------------------------
// Configuration sampling
// ---------------------------------------------------------------------------

std::vector<DiffConfigPoint> configPointsFromSpec(
    const std::string& specText) {
  auto spec = campaign::CampaignSpec::fromText(specText);
  std::vector<DiffConfigPoint> points;
  for (auto& p : spec.expand()) {
    // A fuzzing spec fixes workload/mode, so every expanded point is a
    // distinct machine; drop accidental duplicates all the same.
    bool dup = false;
    for (const auto& q : points) dup = dup || q.name == p.key;
    if (!dup) points.push_back({p.key, std::move(p.config)});
  }
  return points;
}

std::vector<DiffConfigPoint> defaultConfigPoints() {
  return configPointsFromSpec(
      "campaign = xmtsmith-default\n"
      "base = fpga64\n"
      "workload = vadd\n"
      "sweep.clusters = 2,8\n"
      "sweep.dram_latency = 20,100\n");
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

namespace {

std::string clip(const std::string& s, std::size_t n = 160) {
  if (s.size() <= n) return s;
  return s.substr(0, n) + "...";
}

struct LegState {
  bool ok = false;
  std::string error;
  std::int32_t haltCode = 0;
  std::string output;
  std::uint64_t digest = 0;
  std::map<std::string, std::vector<std::int32_t>> globals;
};

LegState runLeg(const Program& program, const XmtConfig& config, SimMode mode,
                const Oracle* oracle, std::uint64_t maxInstructions) {
  LegState leg;
  try {
    XmtConfig cfg = config;
    cfg.maxInstructions = maxInstructions;
    Simulator sim(program, cfg, mode);
    RunResult r = sim.run();
    if (!r.halted) {
      leg.error = "did not halt";
      return leg;
    }
    leg.haltCode = r.haltCode;
    leg.output = r.output;
    leg.digest = sim.memoryDigest();
    if (oracle != nullptr)
      for (const auto& [name, expect] : oracle->globals) {
        auto got = sim.getGlobalArray(name);
        if (got.size() > expect.size()) got.resize(expect.size());
        leg.globals.emplace(name, std::move(got));
      }
    leg.ok = true;
  } catch (const std::exception& e) {
    leg.error = e.what();
  }
  return leg;
}

void compareWithOracle(const Oracle& oracle, const LegState& leg,
                       const std::string& legName, int opt,
                       const std::string& configName, DiffOutcome& out) {
  if (leg.haltCode != oracle.haltCode) {
    out.mismatches.push_back(
        {"halt-code", opt, configName,
         legName + ": halt code " + std::to_string(leg.haltCode) +
             ", reference " + std::to_string(oracle.haltCode)});
    return;
  }
  if (leg.output != oracle.output) {
    out.mismatches.push_back(
        {"output", opt, configName,
         legName + ": printf output \"" + clip(escapeString(leg.output)) +
             "\", reference \"" + clip(escapeString(oracle.output)) + "\""});
    return;
  }
  for (const auto& [name, expect] : oracle.globals) {
    auto it = leg.globals.find(name);
    if (it == leg.globals.end() || it->second != expect) {
      std::ostringstream detail;
      detail << legName << ": global " << name << " differs";
      if (it != leg.globals.end()) {
        for (std::size_t i = 0; i < expect.size(); ++i) {
          if (i >= it->second.size() || it->second[i] != expect[i]) {
            detail << " at [" << i << "]: got "
                   << (i < it->second.size()
                           ? std::to_string(it->second[i])
                           : std::string("<missing>"))
                   << ", reference " << expect[i];
            break;
          }
        }
      }
      out.mismatches.push_back({"global", opt, configName, detail.str()});
      return;
    }
  }
}

}  // namespace

std::string DiffOutcome::describe() const {
  std::ostringstream os;
  for (const auto& m : mismatches) {
    os << "[" << m.kind << "] -O" << m.optLevel;
    if (!m.configName.empty()) os << " {" << m.configName << "}";
    os << ": " << m.detail << "\n";
  }
  return os.str();
}

DiffOutcome runDiffSource(const std::string& source, const Oracle* oracle,
                          const DiffOptions& opts) {
  DiffOutcome out;
  std::vector<DiffConfigPoint> configs =
      opts.configs.empty() && opts.cycleLegs ? defaultConfigPoints()
                                             : opts.configs;
  for (int opt : opts.optLevels) {
    Program program;
    try {
      CompilerOptions copts;
      copts.optLevel = opt;
      copts.outline = opts.outline;
      copts.werrorAsm = opts.werrorAsm;
      CompileResult cres = compileXmtc(source, copts);
      if (opts.fenceOracle) {
        analysis::AsmVerifyOptions vo;
        vo.strictSpawnFence = true;
        bool fenceFinding = false;
        for (const Diagnostic& d :
             analysis::verifyAssembly(cres.program, vo)) {
          if (d.code != DiagCode::kAsmMissingFence &&
              d.code != DiagCode::kAsmSwnbAtJoin)
            continue;
          out.mismatches.push_back({"fence", opt, "", formatDiagnostic(d)});
          fenceFinding = true;
        }
        if (fenceFinding) continue;  // execution legs cannot observe it
      }
      program = std::move(cres.program);
    } catch (const std::exception& e) {
      out.mismatches.push_back({"compile-error", opt, "", e.what()});
      continue;
    }

    // Functional leg: the fast mode the paper recommends for debugging must
    // agree with the reference on everything architectural.
    LegState func = runLeg(program, XmtConfig::fpga64(), SimMode::kFunctional,
                           oracle, opts.maxInstructions);
    ++out.legsRun;
    if (!func.ok) {
      out.mismatches.push_back(
          {"sim-error", opt, "", "functional: " + func.error});
      continue;
    }
    if (oracle != nullptr)
      compareWithOracle(*oracle, func, "functional", opt, "", out);

    if (!opts.cycleLegs) continue;

    // Cycle-accurate legs across the sampled machines: each must agree with
    // the reference AND hash to the same memory as the functional run.
    for (const auto& point : configs) {
      LegState cyc = runLeg(program, point.config, SimMode::kCycleAccurate,
                            oracle, opts.maxInstructions);
      ++out.legsRun;
      if (!cyc.ok) {
        out.mismatches.push_back(
            {"sim-error", opt, point.name, "cycle: " + cyc.error});
        continue;
      }
      if (oracle != nullptr)
        compareWithOracle(*oracle, cyc, "cycle", opt, point.name, out);
      if (cyc.haltCode == func.haltCode && cyc.output == func.output &&
          cyc.digest != func.digest) {
        std::ostringstream detail;
        detail << "memoryDigest functional=" << std::hex << func.digest
               << " cycle=" << cyc.digest;
        out.mismatches.push_back({"digest", opt, point.name, detail.str()});
      }
    }
  }
  return out;
}

DiffOutcome runDiff(const GenProgram& prog, const DiffOptions& opts) {
  DiffOutcome out;
  RefResult ref = interpret(prog);
  if (!ref.ok) {
    out.mismatches.push_back({"ref-budget", 0, "", ref.error});
    return out;
  }
  Oracle oracle;
  oracle.haltCode = ref.haltCode;
  oracle.output = ref.output;
  oracle.globals = ref.globals;
  DiffOutcome run = runDiffSource(prog.render(), &oracle, opts);
  return run;
}

std::function<bool(const GenProgram&)> mismatchPredicate(
    const Mismatch& m, const DiffOptions& opts) {
  DiffOptions narrowed = opts;
  narrowed.optLevels = {m.optLevel};
  if (m.configName.empty()) {
    // Reference-vs-functional finding: the cycle legs cannot influence it,
    // and skipping them makes reduction probes an order of magnitude
    // cheaper.
    narrowed.cycleLegs = false;
    narrowed.configs.clear();
  } else {
    std::vector<DiffConfigPoint> all =
        opts.configs.empty() ? defaultConfigPoints() : opts.configs;
    narrowed.configs.clear();
    for (auto& p : all)
      if (p.name == m.configName) narrowed.configs.push_back(std::move(p));
  }
  std::string kind = m.kind;
  return [narrowed, kind](const GenProgram& candidate) {
    try {
      DiffOutcome out = runDiff(candidate, narrowed);
      for (const auto& mm : out.mismatches)
        if (mm.kind == kind) return true;
      return false;
    } catch (...) {
      return false;
    }
  };
}

// ---------------------------------------------------------------------------
// Corpus files
// ---------------------------------------------------------------------------

std::string escapeString(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string unescapeString(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      case 'x': {
        if (i + 2 < s.size()) {
          out += static_cast<char>(
              std::stoi(s.substr(i + 1, 2), nullptr, 16));
          i += 2;
        }
        break;
      }
      default: out += s[i];
    }
  }
  return out;
}

std::string renderCorpusFile(const std::string& source, const Oracle& oracle,
                             const std::string& reproComment) {
  std::ostringstream os;
  os << "// xmtsmith corpus program — replayed by tests/test_corpus.cc\n";
  if (!reproComment.empty()) os << "// repro: " << reproComment << "\n";
  os << "// EXPECT-HALT: " << oracle.haltCode << "\n";
  os << "// EXPECT-OUTPUT: \"" << escapeString(oracle.output) << "\"\n";
  for (const auto& [name, vals] : oracle.globals) {
    os << "// EXPECT: " << name;
    for (auto v : vals) os << " " << v;
    os << "\n";
  }
  os << source;
  return os.str();
}

Oracle parseCorpusExpectations(const std::string& fileText) {
  Oracle oracle;
  std::istringstream is(fileText);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("// EXPECT-HALT: ", 0) == 0) {
      oracle.haltCode = std::stoi(line.substr(16));
    } else if (line.rfind("// EXPECT-OUTPUT: \"", 0) == 0) {
      std::size_t open = line.find('"');
      std::size_t close = line.rfind('"');
      if (close > open)
        oracle.output =
            unescapeString(line.substr(open + 1, close - open - 1));
    } else if (line.rfind("// EXPECT: ", 0) == 0) {
      std::istringstream ls(line.substr(11));
      std::string name;
      ls >> name;
      std::vector<std::int32_t> vals;
      long long v = 0;
      while (ls >> v) vals.push_back(static_cast<std::int32_t>(v));
      if (!name.empty()) oracle.globals.emplace(name, std::move(vals));
    }
  }
  return oracle;
}

}  // namespace xmt::testing
