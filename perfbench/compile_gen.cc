// compile_gen: xmtsmith programs through the whole compile path.
//
// xmtsmith programs differ in compile time by two orders of magnitude, so
// a handful of them makes a mix whose median moves with the seed. Set-up
// therefore draws candidates from the seed until it has kPrograms inside a
// fixed size window, compiles each once to record the expected assembly,
// runs the host reference interpreter on each, and deals them into bundles
// of equal predicted work. One operation takes one bundle through
// compileXmtc with the default options, assemble, a functional run, and a
// comparison of halt code, printf output and every global against the
// interpreter; a pass is every bundle once, in a fixed order.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "harness.h"
#include "src/assembler/assembler.h"
#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/compiler/driver.h"
#include "src/sim/simulator.h"
#include "src/testing/xmtsmith.h"

namespace xbench {
namespace {

namespace gen = xmt::testing;

constexpr int kPrograms = 512;          // per pass
constexpr int kBundle = 16;             // programs per operation
constexpr int kMaxCandidates = 20000;   // generation budget per set-up
// The size window: expression nodes, and no loops. Compile time grows
// steeply with both: one loop can make a program ten times slower to
// compile (the value-range analysis iterates it to a fixpoint), and a mix
// that admits loops moves its mean by more than 10% from seed to seed.
constexpr int kMinExprs = 60;
constexpr int kMaxExprs = 200;
constexpr int kMaxLoops = 0;

struct Size {
  int exprs = 0;
  int loops = 0;
};

void countExpr(const gen::GenExpr* e, Size& s) {
  if (!e) return;
  ++s.exprs;
  for (const auto& k : e->kids) countExpr(k.get(), s);
}

void countStmts(const std::vector<gen::GenStmtPtr>& body, Size& s) {
  for (const auto& st : body) {
    if (st->kind == gen::GenStmt::Kind::kFor ||
        st->kind == gen::GenStmt::Kind::kWhile)
      ++s.loops;
    countExpr(st->index.get(), s);
    countExpr(st->value.get(), s);
    for (const auto& a : st->args) countExpr(a.get(), s);
    countStmts(st->body, s);
    countStmts(st->elseBody, s);
  }
}

Size sizeOf(const gen::GenProgram& p) {
  Size s;
  countStmts(p.main, s);
  for (const auto& f : p.funcs) {
    countStmts(f.body, s);
    countExpr(f.ret.get(), s);
  }
  return s;
}

struct Case {
  std::string source;
  gen::RefResult ref;
  std::uint64_t asmDigest = 0;
  std::size_t asmBytes = 0;
  std::size_t diagnostics = 0;
};

xmt::CompilerOptions withoutValueLints() {
  xmt::CompilerOptions o;
  o.lintBounds = false;
  o.lintDivZero = false;
  o.lintShift = false;
  o.lintPsDiscipline = false;
  return o;
}

xmt::CompilerOptions withoutAsmVerify() {
  xmt::CompilerOptions o;
  o.verifyAsm = false;
  return o;
}

std::string compareWithRef(const gen::RefResult& ref, const xmt::RunResult& r,
                           const xmt::Simulator& sim) {
  if (!r.halted) return "did not halt";
  if (r.haltCode != ref.haltCode)
    return "halt code " + std::to_string(r.haltCode) + ", expected " +
           std::to_string(ref.haltCode);
  if (r.output != ref.output) return "printf output differs";
  for (const auto& [name, expect] : ref.globals) {
    std::vector<std::int32_t> got = sim.getGlobalArray(name);
    if (got.size() > expect.size()) got.resize(expect.size());
    if (got != expect) return "global " + name + " differs";
  }
  return "";
}

class CompileGen final : public Workload {
 public:
  explicit CompileGen(const Args& args) : args_(args) {}

  void setup(CpuRotation& cpus) override {
    cases_.clear();
    for (int i = 0; i < kMaxCandidates && cases_.size() < kPrograms; ++i) {
      gen::GenProgram p = gen::generate(mixSeed(args_.seed, i));
      Size s = sizeOf(p);
      if (s.exprs < kMinExprs || s.exprs > kMaxExprs || s.loops > kMaxLoops)
        continue;
      if (cases_.size() % kBundle == 0) cpus.next();
      Case c;
      c.source = p.render();
      xmt::CompileResult cr;
      try {
        cr = xmt::compileXmtc(c.source);
      } catch (const xmt::Error&) {
        continue;  // e.g. a register spill inside a spawn block
      }
      c.ref = gen::interpret(p);
      if (!c.ref.ok) continue;
      c.asmDigest = xmt::fnv1a64(cr.asmText);
      c.asmBytes = cr.asmText.size();
      c.diagnostics = cr.diagnostics.size();
      cases_.push_back(std::move(c));
    }
    if (cases_.size() < kPrograms)
      throw std::runtime_error("too few programs in the size window");

    // Deal the programs, largest assembly first, into bundles in snake
    // order, so the bundles carry nearly equal work (assembly size predicts
    // compile time better than any source measure).
    std::vector<int> bySize(kPrograms);
    for (int i = 0; i < kPrograms; ++i) bySize[i] = i;
    std::stable_sort(bySize.begin(), bySize.end(), [&](int a, int b) {
      return cases_[a].asmBytes > cases_[b].asmBytes;
    });
    const int bundles = kPrograms / kBundle;
    bundles_.assign(bundles, {});
    for (int i = 0; i < kPrograms; ++i) {
      int round = i / bundles, pos = i % bundles;
      bundles_[round % 2 ? bundles - 1 - pos : pos].push_back(bySize[i]);
    }
    if (args_.corrupt) cases_[0].ref.haltCode ^= 1;
  }

  // Set-up takes seconds here, and rotating over the CPUs every bundle's
  // worth of compiles already averages out their slow spells.
  int setupRepeats() const override { return 3; }

  std::size_t passLength() const override { return bundles_.size(); }

  std::string runOp(std::uint64_t op, Tracer& tr, CpuRotation&) override {
    for (int i : bundles_[op % bundles_.size()]) {
      std::string err = runCase(cases_[i], tr);
      if (!err.empty()) return "program " + std::to_string(i) + ": " + err;
    }
    return "";
  }

  std::string probe(std::uint64_t op, Tracer& tr) override {
    for (int i : bundles_[op % bundles_.size()]) {
      {
        Tracer::Scope s(tr, "compiler.compile_no_value_lints");
        xmt::compileXmtc(cases_[i].source, withoutValueLints());
      }
      {
        Tracer::Scope s(tr, "compiler.compile_no_asmverify");
        xmt::compileXmtc(cases_[i].source, withoutAsmVerify());
      }
    }
    return "";
  }

  void layerMetrics(const Tracer& tr, Metrics& out) const override {
    auto compile = tr.perOpMs("compiler.compile");
    out.push_back({"compiler.compile_ms", medianOf(compile)});
    out.push_back({"compiler.value_lints_ms",
                   medianDelta(compile,
                               tr.perOpMs("compiler.compile_no_value_lints"))});
    out.push_back({"compiler.asmverify_ms",
                   medianDelta(compile,
                               tr.perOpMs("compiler.compile_no_asmverify"))});
    out.push_back(
        {"assembler.assemble_ms", medianOf(tr.perOpMs("assembler.assemble"))});
    out.push_back({"funcmodel.run_ms", medianOf(tr.perOpMs("funcmodel.run"))});
  }

  // Every compile's assembly digest and diagnostic count equalled set-up's.
  void printSummary() const override {
    std::size_t diags = 0, bytes = 0;
    std::uint64_t digest = 0;
    for (const Case& c : cases_) {
      diags += c.diagnostics;
      bytes += c.asmBytes;
      digest = mixSeed(digest, c.asmDigest);
    }
    std::printf(
        "fingerprint compile_gen: programs=%zu diagnostics=%zu asm_bytes=%zu "
        "asm_digest=%s\n",
        cases_.size(), diags, bytes, xmt::hex64(digest).c_str());
  }

 private:
  static std::string runCase(const Case& c, Tracer& tr) {
    xmt::CompileResult cr;
    {
      Tracer::Scope s(tr, "compiler.compile");
      cr = xmt::compileXmtc(c.source);
    }
    if (xmt::fnv1a64(cr.asmText) != c.asmDigest ||
        cr.diagnostics.size() != c.diagnostics)
      return "compiler output differs from set-up's";
    xmt::Program program;
    {
      Tracer::Scope s(tr, "assembler.assemble");
      program = xmt::assemble(cr.asmText);
    }
    xmt::Simulator sim(std::move(program), xmt::XmtConfig::fpga64(),
                       xmt::SimMode::kFunctional);
    xmt::RunResult r;
    {
      Tracer::Scope s(tr, "funcmodel.run");
      r = sim.run();
    }
    return compareWithRef(c.ref, r, sim);
  }

  // Median over operations of (with - without): what the disabled feature
  // costs, paired within each operation.
  static double medianDelta(const std::map<std::uint64_t, double>& with,
                            const std::map<std::uint64_t, double>& without) {
    std::vector<double> d;
    for (const auto& [op, ms] : with) {
      auto it = without.find(op);
      if (it != without.end()) d.push_back(ms - it->second);
    }
    return median(std::move(d));
  }

  Args args_;
  std::vector<Case> cases_;
  std::vector<std::vector<int>> bundles_;  // indices into cases_
};

}  // namespace

std::unique_ptr<Workload> makeCompileGen(const Args& args) {
  return std::make_unique<CompileGen>(args);
}

}  // namespace xbench
