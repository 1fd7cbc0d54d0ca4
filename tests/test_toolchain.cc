// Tests for the public Toolchain facade (src/core) — the API a downstream
// user programs against.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "src/assembler/assembler.h"
#include "src/common/error.h"
#include "src/core/toolchain.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

const char* kTiny = R"(
int R;
int main() { R = 6 * 7; return R; }
)";

TEST(Toolchain, DefaultsAndOneShotRun) {
  Toolchain tc;
  EXPECT_EQ(tc.options().config.totalTcus(), 64);  // fpga64 default
  EXPECT_EQ(tc.options().mode, SimMode::kCycleAccurate);
  auto e = tc.run(kTiny);
  EXPECT_TRUE(e.result.halted);
  EXPECT_EQ(e.result.haltCode, 42);
  EXPECT_EQ(e.sim->getGlobal("R"), 42);
}

TEST(Toolchain, CompileExposesPrePassAndAsm) {
  Toolchain tc;
  auto r = tc.compile(kTiny);
  EXPECT_NE(r.asmText.find("main:"), std::string::npos);
  EXPECT_NE(r.asmText.find("halt"), std::string::npos);
  EXPECT_NE(r.transformedSource.find("int main()"), std::string::npos);
}

TEST(Toolchain, CompileErrorsPropagate) {
  Toolchain tc;
  EXPECT_THROW(tc.run("int main() { return undeclared; }"), CompileError);
  EXPECT_THROW(tc.compile("not a program"), CompileError);
}

TEST(Toolchain, OptionsArePlumbedThrough) {
  ToolchainOptions opts;
  opts.config = XmtConfig::chip1024();
  opts.mode = SimMode::kFunctional;
  opts.compiler.optLevel = 0;
  Toolchain tc(opts);
  auto e = tc.run(kTiny);
  EXPECT_TRUE(e.result.halted);
  EXPECT_EQ(e.result.cycles, 0u);  // functional mode has no clock
  EXPECT_EQ(e.sim->config().totalTcus(), 1024);
}

TEST(Toolchain, BuildProducesLoadableProgram) {
  Toolchain tc;
  Program p = tc.build(kTiny);
  EXPECT_TRUE(p.hasSymbol("R"));
  EXPECT_TRUE(p.symbol("R").isGlobal);
  EXPECT_FALSE(p.text.empty());
  // The same image can back multiple simulators.
  Simulator s1(p, XmtConfig::fpga64(), SimMode::kCycleAccurate);
  Simulator s2(p, XmtConfig::chip1024(), SimMode::kFunctional);
  EXPECT_EQ(s1.run().haltCode, 42);
  EXPECT_EQ(s2.run().haltCode, 42);
}

// compileXmtc assembles its final text once and carries the image. It must
// be exactly the Program that text assembles to, so that srcLine (traces,
// race reports, verifier lines) indexes the lines of asmText.
TEST(Toolchain, CarriedProgramIsTheAssembledText) {
  auto insns = [](const Program& p) {
    std::vector<std::tuple<Op, int, int, int, int, int, int>> v;
    for (const Instruction& i : p.text)
      v.emplace_back(i.op, i.rd, i.rs, i.rt, i.imm, i.imm2, i.srcLine);
    return v;
  };
  auto syms = [](const Program& p) {
    std::map<std::string, std::tuple<std::uint32_t, std::uint32_t, bool, bool>>
        m;
    for (const auto& [name, s] : p.symbols)
      m[name] = {s.addr, s.size, s.isText, s.isGlobal};
    return m;
  };
  CompilerOptions noOpt, noPostPass, noVerify;
  noOpt.optLevel = 0;
  noPostPass.postPass = false;
  noPostPass.layoutQuirk = false;
  noVerify.verifyAsm = false;
  const CompilerOptions optionSets[] = {{}, noOpt, noPostPass, noVerify};
  for (const auto& entry : workloads::workloadRegistry()) {
    std::string src = workloads::instanceSource({entry.name, ConfigMap()});
    for (const CompilerOptions& opts : optionSets) {
      SCOPED_TRACE(entry.name + ", option set " +
                   std::to_string(&opts - optionSets));
      CompileResult r = compileXmtc(src, opts);
      Program want = assemble(r.asmText);
      EXPECT_EQ(insns(r.program), insns(want));
      EXPECT_EQ(r.program.data, want.data);
      EXPECT_EQ(syms(r.program), syms(want));
      EXPECT_EQ(r.program.entry, want.entry);
    }
  }
}

TEST(Toolchain, MemoryMapInputThroughSimulator) {
  Toolchain tc;
  auto sim = tc.makeSimulator(R"(
int A[4];
int R;
int main() { R = A[0] + A[1] + A[2] + A[3]; return 0; }
)");
  sim->applyMemoryMap(MemoryMap::parse("A = 10 20 30 40\n"));
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobal("R"), 100);
}

TEST(Toolchain, UnknownGlobalAccessThrows) {
  Toolchain tc;
  auto sim = tc.makeSimulator(kTiny);
  sim->run();
  EXPECT_THROW(sim->getGlobal("nope"), AsmError);
  EXPECT_THROW(sim->setGlobal("nope", 1), AsmError);
}

TEST(Toolchain, OversizeArrayInputRejected) {
  Toolchain tc;
  auto sim = tc.makeSimulator(R"(
int A[2];
int main() { return A[0]; }
)");
  std::vector<std::int32_t> tooBig(3, 1);
  EXPECT_THROW(sim->setGlobalArray("A", tooBig), SimError);
}

}  // namespace
}  // namespace xmt
