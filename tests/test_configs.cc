// Tests for the machine configurations ("XMTSim is highly configurable"):
// presets, config-file round trips, CLI-style overrides, validation, and a
// configuration sweep proving architectural results are configuration-
// independent while timing responds as expected.
#include <gtest/gtest.h>

#include <ostream>

#include "src/common/error.h"
#include "src/core/toolchain.h"
#include "src/sim/config.h"
#include "src/workloads/kernels.h"

namespace xmt {
namespace {

TEST(Configs, Presets) {
  XmtConfig f = XmtConfig::fpga64();
  EXPECT_EQ(f.totalTcus(), 64);
  EXPECT_EQ(f.clusters, 8);
  EXPECT_DOUBLE_EQ(f.coreGhz, 0.075);
  XmtConfig c = XmtConfig::chip1024();
  EXPECT_EQ(c.totalTcus(), 1024);
  EXPECT_EQ(c.cacheModules, 128);
  EXPECT_NO_THROW(f.validate());
  EXPECT_NO_THROW(c.validate());
  EXPECT_THROW(XmtConfig::byName("bogus"), ConfigError);
}

TEST(Configs, DerivedIcnLatencyGrowsWithTopology) {
  XmtConfig f = XmtConfig::fpga64();
  XmtConfig c = XmtConfig::chip1024();
  EXPECT_GT(c.effectiveIcnSendLatency(), f.effectiveIcnSendLatency());
  f.icnSendLatency = 3;
  EXPECT_EQ(f.effectiveIcnSendLatency(), 3);
}

TEST(Configs, ConfigMapRoundTrip) {
  XmtConfig c = XmtConfig::chip1024();
  c.prefetchEntries = 7;
  c.addressHashing = false;
  ConfigMap m = c.toConfigMap();
  // A fresh custom base with all keys applied reproduces the fields.
  m.set("base", "custom");
  XmtConfig back = XmtConfig::fromConfigMap(m);
  EXPECT_EQ(back.clusters, c.clusters);
  EXPECT_EQ(back.tcusPerCluster, c.tcusPerCluster);
  EXPECT_EQ(back.prefetchEntries, 7);
  EXPECT_FALSE(back.addressHashing);
  EXPECT_DOUBLE_EQ(back.coreGhz, c.coreGhz);
}

TEST(Configs, FromConfigMapWithBaseAndOverrides) {
  auto m = ConfigMap::fromText(
      "base = fpga64\n"
      "clusters = 4\n"
      "dram_latency = 99\n");
  m.applyOverride("tcus_per_cluster=2");
  XmtConfig c = XmtConfig::fromConfigMap(m);
  EXPECT_EQ(c.clusters, 4);
  EXPECT_EQ(c.tcusPerCluster, 2);
  EXPECT_EQ(c.dramLatency, 99);
  EXPECT_DOUBLE_EQ(c.coreGhz, 0.075);  // inherited from the preset
}

TEST(Configs, ValidationCatchesBadValues) {
  XmtConfig c;
  c.clusters = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = XmtConfig{};
  c.cacheLineBytes = 24;  // not a power of two
  EXPECT_THROW(c.validate(), ConfigError);
  c = XmtConfig{};
  c.prefetchPolicy = "random";
  EXPECT_THROW(c.validate(), ConfigError);
  c = XmtConfig{};
  c.coreGhz = -1;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Configs, ValidationErrorsNameTheOffendingField) {
  // ConfigError carries the config key so campaign reports and CLI
  // diagnostics can point at the exact parameter, not just a message.
  auto fieldOf = [](XmtConfig c) {
    try {
      c.validate();
    } catch (const ConfigError& e) {
      return e.field();
    }
    return std::string("<no error>");
  };
  XmtConfig c;
  c.clusters = -2;
  EXPECT_EQ(fieldOf(c), "clusters");
  c = XmtConfig{};
  c.tcusPerCluster = 0;
  EXPECT_EQ(fieldOf(c), "tcus_per_cluster");
  c = XmtConfig{};
  c.cacheLineBytes = 24;
  EXPECT_EQ(fieldOf(c), "cache_line_bytes");
  c = XmtConfig{};
  c.coreGhz = 0.0;
  EXPECT_EQ(fieldOf(c), "core_ghz");
  c = XmtConfig{};
  c.dramGhz = -0.5;
  EXPECT_EQ(fieldOf(c), "dram_ghz");
  c = XmtConfig{};
  c.prefetchPolicy = "random";
  EXPECT_EQ(fieldOf(c), "prefetch_policy");
  // The message still mentions the field for humans reading what().
  c = XmtConfig{};
  c.clusters = 0;
  try {
    c.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("clusters"), std::string::npos);
  }
}

TEST(Configs, InvalidConfigIsRejectedBeforeSimulatorConstruction) {
  // A bad config must fail fast at construction, not mid-simulation.
  XmtConfig bad;
  bad.cacheModules = 0;
  ToolchainOptions opts;
  opts.config = bad;
  Toolchain tc(opts);
  EXPECT_THROW(tc.makeSimulator(workloads::vectorAddSource(8)), ConfigError);
}

struct SweepParam {
  int clusters;
  int tcus;
  int modules;
  bool hashing;
  int prefetchEntries;
};

// Prints the case's ctest name, e.g. "8x4 mod=16 hash=on pf=2" for 8
// clusters of 4 TCUs. Without it gtest dumps the struct's bytes, padding
// included, and the name changes from run to run.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << p.clusters << "x" << p.tcus << " mod=" << p.modules
      << " hash=" << (p.hashing ? "on" : "off") << " pf=" << p.prefetchEntries;
}

class ConfigSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConfigSweep, ArchitecturalResultsIndependentOfConfiguration) {
  const auto& p = GetParam();
  XmtConfig cfg;
  cfg.clusters = p.clusters;
  cfg.tcusPerCluster = p.tcus;
  cfg.cacheModules = p.modules;
  cfg.addressHashing = p.hashing;
  cfg.prefetchEntries = p.prefetchEntries;
  cfg.validate();

  ToolchainOptions opts;
  opts.config = cfg;
  Toolchain tc(opts);
  auto sim = tc.makeSimulator(workloads::compactionSource(200));
  std::vector<std::int32_t> a(200, 0);
  for (int i = 0; i < 200; i += 3) a[static_cast<std::size_t>(i)] = i + 1;
  sim->setGlobalArray("A", a);
  ASSERT_TRUE(sim->run().halted);
  EXPECT_EQ(sim->getGlobal("count"), 67);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigSweep,
    ::testing::Values(SweepParam{1, 1, 1, true, 0},   // minimal machine
                      SweepParam{1, 8, 2, true, 4},
                      SweepParam{2, 2, 4, false, 1},
                      SweepParam{4, 4, 8, true, 2},
                      SweepParam{16, 4, 16, false, 4},
                      SweepParam{8, 8, 8, true, 8},
                      SweepParam{32, 16, 64, true, 4}));

TEST(Configs, MoreTcusReduceParallelCycles) {
  std::string src = workloads::parCompSource(512, 32);
  auto cyclesWith = [&](int clusters, int tcus) {
    XmtConfig cfg;
    cfg.clusters = clusters;
    cfg.tcusPerCluster = tcus;
    ToolchainOptions opts;
    opts.config = cfg;
    Toolchain tc(opts);
    auto e = tc.run(src);
    EXPECT_TRUE(e.result.halted);
    return e.result.cycles;
  };
  std::uint64_t small = cyclesWith(4, 4);    // 16 TCUs
  std::uint64_t medium = cyclesWith(8, 8);   // 64 TCUs
  std::uint64_t large = cyclesWith(16, 16);  // 256 TCUs
  EXPECT_GT(small, medium);
  EXPECT_GT(medium, large);
}

TEST(Configs, SlowerDramIncreasesMemoryBoundCycles) {
  std::string src = workloads::parMemSource(64, 16);
  auto cyclesWith = [&](int dramLatency) {
    XmtConfig cfg = XmtConfig::fpga64();
    cfg.dramLatency = dramLatency;
    ToolchainOptions opts;
    opts.config = cfg;
    Toolchain tc(opts);
    auto e = tc.run(src);
    EXPECT_TRUE(e.result.halted);
    return e.result.cycles;
  };
  EXPECT_GT(cyclesWith(200), cyclesWith(10));
}

TEST(Configs, DeterministicAcrossRuns) {
  Toolchain tc;
  std::string src = workloads::histogramSource(128, 8);
  std::vector<std::int32_t> a(128);
  for (int i = 0; i < 128; ++i) a[static_cast<std::size_t>(i)] = i % 8;
  std::uint64_t cycles0 = 0;
  for (int run = 0; run < 3; ++run) {
    auto sim = tc.makeSimulator(src);
    sim->setGlobalArray("A", a);
    auto r = sim->run();
    ASSERT_TRUE(r.halted);
    if (run == 0) cycles0 = r.cycles;
    EXPECT_EQ(r.cycles, cycles0) << "simulation must be deterministic";
  }
}

}  // namespace
}  // namespace xmt
