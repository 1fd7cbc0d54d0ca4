// Golden-stats determinism suite for the discrete-event engine.
//
// The event queue's ordering contract — events fire in exact
// (time, priority, insertion-seq) order — is what makes XMTSim fully
// deterministic. These tests pin that contract down: each workload kernel
// runs cycle-accurately and every Stats field must match, bit for bit, the
// values recorded from the seed engine (the std::priority_queue scheduler
// the repository started with). Any event-queue change that reorders events
// shifts cycle counts or activity counters and fails here.
//
// To regenerate the golden values after an *intentional* timing-model
// change, run:
//   XMT_PRINT_GOLDEN=1 ./xmt_tests --gtest_filter='GoldenStats.*'
// and paste the printed blocks below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/assembler/assembler.h"
#include "src/common/digest.h"
#include "src/core/toolchain.h"
#include "src/sim/plugins.h"
#include "src/workloads/kernels.h"

namespace xmt {
namespace {

// FNV-1a over the per-cluster activity vector: keeps the golden blocks
// readable while still detecting any change to any per-cluster counter.
// The pinned blocks were recorded with this basis, not FNV's standard one.
std::uint64_t perClusterHash(const Stats& s) {
  Fnv1a64 h(1469598103934665603ull);
  for (const auto& c : s.perCluster) {
    h.word(c.instructions);
    h.word(c.aluOps);
    h.word(c.mduOps);
    h.word(c.fpuOps);
    h.word(c.memOps);
    h.word(c.activeCycles);
  }
  return h.value();
}

// Canonical dump of every Stats field (plus halt state). Per-cluster data
// is folded into sums + an order-sensitive hash.
std::string canonicalStats(const RunResult& r, const Stats& s) {
  std::ostringstream ss;
  ss << "halted=" << r.halted << " code=" << r.haltCode << "\n";
  ss << "instructions=" << s.instructions << " spawns=" << s.spawns
     << " vthreads=" << s.virtualThreads << "\n";
  ss << "cycles=" << s.cycles << " simTime=" << s.simTime << "\n";
  ss << "cache=" << s.cacheHits << "/" << s.cacheMisses
     << " dram=" << s.dramRequests << " master=" << s.masterCacheHits << "/"
     << s.masterCacheMisses << " ro=" << s.roCacheHits << "/"
     << s.roCacheMisses << " pb=" << s.prefetchBufferHits << "\n";
  ss << "icn=" << s.icnPackets << " memWait=" << s.memWaitCycles
     << " ps=" << s.psRequests << " psm=" << s.psmRequests
     << " swnb=" << s.nonBlockingStores << "\n";
  ss << "op:";
  for (std::size_t i = 0; i < s.opCount.size(); ++i)
    if (s.opCount[i] != 0) ss << " " << i << ":" << s.opCount[i];
  ss << "\n";
  ss << "fu:";
  for (std::size_t i = 0; i < s.fuCount.size(); ++i)
    if (s.fuCount[i] != 0) ss << " " << i << ":" << s.fuCount[i];
  ss << "\n";
  std::uint64_t ci = 0, ca = 0, cm = 0, cf = 0, cmem = 0, cact = 0;
  for (const auto& c : s.perCluster) {
    ci += c.instructions;
    ca += c.aluOps;
    cm += c.mduOps;
    cf += c.fpuOps;
    cmem += c.memOps;
    cact += c.activeCycles;
  }
  ss << "clusters=" << s.perCluster.size() << " sum=" << ci << "/" << ca
     << "/" << cm << "/" << cf << "/" << cmem << "/" << cact << " hash=0x"
     << std::hex << perClusterHash(s) << std::dec << "\n";
  return ss.str();
}

struct GoldenCase {
  const char* name;
  const char* configName;  // "fpga64" or "chip1024"
  std::string source;
  // Deterministic input arrays, applied before the run.
  std::vector<std::pair<std::string, std::vector<std::int32_t>>> inputs;
  const char* expected;
  bool isAssembly = false;  // `source` is XMT assembly, not XMTC
  // Optional set-up for paths a plain run does not reach: `configure` edits
  // the machine before the simulator is built, `attach` runs on the built
  // simulator (e.g. to add an activity plug-in), and a non-zero
  // `sliceCycles` runs in run(sliceCycles) chunks resumed to halt.
  std::function<void(XmtConfig&)> configure = nullptr;
  std::function<void(Simulator&)> attach = nullptr;
  std::uint64_t sliceCycles = 0;
};

// Retunes clock domains mid-run: each call moves one cluster (round robin)
// between its configured frequency and 60% of it, and toggles the ICN
// between 75% and 100% of its configured frequency.
class RetuneClocks : public ActivityPlugin {
 public:
  void onInterval(RuntimeControl& rc) override {
    const XmtConfig& cfg = rc.config();
    int cluster = calls_ % cfg.clusters;
    bool slow = (calls_ / cfg.clusters) % 2 == 0;
    rc.setClusterFrequency(cluster, slow ? cfg.coreGhz * 0.6 : cfg.coreGhz);
    rc.setIcnFrequency(calls_ % 2 == 0 ? cfg.icnGhz * 0.75 : cfg.icnGhz);
    ++calls_;
  }

 private:
  int calls_ = 0;
};

// Master TCU and read-only-cache paths that the compiled kernels do not
// reach. Master: swnb then lw of the same word (memory-model rule 1 stall),
// a blocking sw and an lbu, fence with a store outstanding, psm, and halt
// with a store outstanding. Spawn: rolw twice on one line (miss, then
// read-only-cache hit), pref followed later by lw (valid prefetch-buffer
// hit) and pref immediately followed by lw (hit on a pending entry).
const char* kMasterPathsAsm = R"(
.data
X: .word 5
Y: .word 0
Z: .word 0
P: .word 0
K: .word 21, 22
B: .space 256
S: .word 0
.global S
.text
main:
  la s0, X
  li t0, 7
  swnb t0, 0(s0)
  lw t1, 0(s0)
  la s1, Y
  sw t1, 0(s1)
  lbu t3, 0(s1)
  swnb t3, 4(s1)
  fence
  li t2, 3
  psm t2, P
  li t0, 0
  mtgr t0, gr6
  li t0, 15
  mtgr t0, gr7
  la s0, K
  la s1, B
  spawn Ls, Le
Ls:
  pref 0(s1)
  rolw t2, 0(s0)
  rolw t3, 4(s0)
  lw t4, 0(s1)
  pref 64(s1)
  lw t5, 64(s1)
  add t2, t2, t3
  add t2, t2, t4
  add t2, t2, t5
  psm t2, S
  join
Le:
  la s0, Z
  swnb t2, 0(s0)
  halt
)";

std::vector<std::int32_t> ramp(int n, int mul, int add) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = i * mul + add;
  return v;
}

const std::vector<GoldenCase>& goldenCases();

class GoldenStats : public ::testing::TestWithParam<int> {};

TEST_P(GoldenStats, MatchesSeedEngine) {
  const GoldenCase& gc =
      goldenCases()[static_cast<std::size_t>(GetParam())];
  ToolchainOptions opts;
  opts.config = XmtConfig::byName(gc.configName);
  if (gc.configure) gc.configure(opts.config);
  opts.mode = SimMode::kCycleAccurate;
  Toolchain tc(opts);
  auto sim = gc.isAssembly
                 ? std::make_unique<Simulator>(assemble(gc.source),
                                               opts.config, opts.mode)
                 : tc.makeSimulator(gc.source);
  for (const auto& [name, data] : gc.inputs) sim->setGlobalArray(name, data);
  if (gc.attach) gc.attach(*sim);
  RunResult r;
  do {
    r = sim->run(gc.sliceCycles);
  } while (!r.halted && gc.sliceCycles > 0);
  std::string dump = canonicalStats(r, sim->stats());
  if (std::getenv("XMT_PRINT_GOLDEN") != nullptr) {
    printf("=== GOLDEN %s ===\n%s=== END %s ===\n", gc.name, dump.c_str(),
           gc.name);
    fflush(stdout);
    return;
  }
  EXPECT_EQ(dump, gc.expected) << "kernel " << gc.name
                               << ": event ordering or timing model changed";
}

// Resumable runs: slicing one simulation into many cycle-budgeted run()
// calls must land on the same stats as one uninterrupted run.
TEST(GoldenStats, SlicedRunMatchesSingleRun) {
  Toolchain tc;
  std::string src = workloads::vectorAddSource(96);
  auto runSliced = [&](std::uint64_t slice) {
    auto sim = tc.makeSimulator(src);
    sim->setGlobalArray("A", ramp(96, 3, 1));
    RunResult r;
    do {
      r = sim->run(slice);
    } while (!r.halted && slice > 0);
    return canonicalStats(r, sim->stats());
  };
  std::string whole = runSliced(0);
  EXPECT_EQ(runSliced(50), whole);
}

// Determinism within one binary: two identical runs, identical stats.
TEST(GoldenStats, RepeatRunIsBitIdentical) {
  Toolchain tc;
  std::string src = workloads::histogramSource(96, 8);
  auto in = ramp(96, 5, 3);
  for (auto& v : in) v &= 7;
  std::string first;
  for (int i = 0; i < 2; ++i) {
    auto sim = tc.makeSimulator(src);
    sim->setGlobalArray("A", in);
    RunResult r = sim->run();
    std::string dump = canonicalStats(r, sim->stats());
    if (i == 0)
      first = dump;
    else
      EXPECT_EQ(dump, first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GoldenStats,
    ::testing::Range(0, static_cast<int>(goldenCases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(
          goldenCases()[static_cast<std::size_t>(info.param)].name);
    });

const std::vector<GoldenCase>& goldenCases() {
  static const std::vector<GoldenCase> kCases = [] {
    std::vector<GoldenCase> cases;
    cases.push_back({"vectorAdd96", "fpga64", workloads::vectorAddSource(96),
                     {{"A", ramp(96, 3, 1)}},
                     R"gold(halted=1 code=0
instructions=1163 spawns=1 vthreads=96
cycles=214 simTime=2853262
cache=0/12 dram=12 master=0/0 ro=0/0 pb=0
icn=193 memWait=6421 ps=0 psm=0 swnb=96
op: 0:288 1:1 13:97 14:192 15:97 16:192 41:1 42:1 44:96 45:1 46:96 51:1 54:2 56:1 57:96 58:1
fu: 0:675 1:192 2:2 5:194 6:2 7:98
clusters=8 sum=1152/864/0/0/192/274 hash=0x6728e47d7eb2ed7d
)gold"});
    auto histIn = ramp(128, 7, 0);
    for (auto& v : histIn) v &= 7;
    cases.push_back({"histogram128", "fpga64",
                     workloads::histogramSource(128, 8),
                     {{"A", histIn}},
                     R"gold(halted=1 code=0
instructions=1674 spawns=1 vthreads=128
cycles=280 simTime=3733240
cache=108/17 dram=17 master=0/0 ro=0/0 pb=0
icn=257 memWait=10900 ps=0 psm=128 swnb=0
op: 0:256 1:1 13:129 14:256 15:385 16:256 41:1 42:1 44:128 45:1 53:128 54:2 56:1 57:128 58:1
fu: 0:1027 1:256 2:2 5:129 6:130 7:130
clusters=8 sum=1664/1280/0/0/256/461 hash=0xb7eeb84a47ab5ac
)gold"});
    cases.push_back({"parallelSum64", "fpga64",
                     workloads::parallelSumSource(64),
                     {{"A", ramp(64, 1, 0)}},
                     R"gold(halted=1 code=0
instructions=522 spawns=1 vthreads=64
cycles=179 simTime=2386607
cache=44/9 dram=9 master=0/0 ro=0/0 pb=0
icn=129 memWait=6019 ps=0 psm=64 swnb=0
op: 0:64 1:1 13:1 14:128 15:65 16:64 41:1 42:1 44:64 45:1 53:64 54:2 56:1 57:64 58:1
fu: 0:259 1:64 2:2 5:65 6:66 7:66
clusters=8 sum=512/320/0/0/128/157 hash=0xd4c8c9b21417e164
)gold"});
    auto compIn = ramp(48, 1, 0);
    for (std::size_t i = 0; i < compIn.size(); i += 3) compIn[i] = 0;
    cases.push_back({"compaction48", "fpga64",
                     workloads::compactionSource(48),
                     {{"A", compIn}},
                     R"gold(halted=1 code=0
instructions=736 spawns=1 vthreads=48
cycles=193 simTime=2573269
cache=32/6 dram=6 master=0/0 ro=0/0 pb=0
icn=114 memWait=3536 ps=32 psm=0 swnb=33
op: 0:112 1:1 13:50 14:113 15:49 16:112 35:48 40:16 41:1 42:1 44:80 45:1 46:33 51:33 52:32 54:3 55:1 56:1 57:48 58:1
fu: 0:325 1:112 2:66 5:147 6:36 7:50
clusters=8 sum=720/496/0/0/112/188 hash=0xec338d10ae66103
)gold"});
    cases.push_back({"matmul6", "fpga64", workloads::matmulSource(6),
                     {{"A", ramp(36, 2, 1)}, {"B", ramp(36, 1, 2)}},
                     R"gold(halted=1 code=0
instructions=5591 spawns=1 vthreads=36
cycles=581 simTime=7746473
cache=327/9 dram=9 master=0/0 ro=0/0 pb=216
icn=469 memWait=7494 ps=0 psm=0 swnb=36
op: 0:1116 1:217 2:36 13:829 14:468 15:505 16:468 22:684 23:36 36:252 40:252 41:1 42:1 44:432 45:1 46:36 49:216 51:1 54:2 56:1 57:36 58:1
fu: 0:3171 1:468 2:506 3:720 5:686 6:2 7:38
clusters=8 sum=5580/4140/720/0/468/1967 hash=0xc9c1543dfb066584
)gold"});
    cases.push_back({"psCounter16x4", "fpga64",
                     workloads::psCounterSource(16, 4),
                     {},
                     R"gold(halted=1 code=0
instructions=543 spawns=1 vthreads=16
cycles=119 simTime=1586627
cache=0/0 dram=0 master=0/0 ro=0/0 pb=0
icn=2 memWait=20 ps=64 psm=0 swnb=1
op: 1:65 13:162 14:1 15:65 36:80 40:80 41:1 42:1 45:1 46:1 52:64 54:3 55:1 56:1 57:16 58:1
fu: 0:293 2:162 5:2 6:68 7:18
clusters=8 sum=528/448/0/0/0/66 hash=0x3c8d43af70c5c45f
)gold"});
    cases.push_back({"prefixSum32", "fpga64",
                     workloads::prefixSumSource(32),
                     {{"A", ramp(32, 3, 2)}},
                     R"gold(halted=1 code=0
instructions=4771 spawns=11 vthreads=352
cycles=1289 simTime=17186237
cache=363/12 dram=12 master=0/0 ro=0/0 pb=129
icn=835 memWait=17573 ps=0 psm=0 swnb=352
op: 0:962 1:1 2:129 13:23 14:833 15:368 16:833 22:5 36:6 39:160 40:68 41:11 42:11 44:481 45:2 46:352 49:129 51:11 54:22 56:11 57:352 58:1
fu: 0:2316 1:833 2:256 3:5 5:975 6:22 7:364
clusters=8 sum=4645/3331/0/0/833/1210 hash=0x73e5737c3c795724
)gold"});
    cases.push_back({"vectorAddChip1024", "chip1024",
                     workloads::vectorAddSource(128),
                     {{"A", ramp(128, 2, 7)}},
                     R"gold(halted=1 code=0
instructions=1547 spawns=1 vthreads=128
cycles=296 simTime=227624
cache=0/16 dram=16 master=0/0 ro=0/0 pb=0
icn=257 memWait=26228 ps=0 psm=0 swnb=128
op: 0:384 1:1 13:129 14:256 15:129 16:256 41:1 42:1 44:128 45:1 46:128 51:1 54:2 56:1 57:128 58:1
fu: 0:899 1:256 2:2 5:258 6:2 7:130
clusters=64 sum=1536/1152/0/0/256/218 hash=0xe81dcf5743f3ef41
)gold"});
    cases.push_back({"serialSum256", "fpga64",
                     workloads::serialSumSource(256),
                     {{"A", ramp(256, 3, 1)}},
                     R"gold(halted=1 code=0
instructions=2825 spawns=0 vthreads=0
cycles=4315 simTime=57531895
cache=0/32 dram=32 master=224/32 ro=0/0 pb=0
icn=33 memWait=1280 ps=0 psm=0 swnb=1
op: 0:512 1:256 13:259 14:257 15:513 16:256 36:257 40:257 44:256 46:1 58:1
fu: 0:1797 1:256 2:514 5:257 7:1
clusters=8 sum=0/0/0/0/0/0 hash=0x55fdcdeee4c49583
)gold"});
    cases.push_back({"serMem64Chip1024", "chip1024",
                     workloads::serMemSource(64),
                     {},
                     R"gold(halted=1 code=0
instructions=1034 spawns=0 vthreads=0
cycles=11695 simTime=8993455
cache=0/64 dram=64 master=0/64 ro=0/0 pb=0
icn=65 memWait=10691 ps=0 psm=0 swnb=1
op: 0:192 1:64 3:64 13:196 14:65 15:193 16:64 36:65 40:65 44:64 46:1 58:1
fu: 0:774 1:64 2:130 5:65 7:1
clusters=64 sum=0/0/0/0/0/0 hash=0x8aaa84acd8a99383
)gold"});
    cases.push_back({"masterPathsAsm", "fpga64", kMasterPathsAsm, {},
                     R"gold(halted=1 code=0
instructions=197 spawns=1 vthreads=16
cycles=291 simTime=3879903
cache=39/3 dram=3 master=1/1 ro=16/16 pb=32
icn=70 memWait=1701 ps=0 psm=17 swnb=3
op: 0:48 13:4 14:5 44:33 45:1 46:3 47:1 49:32 50:32 51:1 53:17 54:2 56:1 57:16 58:1
fu: 0:57 5:103 6:19 7:18
clusters=8 sum=176/48/0/0/64/92 hash=0xeadf964a5583dd41
)gold", true});
    // An activity plug-in sampling every 5 cycles retunes cluster and ICN
    // clocks throughout a spawn.
    GoldenCase retune{"histogramRetuneClocks", "fpga64",
                      workloads::histogramSource(128, 8), {{"A", histIn}},
                      R"gold(halted=1 code=0
instructions=1674 spawns=1 vthreads=128
cycles=301 simTime=4013233
cache=108/17 dram=17 master=0/0 ro=0/0 pb=0
icn=257 memWait=8532 ps=0 psm=128 swnb=0
op: 0:256 1:1 13:129 14:256 15:385 16:256 41:1 42:1 44:128 45:1 53:128 54:2 56:1 57:128 58:1
fu: 0:1027 1:256 2:2 5:129 6:130 7:130
clusters=8 sum=1664/1280/0/0/256/541 hash=0xf55a8c04b7dea562
)gold"};
    retune.attach = [](Simulator& sim) {
      sim.addActivityPlugin(std::make_unique<RetuneClocks>(), 5);
    };
    cases.push_back(std::move(retune));
    // A serial program run in 97-cycle budgets, resumed until it halts.
    GoldenCase sliced{"serialSum256Sliced", "fpga64",
                      workloads::serialSumSource(256),
                      {{"A", ramp(256, 3, 1)}},
                      R"gold(halted=1 code=0
instructions=2825 spawns=0 vthreads=0
cycles=4315 simTime=57531895
cache=0/32 dram=32 master=224/32 ro=0/0 pb=0
icn=33 memWait=1280 ps=0 psm=0 swnb=1
op: 0:512 1:256 13:259 14:257 15:513 16:256 36:257 40:257 44:256 46:1 58:1
fu: 0:1797 1:256 2:514 5:257 7:1
clusters=8 sum=0/0/0/0/0/0 hash=0x55fdcdeee4c49583
)gold"};
    sliced.sliceCycles = 97;
    cases.push_back(std::move(sliced));
    // The asynchronous interconnect: continuous-time delivery, no return
    // ports.
    auto asyncIn = ramp(256, 5, 1);
    for (auto& v : asyncIn) v &= 15;
    GoldenCase async{"histogramAsyncIcnChip1024", "chip1024",
                     workloads::histogramSource(256, 16), {{"A", asyncIn}},
                     R"gold(halted=1 code=0
instructions=3338 spawns=1 vthreads=256
cycles=410 simTime=315290
cache=0/34 dram=34 master=0/0 ro=0/0 pb=0
icn=513 memWait=82673 ps=0 psm=256 swnb=0
op: 0:512 1:1 13:257 14:512 15:769 16:512 41:1 42:1 44:256 45:1 53:256 54:2 56:1 57:256 58:1
fu: 0:2051 1:512 2:2 5:257 6:258 7:258
clusters=64 sum=3328/2560/0/0/512/620 hash=0xd6c5725df385f1c5
)gold"};
    async.configure = [](XmtConfig& cfg) { cfg.icnAsync = true; };
    cases.push_back(std::move(async));
    return cases;
  }();
  return kCases;
}

}  // namespace
}  // namespace xmt
