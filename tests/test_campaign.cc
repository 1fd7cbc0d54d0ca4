// Campaign engine tests: spec parsing and grid expansion, JSON
// serialization, worker-count invariance of results (the determinism
// contract), resume-after-kill semantics (including torn trailing
// lines), CSV escaping, toolchain-version-pinned fingerprints, the
// result-cache hooks, and the thread-safety regression guard for
// concurrent independent simulators.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/campaign/report.h"
#include "src/campaign/resultstore.h"
#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/threadpool.h"
#include "src/common/version.h"
#include "src/core/toolchain.h"
#include "src/sim/statsjson.h"
#include "src/workloads/kernels.h"
#include "src/workloads/registry.h"

namespace xmt {
namespace {

using campaign::CampaignOptions;
using campaign::CampaignSpec;

std::string uniqueDir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/xmt_campaign_" + name;
  std::filesystem::remove_all(d);
  return d;
}

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(static_cast<bool>(f)) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// --- spec parsing and expansion ---

TEST(CampaignSpec, ExpandsCanonicalGrid) {
  auto spec = CampaignSpec::fromText(
      "campaign = grid\n"
      "base = fpga64\n"
      "sweep.clusters = 2,4\n"
      "sweep.tcus_per_cluster = 1,2,4\n"
      "workload = vadd\n"
      "workload.n = 32\n"
      "mode = functional\n");
  EXPECT_EQ(spec.name(), "grid");
  ASSERT_EQ(spec.pointCount(), 6u);
  auto points = spec.expand();
  ASSERT_EQ(points.size(), 6u);
  // Dimensions sorted by name; the last one advances fastest.
  EXPECT_EQ(points[0].key, "clusters=2 tcus_per_cluster=1");
  EXPECT_EQ(points[1].key, "clusters=2 tcus_per_cluster=2");
  EXPECT_EQ(points[3].key, "clusters=4 tcus_per_cluster=1");
  EXPECT_EQ(points[5].config.clusters, 4);
  EXPECT_EQ(points[5].config.tcusPerCluster, 4);
  EXPECT_EQ(points[5].index, 5);
  EXPECT_EQ(points[0].mode, SimMode::kFunctional);
  EXPECT_EQ(points[0].workload.key(), "vadd[n=32]");
  // The preset base still fills un-swept fields.
  EXPECT_DOUBLE_EQ(points[0].config.coreGhz, 0.075);
}

TEST(CampaignSpec, SweepsModeWorkloadAndParams) {
  auto spec = CampaignSpec::fromText(
      "sweep.mode = cycle,functional\n"
      "sweep.workload = vadd,histogram\n"
      "sweep.workload.n = 16,32\n");
  EXPECT_EQ(spec.pointCount(), 8u);
  auto points = spec.expand();
  // mode < workload < workload.n alphabetically.
  EXPECT_EQ(points[0].key, "mode=cycle workload=vadd workload.n=16");
  EXPECT_EQ(points[7].key, "mode=functional workload=histogram workload.n=32");
  EXPECT_EQ(points[7].mode, SimMode::kFunctional);
  EXPECT_EQ(points[7].workload.name, "histogram");
}

TEST(CampaignSpec, FingerprintIdentifiesSpec) {
  auto a = CampaignSpec::fromText("workload = vadd\nsweep.clusters = 1,2\n");
  auto b = CampaignSpec::fromText("sweep.clusters = 1,2\nworkload = vadd\n");
  auto c = CampaignSpec::fromText("workload = vadd\nsweep.clusters = 1,4\n");
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // canonical (sorted) text
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(CampaignSpec, FingerprintPinsTheToolchainVersion) {
  auto spec = CampaignSpec::fromText("workload = vadd\nsweep.clusters = 1,2\n");
  // fingerprint() is the running toolchain's; any other version yields a
  // different value, so a toolchain bump invalidates resume directories
  // (and, through the same constant, every server cache key).
  EXPECT_EQ(spec.fingerprint(), spec.fingerprintWith(kToolchainVersion));
  EXPECT_NE(spec.fingerprint(), spec.fingerprintWith("xmt-toolchain-0.0"));
  EXPECT_NE(spec.fingerprintWith("a"), spec.fingerprintWith("b"));
}

TEST(CampaignSpec, RejectsBadSpecsWithStructuredErrors) {
  auto field = [](const std::string& text) {
    try {
      CampaignSpec::fromText(text);
    } catch (const ConfigError& e) {
      return e.field();
    }
    return std::string("<no error>");
  };
  EXPECT_EQ(field("bogus_key = 1\nworkload = vadd\n"), "bogus_key");
  EXPECT_EQ(field("sweep.not_a_param = 1,2\nworkload = vadd\n"),
            "sweep.not_a_param");
  EXPECT_EQ(field("config.not_a_param = 1\nworkload = vadd\n"),
            "config.not_a_param");
  EXPECT_EQ(field("workload = nope\n"), "workload");
  EXPECT_EQ(field("workload = vadd\nworkload.iters = 3\n"), "workload.iters");
  EXPECT_EQ(field("workload = vadd\nsweep.clusters = 2,2\n"),
            "sweep.clusters");
  EXPECT_EQ(field("workload = vadd\nsweep.clusters = 1,2\n"
                  "config.clusters = 4\n"),
            "sweep.clusters");  // fixed and swept at once
  EXPECT_EQ(field(""), "workload");  // no workload selected
  EXPECT_EQ(field("workload = vadd\nbaseline = clusters=1\n"), "baseline");
  EXPECT_EQ(field("workload = vadd\nsweep.clusters = 1,2\n"
                  "baseline = clusters=3\n"),
            "baseline");
  EXPECT_EQ(field("workload = vadd\nmode = warp\n"), "mode");
}

TEST(CampaignSpec, InvalidSweptConfigNamesThePoint) {
  auto spec = CampaignSpec::fromText(
      "workload = vadd\nsweep.cache_line_bytes = 32,24\n");
  try {
    spec.expand();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("cache_line_bytes=24"),
              std::string::npos);
  }
}

// --- JSON ---

TEST(Json, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("int", Json::number(std::int64_t{-42}));
  obj.set("big", Json::number(std::uint64_t{1} << 62));
  obj.set("real", Json::real(0.075));
  obj.set("flag", Json::boolean(true));
  obj.set("text", Json::str("line\n\"quoted\"\ttab"));
  Json arr = Json::array();
  arr.push(Json::number(1));
  arr.push(Json::null());
  obj.set("arr", std::move(arr));
  std::string text = obj.dump();
  Json back = Json::parse(text);
  EXPECT_EQ(back.dump(), text);  // byte-stable round trip
  EXPECT_EQ(back.at("int").asInt(), -42);
  EXPECT_EQ(back.at("big").asInt(), std::int64_t{1} << 62);
  EXPECT_DOUBLE_EQ(back.at("real").asDouble(), 0.075);
  EXPECT_TRUE(back.at("flag").asBool());
  EXPECT_EQ(back.at("text").asString(), "line\n\"quoted\"\ttab");
  EXPECT_EQ(back.at("arr").items().size(), 2u);
  EXPECT_TRUE(back.at("arr").items()[1].isNull());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("{} trailing"), ConfigError);
  EXPECT_THROW(Json::parse("{\"a\":}"), ConfigError);
  EXPECT_THROW(Json::parse("nulll"), ConfigError);
}

TEST(StatsJson, SerializesEveryCounterGroup) {
  Toolchain tc;
  auto sim = tc.makeSimulator(workloads::histogramSource(64, 4));
  std::vector<std::int32_t> a(64);
  for (int i = 0; i < 64; ++i) a[static_cast<std::size_t>(i)] = i % 4;
  sim->setGlobalArray("A", a);
  auto r = sim->run();
  ASSERT_TRUE(r.halted);

  Json j = toJson(sim->stats());
  EXPECT_GT(j.at("instructions").asInt(), 0);
  EXPECT_GT(j.at("cycles").asInt(), 0);
  EXPECT_GT(j.at("psm_requests").asInt(), 0);
  EXPECT_GT(j.at("fu_count").at("mem").asInt(), 0);
  EXPECT_FALSE(j.at("op_count").fields().empty());
  // Per-cluster activity: one entry per cluster, totals consistent.
  ASSERT_EQ(j.at("per_cluster").items().size(),
            static_cast<std::size_t>(sim->config().clusters));
  std::int64_t clusterInstr = 0;
  for (const auto& c : j.at("per_cluster").items())
    clusterInstr += c.at("instructions").asInt();
  EXPECT_GT(clusterInstr, 0);

  Json rec = runRecordJson(sim->config(), SimMode::kCycleAccurate, r,
                           sim->stats());
  EXPECT_EQ(rec.at("mode").asString(), "cycle");
  EXPECT_EQ(rec.at("config").at("clusters").asInt(), sim->config().clusters);
  EXPECT_TRUE(rec.at("result").at("halted").asBool());
  EXPECT_EQ(rec.at("stats").at("instructions").asInt(),
            j.at("instructions").asInt());
}

// --- campaign runs ---

const char* kSmallSweep =
    "campaign = small\n"
    "base = fpga64\n"
    "sweep.clusters = 1,2\n"
    "sweep.tcus_per_cluster = 2,4\n"
    "workload = vadd\n"
    "workload.n = 48\n"
    "workload.seed = 3\n"
    "mode = cycle\n"
    "baseline = clusters=1,tcus_per_cluster=2\n";

TEST(Campaign, ResultsAreBitIdenticalAcrossWorkerCounts) {
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::string d1 = uniqueDir("workers1");
  std::string d4 = uniqueDir("workers4");
  CampaignOptions o1;
  o1.outDir = d1;
  o1.workers = 1;
  CampaignOptions o4;
  o4.outDir = d4;
  o4.workers = 4;
  auto r1 = campaign::runCampaign(spec, o1);
  auto r4 = campaign::runCampaign(spec, o4);
  EXPECT_EQ(r1.executed, 4u);
  EXPECT_EQ(r4.executed, 4u);
  EXPECT_EQ(r1.failed, 0u);
  EXPECT_EQ(r4.failed, 0u);
  // The determinism contract: every point's serialized Stats is a pure
  // function of the spec, independent of worker count and finish order.
  EXPECT_EQ(readFile(d1 + "/results.jsonl"), readFile(d4 + "/results.jsonl"));
  EXPECT_EQ(readFile(d1 + "/results.csv"), readFile(d4 + "/results.csv"));
  EXPECT_EQ(r1.summary, r4.summary);
  EXPECT_NE(r1.summary.find("speedup vs baseline"), std::string::npos);
}

// Regression: workers == 0 (the documented "use hardware concurrency"
// default) must never construct a zero-thread pool — a campaign launched
// with an unset worker count has to complete, not hang with tasks queued
// on no workers.
TEST(Campaign, ZeroWorkerOptionCompletes) {
  auto spec = CampaignSpec::fromText(kSmallSweep);
  CampaignOptions opts;
  opts.outDir = uniqueDir("workers0");
  opts.workers = 0;
  auto r = campaign::runCampaign(spec, opts);
  EXPECT_EQ(r.executed, 4u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Campaign, ResumeRunsExactlyTheMissingPoints) {
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::string clean = uniqueDir("resume_clean");
  std::string resumed = uniqueDir("resume_killed");

  CampaignOptions full;
  full.outDir = clean;
  full.workers = 2;
  auto cleanRun = campaign::runCampaign(spec, full);
  EXPECT_EQ(cleanRun.executed, 4u);

  // "Kill" the campaign after 2 of 4 points...
  CampaignOptions partial;
  partial.outDir = resumed;
  partial.workers = 2;
  partial.limitPoints = 2;
  auto first = campaign::runCampaign(spec, partial);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.remaining, 2u);

  // ...then re-invoke the same spec: exactly the missing M-K points run.
  std::size_t rerunCount = 0;
  CampaignOptions rest;
  rest.outDir = resumed;
  rest.workers = 2;
  rest.onPoint = [&rerunCount](const campaign::PointRecord&) {
    ++rerunCount;
  };
  auto second = campaign::runCampaign(spec, rest);
  EXPECT_EQ(second.skipped, 2u);
  EXPECT_EQ(second.executed, 2u);
  EXPECT_EQ(rerunCount, 2u);
  EXPECT_EQ(second.remaining, 0u);

  // Merged outputs equal the clean run's, byte for byte.
  EXPECT_EQ(readFile(resumed + "/results.jsonl"),
            readFile(clean + "/results.jsonl"));
  EXPECT_EQ(readFile(resumed + "/results.csv"),
            readFile(clean + "/results.csv"));
  EXPECT_EQ(second.summary, cleanRun.summary);
}

TEST(Campaign, ResumeToleratesTornTrailingLines) {
  // A campaign killed mid-append can leave a half-written line at the
  // tail of results.jsonl and manifest.jsonl. Resume must treat torn (or
  // otherwise corrupt) lines as not-yet-run, and the rewritten files must
  // end up byte-identical to a never-killed run.
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::string clean = uniqueDir("torn_clean");
  std::string torn = uniqueDir("torn");
  CampaignOptions full;
  full.outDir = clean;
  full.workers = 2;
  auto cleanRun = campaign::runCampaign(spec, full);

  CampaignOptions partial;
  partial.outDir = torn;
  partial.workers = 2;
  partial.limitPoints = 2;
  campaign::runCampaign(spec, partial);
  {
    std::ofstream f(torn + "/results.jsonl", std::ios::app);
    f << "\x01\x02 not json at all\n";
    f << "{\"point\":3,\"key\":\"torn";  // no newline: cut mid-write
  }
  {
    std::ofstream f(torn + "/manifest.jsonl", std::ios::app);
    f << "{\"point\":3,\"key\":\"torn\",\"sta";
  }

  CampaignOptions rest;
  rest.outDir = torn;
  rest.workers = 2;
  auto second = campaign::runCampaign(spec, rest);
  EXPECT_EQ(second.skipped, 2u);   // the two intact records survive
  EXPECT_EQ(second.executed, 2u);  // the torn point re-runs
  EXPECT_EQ(readFile(torn + "/results.jsonl"),
            readFile(clean + "/results.jsonl"));
  EXPECT_EQ(readFile(torn + "/results.csv"),
            readFile(clean + "/results.csv"));
  EXPECT_EQ(second.summary, cleanRun.summary);
}

TEST(Campaign, ResumeRefusesADifferentSpec) {
  std::string dir = uniqueDir("fingerprint");
  auto specA = CampaignSpec::fromText("workload = vadd\nworkload.n = 16\n"
                                      "mode = functional\n");
  CampaignOptions opts;
  opts.outDir = dir;
  campaign::runCampaign(specA, opts);
  auto specB = CampaignSpec::fromText("workload = vadd\nworkload.n = 32\n"
                                      "mode = functional\n");
  EXPECT_THROW(campaign::runCampaign(specB, opts), ConfigError);
  opts.fresh = true;  // explicit restart is allowed
  auto r = campaign::runCampaign(specB, opts);
  EXPECT_EQ(r.executed, 1u);
}

TEST(Campaign, ResumeRefusesResultsFromAnOlderToolchain) {
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::string dir = uniqueDir("version_resume");
  CampaignOptions opts;
  opts.outDir = dir;
  opts.workers = 2;
  campaign::runCampaign(spec, opts);

  // Doctor the manifest header so the directory looks like it was written
  // by an older toolchain build: resume must refuse to mix its numbers
  // with the current simulator's rather than silently blending them.
  std::string manifest = readFile(dir + "/manifest.jsonl");
  std::string cur = hex64(spec.fingerprint());
  std::string old = hex64(spec.fingerprintWith("xmt-toolchain-0.0"));
  std::size_t at = manifest.find(cur);
  ASSERT_NE(at, std::string::npos);
  manifest.replace(at, cur.size(), old);
  {
    std::ofstream f(dir + "/manifest.jsonl", std::ios::trunc);
    f << manifest;
  }
  EXPECT_THROW(campaign::runCampaign(spec, opts), ConfigError);
}

TEST(Campaign, CacheHooksServeRepeatRunsWithoutSimulating) {
  // The runner-level seam the server plugs into: a second campaign over
  // the same points, with a warm cache, performs zero simulations and
  // persists byte-identical outputs.
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::map<std::string, campaign::RunPayload> mem;
  std::mutex memMu;
  CampaignOptions opts;
  opts.workers = 2;
  opts.cacheLookup = [&](const campaign::CampaignPoint& p,
                         campaign::RunPayload* out) {
    std::lock_guard<std::mutex> lock(memMu);
    auto it = mem.find(p.key);
    if (it == mem.end()) return false;
    *out = it->second;
    return true;
  };
  opts.cacheFill = [&](const campaign::CampaignPoint& p,
                       const campaign::RunPayload& payload) {
    std::lock_guard<std::mutex> lock(memMu);
    mem[p.key] = payload;
  };

  std::string cold = uniqueDir("hooks_cold");
  opts.outDir = cold;
  auto r1 = campaign::runCampaign(spec, opts);
  EXPECT_EQ(r1.cacheHits, 0u);
  EXPECT_EQ(mem.size(), 4u);

  std::string warm = uniqueDir("hooks_warm");
  opts.outDir = warm;
  std::uint64_t simsBefore = campaign::simulationsExecuted();
  auto r2 = campaign::runCampaign(spec, opts);
  EXPECT_EQ(campaign::simulationsExecuted(), simsBefore);
  EXPECT_EQ(r2.cacheHits, 4u);
  EXPECT_EQ(readFile(warm + "/results.jsonl"),
            readFile(cold + "/results.jsonl"));
  EXPECT_EQ(readFile(warm + "/results.csv"), readFile(cold + "/results.csv"));
  EXPECT_EQ(r2.summary, r1.summary);
}

TEST(ResultStore, CsvEscapeQuotesDelimitersAndLineBreaks) {
  using campaign::csvEscape;
  EXPECT_EQ(csvEscape("plain_value-1.5"), "plain_value-1.5");
  EXPECT_EQ(csvEscape(""), "");
  EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csvEscape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csvEscape("carriage\rreturn"), "\"carriage\rreturn\"");
  EXPECT_EQ(csvEscape(",\",\n"), "\",\"\",\n\"");
}

TEST(Campaign, FailedPointsAreReportedAndRetried) {
  // max_instructions=10 starves the run; the point fails but is recorded,
  // and a re-invocation retries exactly the failed point.
  auto spec = CampaignSpec::fromText(
      "workload = vadd\nworkload.n = 16\nmode = functional\n"
      "sweep.max_instructions = 10,1000000\n");
  std::string dir = uniqueDir("failures");
  CampaignOptions opts;
  opts.outDir = dir;
  auto r = campaign::runCampaign(spec, opts);
  EXPECT_EQ(r.executed, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_NE(r.summary.find("failed points"), std::string::npos);

  auto retry = campaign::runCampaign(spec, opts);
  EXPECT_EQ(retry.skipped, 1u);   // the successful point
  EXPECT_EQ(retry.executed, 1u);  // the failed one runs again
  EXPECT_EQ(retry.failed, 1u);
}

TEST(Campaign, ReportRanksBestConfigurationFirst) {
  auto spec = CampaignSpec::fromText(kSmallSweep);
  std::string dir = uniqueDir("report");
  CampaignOptions opts;
  opts.outDir = dir;
  opts.workers = 2;
  auto res = campaign::runCampaign(spec, opts);
  ASSERT_EQ(res.records.size(), 4u);
  // More TCUs -> fewer simulated picoseconds; the 2x4 machine must rank
  // first and the 1x2 baseline last.
  EXPECT_NE(res.summary.find("1. [clusters=2 tcus_per_cluster=4]"),
            std::string::npos);
  auto summaryFile = readFile(dir + "/summary.txt");
  EXPECT_EQ(summaryFile, res.summary);
}

// --- thread-safety regression (satellite): no hidden shared state ---

TEST(Campaign, ConcurrentSimulatorsMatchSequentialStats) {
  // The same program+config run as N independent simulators must produce
  // bit-identical Stats whether the N runs are sequential or concurrent —
  // guards against hidden shared mutable state (PRNGs, counters, caches).
  constexpr int kN = 4;
  const std::string source = workloads::histogramSource(96, 8);
  auto makeInput = [] {
    std::vector<std::int32_t> a(96);
    for (int i = 0; i < 96; ++i) a[static_cast<std::size_t>(i)] = (i * 7) % 8;
    return a;
  };
  auto runOnce = [&]() -> std::string {
    Toolchain tc;
    auto sim = tc.makeSimulator(source);
    sim->setGlobalArray("A", makeInput());
    RunResult r = sim->run();
    EXPECT_TRUE(r.halted);
    return runRecordJson(sim->config(), SimMode::kCycleAccurate, r,
                         sim->stats())
        .dump();
  };

  std::vector<std::string> sequential(kN);
  for (int i = 0; i < kN; ++i) sequential[static_cast<std::size_t>(i)] = runOnce();

  std::vector<std::string> concurrent(kN);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kN; ++i)
      threads.emplace_back([&concurrent, &runOnce, i] {
        concurrent[static_cast<std::size_t>(i)] = runOnce();
      });
    for (auto& t : threads) t.join();
  }

  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(concurrent[static_cast<std::size_t>(i)],
              sequential[static_cast<std::size_t>(i)])
        << "simulator " << i << " diverged under concurrency";
    EXPECT_EQ(sequential[static_cast<std::size_t>(i)], sequential[0]);
  }
}

TEST(WorkloadRegistry, EveryEntryCompilesAndRuns) {
  // Tiny functional-mode instantiation of every registered workload: the
  // campaign engine must be able to run any named kernel out of the box.
  for (const auto& entry : workloads::workloadRegistry()) {
    workloads::WorkloadInstance w;
    w.name = entry.name;
    // Small sizes so the full registry sweep stays fast.
    for (const auto& p : entry.params) {
      if (p == "n") w.params.set(p, std::int64_t{16});
      else if (p == "threads") w.params.set(p, std::int64_t{4});
      else if (p == "iters") w.params.set(p, std::int64_t{4});
      else if (p == "buckets") w.params.set(p, std::int64_t{4});
      else if (p == "degree") w.params.set(p, std::int64_t{2});
      else if (p == "seed") w.params.set(p, std::int64_t{7});
    }
    ToolchainOptions opts;
    opts.mode = SimMode::kFunctional;
    Toolchain tc(opts);
    auto sim = tc.makeSimulator(workloads::instanceSource(w));
    workloads::instancePrepare(w, *sim);
    RunResult r = sim->run();
    EXPECT_TRUE(r.halted) << "workload " << entry.name;
    EXPECT_EQ(r.haltCode, 0) << "workload " << entry.name;
  }
}

// A small instance of every registered workload, as campaign points.
std::vector<campaign::CampaignPoint> registryPoints(SimMode mode) {
  std::vector<campaign::CampaignPoint> points;
  for (const auto& entry : workloads::workloadRegistry()) {
    campaign::CampaignPoint p;
    p.index = static_cast<int>(points.size());
    p.key = "workload=" + entry.name;
    p.dims = {{"workload", entry.name}};
    p.mode = mode;
    p.workload.name = entry.name;
    for (const auto& param : entry.params) {
      if (param == "n") p.workload.params.set(param, std::int64_t{16});
      else if (param == "threads") p.workload.params.set(param, std::int64_t{4});
      else if (param == "iters") p.workload.params.set(param, std::int64_t{4});
      else if (param == "buckets") p.workload.params.set(param, std::int64_t{4});
      else if (param == "degree") p.workload.params.set(param, std::int64_t{2});
      else if (param == "seed") p.workload.params.set(param, std::int64_t{7});
    }
    points.push_back(std::move(p));
  }
  return points;
}

TEST(Campaign, CompileMemoPayloadsMatchAMemoLessRun) {
  for (SimMode mode : {SimMode::kFunctional, SimMode::kCycleAccurate}) {
    std::vector<campaign::CampaignPoint> points = registryPoints(mode);
    std::vector<campaign::RunPayload> fresh;
    for (const auto& p : points) {
      campaign::clearCompiledPrograms();
      fresh.push_back(campaign::simulatePoint(p));  // compiles afresh
      ASSERT_TRUE(fresh.back().ok) << p.key << ": " << fresh.back().error;
      campaign::RunPayload memo = campaign::simulatePoint(p);  // memo hit
      EXPECT_EQ(memo.json, fresh.back().json) << p.key;
    }
    // With every source in the memo at once, each point still gets its own
    // program.
    for (std::size_t i = 0; i < points.size(); ++i) {
      campaign::RunPayload memo = campaign::simulatePoint(points[i]);
      EXPECT_EQ(memo.json, fresh[i].json) << points[i].key;
      EXPECT_EQ(memo.instructions, fresh[i].instructions);
      EXPECT_EQ(memo.cycles, fresh[i].cycles);
      EXPECT_EQ(memo.simTimePs, fresh[i].simTimePs);
    }
  }
}

// payloadToRecord splices the grid position onto the payload text; this
// is the parse-and-dump it must equal byte for byte.
std::string recordByParseAndDump(const campaign::CampaignPoint& point,
                                 const std::string& payloadJson) {
  Json payload = Json::parse(payloadJson);
  Json j = Json::object();
  j.set("point", Json::number(static_cast<std::int64_t>(point.index)));
  j.set("key", Json::str(point.key));
  Json dims = Json::object();
  for (const auto& [name, value] : point.dims) dims.set(name, Json::str(value));
  j.set("dims", std::move(dims));
  for (const auto& [k, v] : payload.fields()) j.set(k, v);
  return j.dump();
}

TEST(Campaign, PayloadToRecordSpliceMatchesParseAndDump) {
  auto points = CampaignSpec::fromText(
                    "campaign = splice\nbase = fpga64\nmode = functional\n"
                    "sweep.clusters = 1,2\nsweep.workload = vadd,histogram\n"
                    "workload.n = 32\n")
                    .expand();
  for (const auto& p : points) {
    campaign::RunPayload payload = campaign::simulatePoint(p);
    ASSERT_TRUE(payload.ok) << payload.error;
    campaign::PointRecord rec = campaign::payloadToRecord(p, payload);
    EXPECT_EQ(rec.recordJson, recordByParseAndDump(p, payload.json));
    Json parsed = Json::parse(payload.json);
    const Json& stats = parsed.at("stats");
    EXPECT_EQ(rec.instructions,
              static_cast<std::uint64_t>(stats.at("instructions").asInt()));
    EXPECT_EQ(rec.cycles, static_cast<std::uint64_t>(stats.at("cycles").asInt()));
    EXPECT_EQ(rec.simTimePs,
              static_cast<std::uint64_t>(stats.at("sim_time_ps").asInt()));
  }
  // Keys and dims that need escaping, and the empty payload object.
  campaign::CampaignPoint odd = points[0];
  odd.index = 12345;
  odd.key = "a \"quoted\"\tkey\\";
  odd.dims = {{"x\"y", "line\nbreak"}, {"empty", ""}};
  campaign::RunPayload payload;
  payload.ok = true;
  for (const char* text : {"{}", "{\"a\":[1,2.5,{\"b\":null}],\"s\":\"\\u0001\"}"}) {
    payload.json = Json::parse(text).dump();
    EXPECT_EQ(campaign::payloadToRecord(odd, payload).recordJson,
              recordByParseAndDump(odd, payload.json));
  }
  odd.dims.clear();
  EXPECT_EQ(campaign::payloadToRecord(odd, payload).recordJson,
            recordByParseAndDump(odd, payload.json));
}

}  // namespace
}  // namespace xmt
