// xmtserved serving-layer tests: content-addressed cache semantics
// (round trip, version keying, LRU eviction, corrupt-entry self-healing),
// request coalescing, job-queue fairness and backpressure, and
// end-to-end daemon behavior over real Unix sockets — warm-cache replay
// with zero simulations, restart-serves-from-cache, overlapping
// concurrent clients with each point simulated exactly once, and
// malformed/oversized protocol frames that must not wedge the server.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/common/digest.h"
#include "src/common/error.h"
#include "src/common/json.h"
#include "src/common/socket.h"
#include "src/common/version.h"
#include "src/server/cache.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/server/jobqueue.h"
#include "src/server/protocol.h"

namespace xmt {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignPoint;
using campaign::CampaignSpec;
using campaign::RunPayload;
using server::Coalescer;
using server::JobQueue;
using server::JobTask;
using server::ResultCache;
using server::Server;
using server::ServerClient;
using server::ServerOptions;

std::string uniqueDir(const std::string& name) {
  std::string d = ::testing::TempDir() + "/xmt_server_" + name;
  fs::remove_all(d);
  return d;
}

// A fabricated ok-payload of roughly `bytes` JSON bytes (cache unit tests
// don't need real simulations).
RunPayload fakePayload(const std::string& tag, std::size_t bytes = 64) {
  Json j = Json::object();
  j.set("workload", Json::str(tag));
  j.set("pad", Json::str(std::string(bytes, 'x')));
  RunPayload p;
  p.ok = true;
  p.json = j.dump();
  return p;
}

std::string fakeKey(std::uint64_t a, std::uint64_t b = 7, std::uint64_t c = 9) {
  return hex64(a) + hex64(b) + hex64(c);
}

const char* kGridSpec =
    "campaign = served\n"
    "base = fpga64\n"
    "sweep.clusters = 1,2\n"
    "sweep.tcus_per_cluster = 2,4\n"
    "workload = vadd\n"
    "workload.n = 32\n"
    "mode = functional\n";

// --- cache ---

TEST(ResultCache, RoundTripsPayloadsAcrossInstances) {
  std::string root = uniqueDir("cache_rt");
  std::string key = fakeKey(1);
  {
    ResultCache cache(root, 1 << 20);
    RunPayload miss;
    EXPECT_FALSE(cache.lookup(key, &miss));
    cache.insert(key, fakePayload("alpha"));
    RunPayload hit;
    ASSERT_TRUE(cache.lookup(key, &hit));
    EXPECT_EQ(hit.json, fakePayload("alpha").json);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  // A new instance over the same root (daemon restart) still serves it.
  ResultCache reopened(root, 1 << 20);
  EXPECT_EQ(reopened.stats().entries, 1u);
  RunPayload hit;
  ASSERT_TRUE(reopened.lookup(key, &hit));
  EXPECT_EQ(hit.json, fakePayload("alpha").json);
}

TEST(ResultCache, FailedPayloadsAreNeverCached) {
  ResultCache cache(uniqueDir("cache_fail"), 1 << 20);
  RunPayload failed;
  failed.ok = false;
  failed.error = "sim error: did not halt";
  cache.insert(fakeKey(2), failed);
  RunPayload out;
  EXPECT_FALSE(cache.lookup(fakeKey(2), &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, KeyIncludesConfigWorkloadAndVersion) {
  auto spec = CampaignSpec::fromText(kGridSpec);
  auto points = spec.expand();
  ASSERT_GE(points.size(), 2u);
  // Distinct config points get distinct keys; the same point is stable.
  EXPECT_EQ(ResultCache::keyFor(points[0]), ResultCache::keyFor(points[0]));
  EXPECT_NE(ResultCache::keyFor(points[0]), ResultCache::keyFor(points[1]));
  // A toolchain version bump invalidates every cache key.
  EXPECT_NE(ResultCache::keyFor(points[0], kToolchainVersion),
            ResultCache::keyFor(points[0], "xmt-toolchain-0.0"));
  EXPECT_EQ(ResultCache::keyFor(points[0]),
            ResultCache::keyFor(points[0], kToolchainVersion));
}

TEST(ResultCache, EvictionRespectsBoundAndKeepsSurvivorsIntact) {
  std::string root = uniqueDir("cache_evict");
  // Entries are ~300 bytes; bound at ~4 of them.
  ResultCache cache(root, 1200);
  for (std::uint64_t i = 0; i < 12; ++i)
    cache.insert(fakeKey(i), fakePayload("entry" + std::to_string(i), 200));
  auto s = cache.stats();
  EXPECT_LE(s.bytes, 1200u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GE(s.entries, 1u);
  // The newest entry survived and parses back exactly.
  RunPayload out;
  ASSERT_TRUE(cache.lookup(fakeKey(11), &out));
  EXPECT_EQ(out.json, fakePayload("entry11", 200).json);
  // The oldest were evicted (LRU), and every surviving entry is intact.
  EXPECT_FALSE(cache.lookup(fakeKey(0), &out));
  std::size_t survivors = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    RunPayload p;
    if (cache.lookup(fakeKey(i), &p)) {
      ++survivors;
      EXPECT_EQ(p.json, fakePayload("entry" + std::to_string(i), 200).json);
    }
  }
  EXPECT_EQ(survivors, cache.stats().entries);
}

TEST(ResultCache, LruPrefersRecentlyUsedEntries) {
  // Measure the on-disk size of one entry (all tags below are the same
  // length, so every entry is this size), then bound the cache at 4.5x.
  std::uint64_t entrySize;
  {
    ResultCache probe(uniqueDir("cache_lru_probe"), 1 << 20);
    probe.insert(fakeKey(9), fakePayload("e9", 200));
    entrySize = probe.stats().bytes;
  }
  ResultCache cache(uniqueDir("cache_lru"), entrySize * 4 + entrySize / 2);
  for (std::uint64_t i = 0; i < 4; ++i)
    cache.insert(fakeKey(i), fakePayload("e" + std::to_string(i), 200));
  // Touch entry 0 so it is the most recent of the four; the fifth insert
  // overflows the bound and must evict entry 1, not 0.
  RunPayload out;
  ASSERT_TRUE(cache.lookup(fakeKey(0), &out));
  cache.insert(fakeKey(4), fakePayload("e4", 200));
  EXPECT_TRUE(cache.lookup(fakeKey(0), &out));
  EXPECT_FALSE(cache.lookup(fakeKey(1), &out));
  EXPECT_TRUE(cache.lookup(fakeKey(4), &out));
}

TEST(ResultCache, CorruptEntryHealsAsAMiss) {
  std::string root = uniqueDir("cache_corrupt");
  ResultCache cache(root, 1 << 20);
  std::string key = fakeKey(3);
  cache.insert(key, fakePayload("good"));
  // Corrupt the entry on disk (simulates bit rot / a torn legacy write).
  std::string path = root + "/" + key.substr(0, 2) + "/" + key + ".json";
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"key\":\"" << key << "\",\"payload\":";  // torn
  }
  RunPayload out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_FALSE(fs::exists(path));  // deleted, not left to poison again
  // Re-inserting works.
  cache.insert(key, fakePayload("good"));
  EXPECT_TRUE(cache.lookup(key, &out));
}

// --- coalescer ---

TEST(Coalescer, FollowersShareTheLeadersPayload) {
  Coalescer coal;
  RunPayload leaderPayload = fakePayload("led");
  std::atomic<int> leaders{0};
  std::atomic<int> followers{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      RunPayload out;
      if (coal.lead("K", &out)) {
        ++leaders;
        // Hold the leadership long enough that the others pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        coal.finish("K", leaderPayload);
      } else {
        ++followers;
        EXPECT_EQ(out.json, leaderPayload.json);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(followers.load(), 7);
  EXPECT_EQ(coal.coalescedCount(), 7u);
  // The key is free again after finish: a new lead() wins immediately.
  RunPayload out;
  EXPECT_TRUE(coal.lead("K", &out));
  coal.finish("K", leaderPayload);
}

// --- job queue ---

std::vector<CampaignPoint> gridPoints(const std::string& extra = "") {
  return CampaignSpec::fromText(std::string(kGridSpec) + extra).expand();
}

TEST(JobQueue, RoundRobinsAcrossClients) {
  JobQueue q(64);
  std::uint64_t a = q.submit(1, "a", gridPoints());
  std::uint64_t b = q.submit(2, "b", gridPoints());
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  // 8 queued points, clients must alternate regardless of submit order.
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 8; ++i) {
    JobTask t;
    ASSERT_TRUE(q.next(&t));
    order.push_back(t.job);
  }
  for (int i = 0; i < 8; i += 2) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], a);
    EXPECT_EQ(order[static_cast<std::size_t>(i + 1)], b);
  }
  EXPECT_EQ(q.queuedPoints(), 0u);
}

TEST(JobQueue, BackpressureRejectsBeyondTheBound) {
  JobQueue q(6);
  EXPECT_NE(q.submit(1, "a", gridPoints()), 0u);  // 4 points
  EXPECT_EQ(q.submit(2, "b", gridPoints()), 0u);  // 4 more: over 6
  // Draining makes room again.
  JobTask t;
  ASSERT_TRUE(q.next(&t));
  ASSERT_TRUE(q.next(&t));
  EXPECT_NE(q.submit(2, "b", gridPoints()), 0u);  // 2 + 4 <= 6
}

TEST(JobQueue, CancelSkipsUndispatchedPoints) {
  JobQueue q(64);
  std::uint64_t id = q.submit(1, "a", gridPoints());
  JobTask t;
  ASSERT_TRUE(q.next(&t));  // one point in flight
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id + 99));
  EXPECT_EQ(q.queuedPoints(), 0u);  // remaining 3 dropped
  // The in-flight point still lands; the job then reads as cancelled.
  q.complete(t, campaign::PointRecord{}, false);
  auto s = q.status(id);
  ASSERT_TRUE(s.found);
  EXPECT_EQ(s.state, "cancelled");
  EXPECT_EQ(s.done, 1u);
  q.stop();
  EXPECT_FALSE(q.next(&t));
}

// --- protocol ---

TEST(Protocol, ParseRequestValidates) {
  EXPECT_EQ(server::parseRequest("{\"cmd\":\"ping\"}").cmd, "ping");
  EXPECT_THROW(server::parseRequest("not json"), ConfigError);
  EXPECT_THROW(server::parseRequest("[1,2]"), ConfigError);
  EXPECT_THROW(server::parseRequest("{}"), ConfigError);
  EXPECT_THROW(server::parseRequest("{\"cmd\":\"fly\"}"), ConfigError);
  Json busy = server::busyResponse("queue full");
  EXPECT_FALSE(busy.at("ok").asBool());
  EXPECT_TRUE(busy.at("busy").asBool());
}

// --- end-to-end daemon ---

struct TestServer {
  explicit TestServer(const std::string& name,
                      std::size_t maxQueued = 4096, int workers = 2,
                      std::string reuseCacheDir = "") {
    dir = uniqueDir(name);
    fs::create_directories(dir);
    ServerOptions o;
    o.socketPath = dir + "/d.sock";
    o.cacheDir = reuseCacheDir.empty() ? dir + "/cache" : reuseCacheDir;
    o.workers = workers;
    o.maxQueuedPoints = maxQueued;
    server = std::make_unique<Server>(o);
  }
  std::string dir;
  std::unique_ptr<Server> server;
};

std::vector<std::string> expectedRecords(const std::string& specText) {
  std::vector<std::string> lines;
  for (const auto& p : CampaignSpec::fromText(specText).expand())
    lines.push_back(campaign::runPoint(p).recordJson);
  return lines;
}

TEST(ServerE2E, ServesAGridAndRepliesToPing) {
  TestServer ts("e2e_basic");
  ServerClient client(ts.server->options().socketPath);
  Json pong = client.ping();
  EXPECT_TRUE(pong.at("ok").asBool());
  EXPECT_EQ(pong.at("version").asString(), kToolchainVersion);

  std::vector<std::string> expected = expectedRecords(kGridSpec);
  auto sub = client.submitSpec(kGridSpec);
  ASSERT_TRUE(sub.ok) << sub.error;
  EXPECT_EQ(sub.points, 4u);
  auto page = client.waitForJob(sub.job);
  EXPECT_EQ(page.state, "done");
  ASSERT_EQ(page.records.size(), 4u);
  // Served records are byte-identical to a local uncached run.
  EXPECT_EQ(page.records, expected);
  auto st = client.status(sub.job);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.done, 4u);
}

TEST(ServerE2E, WarmCacheReplayPerformsZeroSimulations) {
  TestServer ts("e2e_warm");
  ServerClient client(ts.server->options().socketPath);
  auto cold = client.submitSpec(kGridSpec);
  ASSERT_TRUE(cold.ok) << cold.error;
  auto coldPage = client.waitForJob(cold.job);
  ASSERT_EQ(coldPage.records.size(), 4u);

  // The acceptance criterion: a warm replay is simulation-free (counted,
  // not inferred from timing) and byte-identical.
  std::uint64_t simsBefore = campaign::simulationsExecuted();
  auto warm = client.submitSpec(kGridSpec);
  ASSERT_TRUE(warm.ok) << warm.error;
  auto warmPage = client.waitForJob(warm.job);
  EXPECT_EQ(campaign::simulationsExecuted(), simsBefore);
  EXPECT_EQ(warmPage.records, coldPage.records);
  auto st = client.status(warm.job);
  EXPECT_EQ(st.cacheHits, 4u);
}

TEST(ServerE2E, RestartServesPriorResultsFromCache) {
  auto first = std::make_unique<TestServer>("e2e_restart");
  std::string cacheDir = first->server->options().cacheDir;
  std::vector<std::string> coldRecords;
  {
    ServerClient client(first->server->options().socketPath);
    auto sub = client.submitSpec(kGridSpec);
    ASSERT_TRUE(sub.ok) << sub.error;
    coldRecords = client.waitForJob(sub.job).records;
    ASSERT_EQ(coldRecords.size(), 4u);
  }
  first.reset();  // daemon gone; only the on-disk cache survives

  TestServer second("e2e_restart2", 4096, 2, cacheDir);
  ServerClient client(second.server->options().socketPath);
  std::uint64_t simsBefore = campaign::simulationsExecuted();
  auto sub = client.submitSpec(kGridSpec);
  ASSERT_TRUE(sub.ok) << sub.error;
  auto page = client.waitForJob(sub.job);
  EXPECT_EQ(campaign::simulationsExecuted(), simsBefore);
  EXPECT_EQ(page.records, coldRecords);
}

TEST(ServerE2E, OverlappingConcurrentClientsSimulateEachPointOnce) {
  // Two clients race overlapping grids: A sweeps n in {16,32}, B sweeps
  // n in {32,64}. The union is 3 distinct points; the shared n=32 must
  // be simulated exactly once (cache hit or coalesced for the loser).
  const std::string specA =
      "campaign = a\nbase = fpga64\nworkload = vadd\nmode = functional\n"
      "sweep.workload.n = 16,32\n";
  const std::string specB =
      "campaign = b\nbase = fpga64\nworkload = vadd\nmode = functional\n"
      "sweep.workload.n = 32,64\n";
  TestServer ts("e2e_overlap", 4096, 4);
  std::uint64_t simsBefore = campaign::simulationsExecuted();

  std::vector<std::string> recsA, recsB;
  std::thread ta([&] {
    ServerClient c(ts.server->options().socketPath);
    auto sub = c.submitSpec(specA);
    ASSERT_TRUE(sub.ok) << sub.error;
    recsA = c.waitForJob(sub.job).records;
  });
  std::thread tb([&] {
    ServerClient c(ts.server->options().socketPath);
    auto sub = c.submitSpec(specB);
    ASSERT_TRUE(sub.ok) << sub.error;
    recsB = c.waitForJob(sub.job).records;
  });
  ta.join();
  tb.join();

  EXPECT_EQ(campaign::simulationsExecuted() - simsBefore, 3u);
  ASSERT_EQ(recsA.size(), 2u);
  ASSERT_EQ(recsB.size(), 2u);
  // The shared n=32 point: byte-identical in both clients' streams
  // modulo the grid position prefix — compare the payload suffix.
  auto payloadOf = [](const std::string& line) {
    Json j = Json::parse(line);
    Json p = Json::object();
    for (const char* k : {"workload", "config", "mode", "result", "stats"})
      p.set(k, j.at(k));
    return p.dump();
  };
  EXPECT_EQ(payloadOf(recsA[1]), payloadOf(recsB[0]));
}

TEST(ServerE2E, MalformedAndOversizedFramesDoNotWedgeTheServer) {
  TestServer ts("e2e_frames");
  const std::string sock = ts.server->options().socketPath;
  UnixConn raw = UnixConn::connect(sock);

  // Malformed JSON: error reply, connection stays usable.
  ASSERT_TRUE(raw.sendLine("this is not json"));
  std::string reply;
  ASSERT_EQ(raw.recvLine(&reply, server::kMaxFrameBytes), UnixConn::Recv::kOk);
  EXPECT_FALSE(Json::parse(reply).at("ok").asBool());

  // Valid-JSON-but-bad requests: still an error reply, not a hangup.
  ASSERT_TRUE(raw.sendLine("{\"cmd\":\"status\",\"job\":12345}"));
  ASSERT_EQ(raw.recvLine(&reply, server::kMaxFrameBytes), UnixConn::Recv::kOk);
  EXPECT_FALSE(Json::parse(reply).at("ok").asBool());

  // Oversized frame (2 MB of garbage): drained and rejected.
  std::string huge(2u << 20, 'x');
  ASSERT_TRUE(raw.sendLine(huge));
  ASSERT_EQ(raw.recvLine(&reply, server::kMaxFrameBytes), UnixConn::Recv::kOk);
  Json over = Json::parse(reply);
  EXPECT_FALSE(over.at("ok").asBool());
  EXPECT_NE(over.at("error").asString().find("frame exceeds"),
            std::string::npos);

  // The same connection and fresh connections still serve real work.
  ASSERT_TRUE(raw.sendLine("{\"cmd\":\"ping\"}"));
  ASSERT_EQ(raw.recvLine(&reply, server::kMaxFrameBytes), UnixConn::Recv::kOk);
  EXPECT_TRUE(Json::parse(reply).at("ok").asBool());
  ServerClient fresh(sock);
  EXPECT_TRUE(fresh.ping().at("ok").asBool());
}

TEST(ServerE2E, RejectsGridsAboveTheQueueBound) {
  TestServer ts("e2e_bound", /*maxQueued=*/2);
  ServerClient client(ts.server->options().socketPath);
  auto sub = client.submitSpec(kGridSpec);  // 4 points > bound 2
  EXPECT_FALSE(sub.ok);
  EXPECT_FALSE(sub.busy);  // permanently too big, not retry-later
  EXPECT_NE(sub.error.find("queue bound"), std::string::npos);
}

TEST(ServerE2E, StatsReportCacheAndServingCounters) {
  TestServer ts("e2e_stats");
  ServerClient client(ts.server->options().socketPath);
  auto sub = client.submitSpec(kGridSpec);
  ASSERT_TRUE(sub.ok);
  client.waitForJob(sub.job);
  Json s = client.stats();
  EXPECT_TRUE(s.at("ok").asBool());
  EXPECT_EQ(s.at("cache").at("entries").asInt(), 4);
  EXPECT_GE(s.at("cache").at("inserts").asInt(), 4);
  EXPECT_GE(s.at("simulations").asInt(), 4);
}

TEST(ServerE2E, ShutdownRequestIsObserved) {
  TestServer ts("e2e_shutdown");
  ServerClient client(ts.server->options().socketPath);
  client.shutdown();
  EXPECT_TRUE(ts.server->waitForShutdown(2000));
  ts.server->stop();
}

}  // namespace
}  // namespace xmt
