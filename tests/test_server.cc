// xmtserved serving-layer tests: content-addressed cache semantics
// (round trip, version keying, LRU eviction, corrupt-entry self-healing,
// the hot tier, write-behind draining and batched recency), request
// coalescing, job-queue fairness, backpressure and bounded retention,
// socket framing of large pages, and end-to-end daemon behavior over real
// Unix sockets — warm-cache replay with zero simulations,
// restart-serves-from-cache, overlapping concurrent clients with each
// point simulated exactly once, expired jobs, and malformed/oversized
// protocol frames that must not wedge the server.
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
  std::string key = fakeKey(3);
  {
    ResultCache cache(root, 1 << 20);
    cache.insert(key, fakePayload("good"));
  }  // the destructor lands the entry file
  // Corrupt the entry on disk (simulates bit rot / a torn legacy write).
  std::string path = root + "/" + key.substr(0, 2) + "/" + key + ".json";
  ASSERT_TRUE(fs::exists(path));
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"key\":\"" << key << "\",\"payload\":";  // torn
  }
  // A reopened cache has no hot copy, so the lookup reads the file.
  ResultCache cache(root, 1 << 20);
  RunPayload out;
  EXPECT_FALSE(cache.lookup(key, &out));
  EXPECT_FALSE(fs::exists(path));  // deleted, not left to poison again
  // Re-inserting works.
  cache.insert(key, fakePayload("good"));
  EXPECT_TRUE(cache.lookup(key, &out));
}

TEST(ResultCache, HotHitsNeverTouchTheDisk) {
  std::string root = uniqueDir("cache_hot");
  ResultCache cache(root, 1 << 20);
  std::string key = fakeKey(4);
  cache.insert(key, fakePayload("hot"));
  cache.flush();
  // With the file gone, only the hot tier can answer.
  fs::remove(root + "/" + key.substr(0, 2) + "/" + key + ".json");
  RunPayload out;
  ASSERT_TRUE(cache.lookup(key, &out));
  EXPECT_EQ(out.json, fakePayload("hot").json);
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.hotHits, 1u);
  EXPECT_EQ(s.hotEntries, 1u);
  EXPECT_EQ(s.hotBytes, fakePayload("hot").json.size());
}

TEST(ResultCache, ADiskReadPromotesItsEntryOnce) {
  std::string root = uniqueDir("cache_promote");
  std::string key = fakeKey(5);
  {
    ResultCache cache(root, 1 << 20);
    cache.insert(key, fakePayload("disk"));
  }
  ResultCache cache(root, 1 << 20);
  EXPECT_EQ(cache.stats().hotEntries, 0u);
  RunPayload first, second;
  ASSERT_TRUE(cache.lookup(key, &first));  // reads the file
  EXPECT_EQ(cache.stats().hotHits, 0u);
  ASSERT_TRUE(cache.lookup(key, &second));  // served from memory
  EXPECT_EQ(cache.stats().hotHits, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(first.json, fakePayload("disk").json);
  EXPECT_EQ(second.json, first.json);
}

TEST(ResultCache, HotTierStaysWithinItsShareOfTheBound) {
  const std::uint64_t maxBytes = 64 << 10;
  ResultCache cache(uniqueDir("cache_hot_bound"), maxBytes);
  for (std::uint64_t i = 0; i < 200; ++i)
    cache.insert(fakeKey(i), fakePayload("e" + std::to_string(i), 400));
  cache.flush();  // written entries may leave the hot tier
  auto s = cache.stats();
  EXPECT_LE(s.bytes, maxBytes);
  EXPECT_LE(s.hotBytes, maxBytes / ResultCache::kHotShare);
  EXPECT_GT(s.hotEntries, 0u);
  EXPECT_LT(s.hotEntries, s.entries);
  // Entries that left the hot tier still read back from disk.
  std::size_t survivors = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    RunPayload p;
    if (cache.lookup(fakeKey(i), &p)) {
      ++survivors;
      EXPECT_EQ(p.json, fakePayload("e" + std::to_string(i), 400).json);
    }
  }
  EXPECT_EQ(survivors, s.entries);
}

TEST(ResultCache, BatchedRecencySurvivesARestart) {
  std::uint64_t entrySize;
  {
    ResultCache probe(uniqueDir("cache_recency_probe"), 1 << 20);
    probe.insert(fakeKey(9), fakePayload("e9", 200));
    entrySize = probe.stats().bytes;
  }
  std::string root = uniqueDir("cache_recency");
  {
    ResultCache cache(root, 1 << 20);
    for (std::uint64_t i = 0; i < 4; ++i) {
      cache.insert(fakeKey(i), fakePayload("e" + std::to_string(i), 200));
      cache.flush();
      // Distinct mtimes, oldest first, even on a coarse file-time clock.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    RunPayload out;
    ASSERT_TRUE(cache.lookup(fakeKey(0), &out));  // entry 0 is now newest
  }  // the destructor writes the batched recency
  // After a restart the fifth insert overflows the bound and must evict
  // entry 1, the least recently used, not entry 0.
  ResultCache cache(root, entrySize * 4 + entrySize / 2);
  cache.insert(fakeKey(4), fakePayload("e4", 200));
  RunPayload out;
  EXPECT_TRUE(cache.lookup(fakeKey(0), &out));
  EXPECT_FALSE(cache.lookup(fakeKey(1), &out));
  EXPECT_TRUE(cache.lookup(fakeKey(2), &out));
}

TEST(ResultCache, RecencyIsWrittenWithinASecondUnderSteadyInserts) {
  std::string root = uniqueDir("cache_recency_due");
  ResultCache cache(root, 1 << 20);
  std::string key = fakeKey(0);
  std::string path = root + "/" + key.substr(0, 2) + "/" + key + ".json";
  cache.insert(key, fakePayload("e0"));
  cache.flush();
  auto before = fs::last_write_time(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RunPayload out;
  ASSERT_TRUE(cache.lookup(key, &out));  // marks the entry
  // Inserts every 50 ms keep the writer busy; the mark is still written
  // about a second after it was made, with no flush.
  bool written = false;
  for (std::uint64_t i = 1; i <= 60 && !written; ++i) {
    cache.insert(fakeKey(i), fakePayload("e" + std::to_string(i)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    written = fs::last_write_time(path) > before;
  }
  EXPECT_TRUE(written);
}

TEST(ResultCache, DestroyedRightAfterInsertsLeavesEveryEntryOnDisk) {
  std::string root = uniqueDir("cache_drain");
  constexpr std::uint64_t kEntries = 300;  // more than one write batch
  {
    ResultCache cache(root, 64 << 20);
    for (std::uint64_t i = 0; i < kEntries; ++i)
      cache.insert(fakeKey(i), fakePayload("d" + std::to_string(i), 300));
  }
  ResultCache reopened(root, 64 << 20);
  EXPECT_EQ(reopened.stats().entries, kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    RunPayload p;
    ASSERT_TRUE(reopened.lookup(fakeKey(i), &p)) << i;
    EXPECT_EQ(p.json, fakePayload("d" + std::to_string(i), 300).json);
  }
  // No temporary files are left behind.
  for (const auto& f : fs::recursive_directory_iterator(root))
    EXPECT_EQ(f.path().string().find(".tmp"), std::string::npos) << f.path();
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
  EXPECT_EQ(q.stats().queuedPoints, 0u);
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
  EXPECT_EQ(q.stats().queuedPoints, 0u);  // remaining 3 dropped
  // The in-flight point still lands; the job then reads as cancelled.
  q.complete(t, campaign::PointRecord{}, false);
  auto s = q.status(id);
  ASSERT_TRUE(s.found);
  EXPECT_EQ(s.state, "cancelled");
  EXPECT_EQ(s.done, 1u);
  q.stop();
  EXPECT_FALSE(q.next(&t));
}

TEST(JobQueue, SoakOfTenThousandJobsStaysWithinTheRetentionBound) {
  JobQueue q(64);
  const std::vector<CampaignPoint> one = {gridPoints()[0]};
  std::uint64_t first = 0, last = 0;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t id = q.submit(static_cast<std::uint64_t>(i % 3), "soak", one);
    ASSERT_NE(id, 0u);
    if (i == 0) first = id;
    last = id;
    JobTask t;
    ASSERT_TRUE(q.next(&t));
    EXPECT_EQ(t.job, id);
    campaign::PointRecord rec;
    rec.ok = true;
    rec.index = t.point.index;
    rec.recordJson = "{\"point\":0}";
    q.complete(t, std::move(rec), true);
    ASSERT_LE(q.stats().retainedJobs, JobQueue::kRetainedJobs);
  }
  auto st = q.stats();
  EXPECT_EQ(st.retainedJobs, JobQueue::kRetainedJobs);
  EXPECT_EQ(st.activeJobs, 0u);
  EXPECT_EQ(st.expiredJobs, 10000u - JobQueue::kRetainedJobs);
  EXPECT_EQ(st.queuedPoints, 0u);
  // The oldest job expired; the newest is still answerable.
  auto gone = q.status(first);
  EXPECT_TRUE(gone.found);
  EXPECT_EQ(gone.state, "expired");
  std::string state;
  EXPECT_TRUE(q.records(first, &state).empty());
  EXPECT_EQ(state, "expired");
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.status(last).state, "done");
  EXPECT_EQ(q.records(last, &state).size(), 1u);
  EXPECT_EQ(state, "done");
  // Ids never issued stay unknown.
  EXPECT_FALSE(q.status(last + 1).found);
  q.records(last + 1, &state);
  EXPECT_EQ(state, "unknown");
}

TEST(JobQueue, RecordBytesBoundExpiresOldJobsButKeepsTheNewest) {
  JobQueue q(64);
  const std::vector<CampaignPoint> one = {gridPoints()[0]};
  // Each record is a third of the byte bound: at most three jobs fit.
  const std::string big(JobQueue::kRetainedRecordBytes / 3, 'r');
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(q.submit(1, "big", one));
    JobTask t;
    ASSERT_TRUE(q.next(&t));
    campaign::PointRecord rec;
    rec.ok = true;
    rec.recordJson = big;
    q.complete(t, std::move(rec), false);
  }
  EXPECT_EQ(q.stats().retainedJobs, 3u);
  EXPECT_EQ(q.status(ids[1]).state, "expired");
  EXPECT_EQ(q.status(ids[2]).state, "done");
  // A single job above the whole bound is still kept until the next one
  // finishes, so its client can fetch it.
  std::uint64_t huge = q.submit(1, "huge", one);
  JobTask t;
  ASSERT_TRUE(q.next(&t));
  campaign::PointRecord rec;
  rec.ok = true;
  rec.recordJson = std::string(JobQueue::kRetainedRecordBytes + 1, 'h');
  q.complete(t, std::move(rec), false);
  std::string state;
  EXPECT_EQ(q.records(huge, &state).size(), 1u);
  EXPECT_EQ(state, "done");
  EXPECT_EQ(q.stats().retainedJobs, 1u);
}

TEST(JobQueue, CancelledJobsNeverDispatchAndFinishedJobsAreRetained) {
  JobQueue q(64);
  std::uint64_t a = q.submit(1, "a", gridPoints());
  std::uint64_t b = q.submit(1, "b", gridPoints());
  std::uint64_t c = q.submit(2, "c", gridPoints());
  EXPECT_TRUE(q.cancel(b));
  // Client 1's job a, then client 2's c, alternating; b never dispatches.
  std::vector<std::uint64_t> order;
  JobTask t;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.next(&t));
    order.push_back(t.job);
    q.complete(t, campaign::PointRecord{}, false);
  }
  EXPECT_EQ(std::count(order.begin(), order.end(), a), 4);
  EXPECT_EQ(std::count(order.begin(), order.end(), c), 4);
  EXPECT_EQ(q.stats().queuedPoints, 0u);
  EXPECT_EQ(q.status(a).state, "done");
  EXPECT_EQ(q.status(b).state, "cancelled");
  EXPECT_EQ(q.stats().activeJobs, 0u);
  EXPECT_EQ(q.stats().retainedJobs, 3u);
}

TEST(JobQueue, ACancelledJobThatExpiresBeforeAPickIsSkipped) {
  JobQueue q(64);
  std::uint64_t gone = q.submit(1, "gone", gridPoints());
  EXPECT_TRUE(q.cancel(gone));  // still in client 1's FIFO until a pick
  // Empty jobs finish at once and push the cancelled one out of retention.
  for (std::size_t i = 0; i < JobQueue::kRetainedJobs; ++i)
    ASSERT_NE(q.submit(2, "empty", {}), 0u);
  EXPECT_EQ(q.status(gone).state, "expired");
  std::uint64_t next = q.submit(1, "next", gridPoints());
  JobTask t;
  ASSERT_TRUE(q.next(&t));
  EXPECT_EQ(t.job, next);
}

// --- sockets ---

TEST(Socket, AThousandRecordPageRoundTripsIntact) {
  std::string dir = uniqueDir("socket_page");
  fs::create_directories(dir);
  UnixListener listener(dir + "/s.sock");
  std::vector<std::string> lines;
  std::string page;
  for (int i = 0; i < 1000; ++i) {
    // ~2 KB lines of varying length and content.
    std::string line = "{\"point\":" + std::to_string(i) + ",\"pad\":\"";
    line += std::string(1900 + static_cast<std::size_t>(i % 200),
                        static_cast<char>('a' + i % 26));
    line += "\"}";
    page += line;
    page += '\n';
    lines.push_back(std::move(line));
  }
  std::thread sender([&] {
    UnixConn conn = listener.accept();
    ASSERT_TRUE(conn.sendLine("{\"count\":1000}"));
    ASSERT_TRUE(conn.sendAll(page));
  });
  UnixConn conn = UnixConn::connect(dir + "/s.sock");
  std::string got;
  ASSERT_EQ(conn.recvLine(&got, server::kMaxFrameBytes), UnixConn::Recv::kOk);
  EXPECT_EQ(got, "{\"count\":1000}");
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(conn.recvLine(&got, server::kMaxFrameBytes), UnixConn::Recv::kOk)
        << i;
    ASSERT_EQ(got, lines[static_cast<std::size_t>(i)]) << i;
  }
  sender.join();
  EXPECT_EQ(conn.recvLine(&got, server::kMaxFrameBytes), UnixConn::Recv::kEof);
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
  EXPECT_EQ(s.at("queued_points").asInt(), 0);
  EXPECT_EQ(s.at("jobs").at("active").asInt(), 0);
  EXPECT_EQ(s.at("jobs").at("retained").asInt(), 1);
  EXPECT_EQ(s.at("jobs").at("expired").asInt(), 0);
  EXPECT_EQ(s.at("cache").at("hot_entries").asInt(), 4);
  EXPECT_GT(s.at("cache").at("hot_bytes").asInt(), 0);

  // A warm replay is served by the hot tier, and hot hits count as hits.
  std::int64_t hitsBefore = s.at("cache").at("hits").asInt();
  std::int64_t hotBefore = s.at("cache").at("hot_hits").asInt();
  auto warm = client.submitSpec(kGridSpec);
  ASSERT_TRUE(warm.ok);
  client.waitForJob(warm.job);
  s = client.stats();
  EXPECT_EQ(s.at("cache").at("hits").asInt() - hitsBefore, 4);
  EXPECT_EQ(s.at("cache").at("hot_hits").asInt() - hotBefore, 4);
  double ratio = s.at("cache").at("hit_ratio").asDouble();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0);
  EXPECT_EQ(s.at("jobs").at("retained").asInt(), 2);
}

TEST(ServerE2E, ExpiredJobsAnswerExpiredOverTheSocket) {
  TestServer ts("e2e_expired");
  ServerClient client(ts.server->options().socketPath);
  const std::string spec =
      "campaign = one\nbase = fpga64\nworkload = vadd\nworkload.n = 16\n"
      "mode = functional\n";
  // One more finished job than the queue retains. The first finishes
  // before the others are submitted, so it is the one that expires.
  auto sub = client.submitSpec(spec);
  ASSERT_TRUE(sub.ok) << sub.error;
  std::uint64_t first = sub.job, last = 0;
  ASSERT_EQ(client.waitForJob(first, 1).state, "done");
  for (std::size_t i = 0; i < JobQueue::kRetainedJobs; ++i) {
    sub = client.submitSpec(spec);
    ASSERT_TRUE(sub.ok) << sub.error;
    last = sub.job;
  }
  auto page = client.waitForJob(last, 1);
  EXPECT_EQ(page.state, "done");
  EXPECT_EQ(page.records.size(), 1u);
  for (int i = 0; i < 5000 && client.stats().at("jobs").at("active").asInt() != 0;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(client.status(first).state, "expired");
  auto gone = client.results(first);
  EXPECT_EQ(gone.state, "expired");
  EXPECT_TRUE(gone.records.empty());
  Json s = client.stats();
  EXPECT_EQ(s.at("jobs").at("retained").asInt(),
            static_cast<std::int64_t>(JobQueue::kRetainedJobs));
  EXPECT_EQ(s.at("jobs").at("expired").asInt(), 1);
  // Ids never issued are still errors, not "expired".
  EXPECT_THROW(client.status(last + 1), ConfigError);
}

TEST(ServerE2E, ADestroyedServerLeavesEveryEntryOnDisk) {
  auto ts = std::make_unique<TestServer>("e2e_drain");
  std::string cacheDir = ts->server->options().cacheDir;
  {
    ServerClient client(ts->server->options().socketPath);
    auto sub = client.submitSpec(kGridSpec);
    ASSERT_TRUE(sub.ok) << sub.error;
    ASSERT_EQ(client.waitForJob(sub.job, 1).records.size(), 4u);
  }
  // The hot-tier copies, read before the writes can be assumed done.
  std::vector<std::pair<std::string, RunPayload>> hot;
  for (const auto& p : gridPoints()) {
    RunPayload payload;
    std::string key = ResultCache::keyFor(p);
    ASSERT_TRUE(ts->server->cache().lookup(key, &payload));
    hot.emplace_back(key, payload);
  }
  ts.reset();
  ResultCache reopened(cacheDir, 1 << 20);
  EXPECT_EQ(reopened.stats().entries, 4u);
  for (const auto& [key, payload] : hot) {
    RunPayload disk;
    ASSERT_TRUE(reopened.lookup(key, &disk));
    EXPECT_EQ(reopened.stats().hotHits, 0u);  // read from the file
    EXPECT_EQ(disk.json, payload.json);
    EXPECT_EQ(disk.instructions, payload.instructions);
    EXPECT_EQ(disk.cycles, payload.cycles);
    EXPECT_EQ(disk.simTimePs, payload.simTimePs);
  }
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
