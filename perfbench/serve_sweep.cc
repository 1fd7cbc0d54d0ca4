// serve_sweep: sweep jobs through an in-process xmtserved over its real
// Unix socket, as xmtq would send them.
//
// Set-up starts a Server (two pool workers) with its cache in a fresh
// directory and computes every warm record of a base grid of
// functional-mode registry points in-process with
// payloadToRecord(simulatePoint()); the untimed warm-up then fills the
// daemon's cache with that grid. One operation submits the base grid
// plus kColdSeeds never-seen `workload.seed` values per workload, polls
// `status` until the job is done, fetches the records and reads `stats`.
// The check: every record present and ok, warm records byte-identical to
// set-up's, and exactly one cache hit per warm point and one simulation
// per cold point. The few cold points keep the fsync'd writes, whose time
// is mostly the shared disk's, a small share of an operation.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/common/json.h"
#include "src/server/cache.h"
#include "src/server/client.h"
#include "src/server/daemon.h"

namespace xbench {
namespace {

namespace fs = std::filesystem;
using xmt::campaign::CampaignPoint;

constexpr const char* kWorkloads = "histogram,parallel_sum,prefix_sum,vadd";
constexpr int kWorkloadCount = 4;
constexpr int kBaseSeeds = 64;
constexpr int kColdSeeds = 4;  // per operation, so 16 simulations
constexpr int kServerWorkers = 2;
constexpr auto kPollInterval = std::chrono::microseconds(200);
// Relative to the working directory, which keeps the socket path short.
constexpr const char* kDir = "serve_sweep";

struct DaemonCounts {
  std::int64_t hits = 0;
  std::int64_t simulations = 0;
};

DaemonCounts readCounts(xmt::server::ServerClient& c) {
  xmt::Json s = c.stats();
  return {s.at("cache").at("hits").asInt(), s.at("simulations").asInt()};
}

class ServeSweep final : public Workload {
 public:
  explicit ServeSweep(const Args& args)
      : args_(args),
        seedBase_(static_cast<std::int64_t>(args.seed % 1000) * 1000000 + 1) {}

  ~ServeSweep() override {
    stopDaemon();
    std::error_code ec;
    fs::remove_all(kDir, ec);
  }

  // Starts the daemon and computes, in-process, the expected record of
  // every warm point: simulations on this thread, no disk writes.
  void setup(CpuRotation& cpus) override {
    stopDaemon();
    fs::remove_all(kDir);
    fs::create_directories(kDir);
    xmt::server::ServerOptions o;
    o.socketPath = std::string(kDir) + "/xmtserved.sock";
    o.cacheDir = std::string(kDir) + "/cache";
    o.workers = kServerWorkers;
    cpus.release();  // the daemon's threads must not inherit one CPU
    server_ = std::make_unique<xmt::server::Server>(o);
    client_ = std::make_unique<xmt::server::ServerClient>(o.socketPath);

    // Expected records of an operation's grid: its warm points never change
    // position, because only the last seed values differ between operations.
    points_ = xmt::campaign::CampaignSpec::fromText(specText(coldSeed(0)))
                  .expand();
    expected_.assign(points_.size(), "");
    warmPayloads_.clear();
    warm_ = 0;
    for (const CampaignPoint& p : points_) {
      if (isCold(p)) {
        if (p.key != coldKey(p, seedOf(p)))
          throw std::runtime_error("unexpected point key " + p.key);
        continue;
      }
      cpus.next();
      xmt::campaign::RunPayload payload = xmt::campaign::simulatePoint(p);
      if (!payload.ok) throw std::runtime_error(p.key + ": " + payload.error);
      expected_[static_cast<std::size_t>(p.index)] =
          xmt::campaign::payloadToRecord(p, payload).recordJson;
      warmPayloads_.push_back({p, payload});
      ++warm_;
    }
    if (warm_ != kWorkloadCount * kBaseSeeds)
      throw std::runtime_error("unexpected grid shape");
    if (args_.corrupt) expected_[0] += " ";
  }

  // Fills the daemon's cache with the base grid, and the private probe
  // cache with the same payloads: 512 fsync'd writes.
  void warmUp() override {
    xmt::server::SubmitResult s = client_->submitSpec(specText(-1));
    if (!s.ok) throw std::runtime_error("base grid submit: " + s.error);
    xmt::server::ResultsPage base = client_->waitForJob(s.job, 1);
    if (base.state != "done" ||
        base.records.size() != kWorkloadCount * kBaseSeeds)
      throw std::runtime_error("base grid did not complete");
    probeCache_ = std::make_unique<xmt::server::ResultCache>(
        std::string(kDir) + "/probe_cache", 64ull << 20);
    for (const auto& [p, payload] : warmPayloads_)
      probeCache_->insert(xmt::server::ResultCache::keyFor(p), payload);
    counts_ = readCounts(*client_);
  }

  // A fresh daemon's operations start about 1.4x slower and reach their
  // steady time after five to eight seconds of operations, with or without
  // idle time before them; its cache inserts (fsync'd writes) slow down
  // the most.
  std::uint64_t settleOps() const override { return 160; }

  std::string runOp(std::uint64_t op, Tracer& tr, CpuRotation&) override {
    const std::int64_t cold = coldSeed(op);
    xmt::server::SubmitResult s;
    {
      Tracer::Scope sp(tr, "server.submit");
      s = client_->submitSpec(specText(cold));
    }
    if (!s.ok) return s.busy ? "refused: busy" : "submit: " + s.error;
    xmt::server::StatusResult st;
    int polls = 0;
    {
      Tracer::Scope sp(tr, "server.job");
      for (;;) {
        st = client_->status(s.job);
        ++polls;
        if (st.state != "queued" && st.state != "running") break;
        std::this_thread::sleep_for(kPollInterval);
      }
    }
    if (tr.enabled()) polls_[op] = polls;
    xmt::server::ResultsPage page;
    {
      Tracer::Scope sp(tr, "server.results");
      page = client_->results(s.job);
    }
    DaemonCounts now = readCounts(*client_);
    DaemonCounts delta{now.hits - counts_.hits,
                       now.simulations - counts_.simulations};
    counts_ = now;
    lastDelta_ = delta;

    const std::size_t coldCount = points_.size() - warm_;
    if (st.state != "done" || st.failed != 0)
      return "job ended " + st.state + " with " + std::to_string(st.failed) +
             " failed points";
    if (page.records.size() != points_.size())
      return "expected " + std::to_string(points_.size()) + " records, got " +
             std::to_string(page.records.size());
    if (st.cacheHits != warm_ || delta.hits != static_cast<std::int64_t>(warm_) ||
        delta.simulations != static_cast<std::int64_t>(coldCount))
      return "expected " + std::to_string(warm_) + " cache hits and " +
             std::to_string(coldCount) + " simulations, daemon reports " +
             std::to_string(delta.hits) + " and " +
             std::to_string(delta.simulations);
    firstColdRecord_.clear();
    for (const CampaignPoint& p : points_) {
      const std::string& rec = page.records[static_cast<std::size_t>(p.index)];
      if (!isCold(p)) {
        if (rec != expected_[static_cast<std::size_t>(p.index)])
          return "warm record " + p.key + " differs from set-up's";
        continue;
      }
      xmt::Json j = xmt::Json::parse(rec);
      std::string key = coldKey(p, seedOf(p) - coldSeed(0) + cold);
      if (j.at("key").asString() != key ||
          !j.at("result").at("halted").asBool())
        return "cold record " + key + " is wrong";
      if (firstColdRecord_.empty()) firstColdRecord_ = rec;
    }
    return "";
  }

  // Times the campaign and cache layers directly: re-simulates this
  // operation's first cold point in-process (its record must equal the
  // daemon's byte for byte), inserts it into a private cache, and looks up
  // one warm point there.
  std::string probe(std::uint64_t op, Tracer& tr) override {
    CampaignPoint point;
    for (const CampaignPoint& p :
         xmt::campaign::CampaignSpec::fromText(specText(coldSeed(op))).expand())
      if (isCold(p)) {
        point = p;
        break;
      }
    xmt::campaign::RunPayload payload;
    {
      Tracer::Scope sp(tr, "campaign.simulate");
      payload = xmt::campaign::simulatePoint(point);
    }
    xmt::campaign::PointRecord rec;
    {
      Tracer::Scope sp(tr, "campaign.record");
      rec = xmt::campaign::payloadToRecord(point, payload);
    }
    {
      Tracer::Scope sp(tr, "cache.insert");
      probeCache_->insert(xmt::server::ResultCache::keyFor(point), payload);
    }
    const auto& [warmPoint, warmPayload] =
        warmPayloads_[op % warmPayloads_.size()];
    xmt::campaign::RunPayload hit;
    bool found;
    {
      Tracer::Scope sp(tr, "cache.lookup");
      found = probeCache_->lookup(xmt::server::ResultCache::keyFor(warmPoint),
                                  &hit);
    }
    // The in-process simulation moved the process-wide counter.
    counts_ = readCounts(*client_);
    if (rec.recordJson != firstColdRecord_)
      return "in-process record differs from the daemon's";
    if (!found || hit.json != warmPayload.json)
      return "direct cache lookup missed or differs";
    return "";
  }

  void layerMetrics(const Tracer& tr, Metrics& out) const override {
    std::vector<double> polls;
    for (const auto& [op, n] : polls_) polls.push_back(n);
    out.push_back({"server.submit_ms", medianOf(tr.perOpMs("server.submit"))});
    out.push_back({"server.job_ms", medianOf(tr.perOpMs("server.job"))});
    out.push_back({"server.status_polls", median(polls)});
    out.push_back(
        {"server.results_ms", medianOf(tr.perOpMs("server.results"))});
    out.push_back(
        {"cache.lookup_us", 1000 * medianOf(tr.perOpMs("cache.lookup"))});
    out.push_back(
        {"cache.insert_us", 1000 * medianOf(tr.perOpMs("cache.insert"))});
    out.push_back(
        {"campaign.simulate_ms", medianOf(tr.perOpMs("campaign.simulate"))});
    out.push_back(
        {"campaign.record_us", 1000 * medianOf(tr.perOpMs("campaign.record"))});
  }

  // Every operation's `stats` deltas equalled these counts.
  void printSummary() const override {
    std::printf(
        "fingerprint serve_sweep: records=%zu server.cache_hits=%lld "
        "server.simulations=%lld per operation\n",
        points_.size(), static_cast<long long>(lastDelta_.hits),
        static_cast<long long>(lastDelta_.simulations));
  }

 private:
  // The grid: kWorkloads x (the base seeds, then kColdSeeds seeds from
  // `cold` on, unless it is negative).
  std::string specText(std::int64_t cold) const {
    std::string s =
        "campaign = serve_sweep\n"
        "base = fpga64\n"
        "mode = functional\n"
        "workload.n = 256\n"
        "sweep.workload = ";
    s += kWorkloads;
    s += "\nsweep.workload.seed = ";
    for (int i = 0; i < kBaseSeeds; ++i) {
      if (i) s += ",";
      s += std::to_string(seedBase_ + i);
    }
    for (int i = 0; cold >= 0 && i < kColdSeeds; ++i)
      s += "," + std::to_string(cold + i);
    return s + "\n";
  }

  // The first of operation `op`'s never-seen seeds.
  std::int64_t coldSeed(std::uint64_t op) const {
    return seedBase_ + kBaseSeeds + static_cast<std::int64_t>(op) * kColdSeeds;
  }

  static std::int64_t seedOf(const CampaignPoint& p) {
    return p.workload.params.getInt("seed", -1);
  }

  bool isCold(const CampaignPoint& p) const {
    return seedOf(p) >= seedBase_ + kBaseSeeds;
  }

  // The grid key of `p`'s workload at seed `cold`.
  static std::string coldKey(const CampaignPoint& p, std::int64_t cold) {
    return "workload=" + p.workload.name +
           " workload.seed=" + std::to_string(cold);
  }

  void stopDaemon() {
    client_.reset();
    server_.reset();
  }

  Args args_;
  std::int64_t seedBase_;
  std::unique_ptr<xmt::server::Server> server_;
  std::unique_ptr<xmt::server::ServerClient> client_;
  std::unique_ptr<xmt::server::ResultCache> probeCache_;
  std::vector<CampaignPoint> points_;
  std::vector<std::string> expected_;  // by point index; "" for cold points
  std::vector<std::pair<CampaignPoint, xmt::campaign::RunPayload>>
      warmPayloads_;
  std::size_t warm_ = 0;
  DaemonCounts counts_;
  DaemonCounts lastDelta_;
  std::string firstColdRecord_;         // of the last operation
  std::map<std::uint64_t, int> polls_;  // traced operations only
};

}  // namespace

std::unique_ptr<Workload> makeServeSweep(const Args& args) {
  return std::make_unique<ServeSweep>(args);
}

}  // namespace xbench
