#include "src/campaign/runner.h"

#include <atomic>
#include <mutex>

#include "src/campaign/report.h"
#include "src/common/error.h"
#include "src/common/threadpool.h"
#include "src/core/toolchain.h"
#include "src/sim/statsjson.h"

namespace xmt::campaign {

namespace {
std::atomic<std::uint64_t> g_simulations{0};
}  // namespace

std::uint64_t simulationsExecuted() {
  return g_simulations.load(std::memory_order_relaxed);
}

RunPayload simulatePoint(const CampaignPoint& point) {
  g_simulations.fetch_add(1, std::memory_order_relaxed);
  RunPayload p;
  try {
    ToolchainOptions opts;
    opts.config = point.config;
    opts.mode = point.mode;
    Toolchain tc(opts);
    auto sim = tc.makeSimulator(workloads::instanceSource(point.workload));
    workloads::instancePrepare(point.workload, *sim);
    RunResult result = sim->run();
    if (!result.halted)
      throw SimError("program did not halt (instruction budget exhausted?)");

    Json j = Json::object();
    Json w = Json::object();
    w.set("name", Json::str(point.workload.name));
    Json params = Json::object();
    for (const auto& k : point.workload.params.keys())
      params.set(k, Json::str(point.workload.params.getString(k, "")));
    w.set("params", std::move(params));
    w.set("key", Json::str(point.workload.key()));
    j.set("workload", std::move(w));
    Json run = runRecordJson(point.config, point.mode, result, sim->stats());
    for (const auto& [k, v] : run.fields()) j.set(k, v);
    p.json = j.dump();
    p.ok = true;
  } catch (const Error& e) {
    p.ok = false;
    p.error = e.what();
  }
  return p;
}

PointRecord payloadToRecord(const CampaignPoint& point, const RunPayload& p) {
  PointRecord rec;
  rec.index = point.index;
  rec.key = point.key;
  rec.dims = point.dims;
  rec.mode = simModeName(point.mode);
  rec.workload = point.workload.key();
  if (!p.ok) {
    rec.ok = false;
    rec.error = p.error;
    return rec;
  }
  // Re-parse rather than splice strings: Json parse->dump is byte-stable,
  // so cached and freshly simulated payloads serialize identically.
  Json payload = Json::parse(p.json);
  Json j = Json::object();
  j.set("point", Json::number(static_cast<std::int64_t>(point.index)));
  j.set("key", Json::str(point.key));
  Json dims = Json::object();
  for (const auto& [name, value] : point.dims) dims.set(name, Json::str(value));
  j.set("dims", std::move(dims));
  for (const auto& [k, v] : payload.fields()) j.set(k, v);
  rec.recordJson = j.dump();
  const Json& stats = payload.at("stats");
  rec.instructions =
      static_cast<std::uint64_t>(stats.at("instructions").asInt());
  rec.cycles = static_cast<std::uint64_t>(stats.at("cycles").asInt());
  rec.simTimePs = static_cast<std::uint64_t>(stats.at("sim_time_ps").asInt());
  rec.ok = true;
  return rec;
}

PointRecord runPoint(const CampaignPoint& point) {
  return payloadToRecord(point, simulatePoint(point));
}

CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignOptions& opts) {
  if (opts.outDir.empty())
    throw ConfigError("campaign output directory not set");

  std::vector<CampaignPoint> points = spec.expand();
  ResultStore store(opts.outDir, spec, opts.fresh);

  std::vector<const CampaignPoint*> pending;
  for (const auto& p : points)
    if (!store.isDone(p.index)) pending.push_back(&p);

  CampaignResult res;
  res.totalPoints = points.size();
  res.skipped = points.size() - pending.size();
  std::size_t toRun = pending.size();
  if (opts.limitPoints > 0 && opts.limitPoints < toRun)
    toRun = opts.limitPoints;
  res.executed = toRun;
  res.remaining = pending.size() - toRun;

  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> cacheHits{0};
  // Serializes onPoint invocations: callbacks land from worker threads, but
  // one at a time and with a happens-before edge between them, so a plain
  // counter or ostream in the callback needs no locking of its own.
  std::mutex onPointMutex;
  {
    // Clamp here rather than trusting the pool's own default: workers == 0
    // must never reach ThreadPool as a zero-thread pool.
    int workers = opts.workers > 0 ? opts.workers
                                   : ThreadPool::hardwareWorkers();
    if (workers < 1) workers = 1;
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < toRun; ++i) {
      const CampaignPoint* p = pending[i];
      pool.submit([p, &store, &failed, &cacheHits, &opts, &onPointMutex] {
        RunPayload payload;
        bool hit = opts.cacheLookup && opts.cacheLookup(*p, &payload);
        if (hit) {
          cacheHits.fetch_add(1, std::memory_order_relaxed);
        } else {
          payload = simulatePoint(*p);
          if (payload.ok && opts.cacheFill) opts.cacheFill(*p, payload);
        }
        PointRecord rec = payloadToRecord(*p, payload);
        if (!rec.ok) failed.fetch_add(1, std::memory_order_relaxed);
        store.record(rec);
        if (opts.onPoint) {
          std::lock_guard<std::mutex> lock(onPointMutex);
          opts.onPoint(rec);
        }
      });
    }
    pool.wait();
  }
  res.failed = failed.load();
  res.cacheHits = cacheHits.load();

  res.records = store.sortedRecords();
  res.summary = campaignReport(spec, res.records);
  store.finalize(res.summary);
  return res;
}

}  // namespace xmt::campaign
