#include "src/campaign/runner.h"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/campaign/report.h"
#include "src/common/error.h"
#include "src/common/threadpool.h"
#include "src/compiler/driver.h"
#include "src/sim/simulator.h"
#include "src/sim/statsjson.h"
#include "src/workloads/registry.h"

namespace xmt::campaign {

namespace {
std::atomic<std::uint64_t> g_simulations{0};
}  // namespace

std::uint64_t simulationsExecuted() {
  return g_simulations.load(std::memory_order_relaxed);
}

namespace {

// Compiled images by XMTC source text. A sweep over seeds, sizes or
// configurations recompiles the same few sources over and over; the
// compiler is deterministic, so one image serves them all. Bounded and
// FIFO; failures are not kept (they re-throw on every call).
class ProgramMemo {
 public:
  static constexpr std::size_t kCapacity = 64;

  std::shared_ptr<const Program> get(const std::string& source) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = programs_.find(source);
      if (it != programs_.end()) return it->second;
    }
    auto program = std::make_shared<const Program>(
        compileToProgram(source, CompilerOptions{}));
    std::lock_guard<std::mutex> lock(mu_);
    if (programs_.emplace(source, program).second) {
      order_.push_back(source);
      if (order_.size() > kCapacity) {
        programs_.erase(order_.front());
        order_.pop_front();
      }
    }
    return program;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    programs_.clear();
    order_.clear();
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Program>> programs_;
  std::deque<std::string> order_;  // insertion order, for eviction
};

ProgramMemo& programMemo() {
  static ProgramMemo memo;
  return memo;
}

}  // namespace

void clearCompiledPrograms() { programMemo().clear(); }

RunPayload simulatePoint(const CampaignPoint& point) {
  g_simulations.fetch_add(1, std::memory_order_relaxed);
  RunPayload p;
  try {
    std::shared_ptr<const Program> program =
        programMemo().get(workloads::instanceSource(point.workload));
    Simulator sim(*program, point.config, point.mode);
    workloads::instancePrepare(point.workload, sim);
    RunResult result = sim.run();
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
    Json run = runRecordJson(point.config, point.mode, result, sim.stats());
    for (const auto& [k, v] : run.fields()) j.set(k, v);
    p.json = j.dump();
    const Json& stats = j.at("stats");
    p.instructions =
        static_cast<std::uint64_t>(stats.at("instructions").asInt());
    p.cycles = static_cast<std::uint64_t>(stats.at("cycles").asInt());
    p.simTimePs = static_cast<std::uint64_t>(stats.at("sim_time_ps").asInt());
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
  // Splice the grid position onto the canonical payload object: the same
  // bytes as parsing it and dumping {"point","key","dims",...payload}.
  Json dims = Json::object();
  for (const auto& [name, value] : point.dims) dims.set(name, Json::str(value));
  std::string& out = rec.recordJson;
  out.reserve(p.json.size() + point.key.size() + 64);
  out += "{\"point\":";
  out += std::to_string(point.index);
  out += ",\"key\":";
  out += Json::str(point.key).dump();
  out += ",\"dims\":";
  out += dims.dump();
  if (p.json.size() > 2) out += ',';
  out.append(p.json, 1);
  rec.instructions = p.instructions;
  rec.cycles = p.cycles;
  rec.simTimePs = p.simTimePs;
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
