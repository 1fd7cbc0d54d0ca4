// xmtdse — XMT design-space-exploration campaign driver.
//
// Expands a sweep spec (ConfigMap format, see src/campaign/spec.h) into a
// grid of machine-configuration x workload points, runs one independent
// simulator per point across a work-stealing thread pool, and persists
// every point as a JSON record plus an aggregated CSV and a summary
// report. Re-invoking the same spec on the same output directory resumes:
// only missing or failed points run.
//
// Usage:
//   xmtdse [options] spec.conf
//
// Options:
//   --out <dir>       output directory   (default campaign-<name>)
//   --workers <N>     worker threads     (default: hardware concurrency)
//   --fresh           discard previous results instead of resuming
//   --limit <K>       run at most K pending points, then stop
//   --cache <dir>     content-addressed result cache shared with xmtserved:
//                     points already simulated (by anyone) are served from
//                     it, fresh points fill it
//   --cache-max-mb <N> cache size bound, LRU-evicted (default 256)
//   --set key=value   spec override (repeatable), e.g. --set sweep.clusters=2,4
//   --dry-run         print the expanded grid and exit
//   --quiet           suppress per-point progress lines
//
// Example:
//   xmtdse --workers 8 tcu_scaling.conf
//   cat campaign-tcu_scaling/summary.txt
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include <memory>

#include "src/campaign/report.h"
#include "src/campaign/runner.h"
#include "src/campaign/spec.h"
#include "src/common/error.h"
#include "src/common/threadpool.h"
#include "src/server/cache.h"
#include "src/sim/statsjson.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xmtdse [options] spec.conf   (see header comment)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string specPath, outDir, cacheDir;
  std::uint64_t cacheMaxBytes = 256ull << 20;
  std::vector<std::string> overrides;
  xmt::campaign::CampaignOptions opts;
  bool dryRun = false, quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") outDir = next();
    else if (arg == "--workers") opts.workers = std::atoi(next().c_str());
    else if (arg == "--fresh") opts.fresh = true;
    else if (arg == "--cache") cacheDir = next();
    else if (arg == "--cache-max-mb")
      cacheMaxBytes = static_cast<std::uint64_t>(std::atol(next().c_str()))
                      << 20;
    else if (arg == "--limit")
      opts.limitPoints = static_cast<std::size_t>(std::atol(next().c_str()));
    else if (arg == "--set") overrides.push_back(next());
    else if (arg == "--dry-run") dryRun = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") return usage();
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      specPath = arg;
    }
  }
  if (specPath.empty()) return usage();

  try {
    xmt::ConfigMap map = xmt::ConfigMap::fromFile(specPath);
    map.applyOverrides(overrides);
    xmt::campaign::CampaignSpec spec =
        xmt::campaign::CampaignSpec::fromConfigMap(map);
    if (outDir.empty()) outDir = "campaign-" + spec.name();
    opts.outDir = outDir;

    if (dryRun) {
      auto points = spec.expand();
      std::printf("campaign '%s': %zu points\n", spec.name().c_str(),
                  points.size());
      for (const auto& p : points)
        std::printf("  %4d  [%s]  workload=%s mode=%s tcus=%d\n", p.index,
                    p.key.c_str(), p.workload.key().c_str(),
                    xmt::simModeName(p.mode), p.config.totalTcus());
      return 0;
    }

    int workers = opts.workers > 0 ? opts.workers
                                   : xmt::ThreadPool::hardwareWorkers();
    std::printf("campaign '%s': %zu points, %d workers, out=%s\n",
                spec.name().c_str(), spec.pointCount(), workers,
                outDir.c_str());

    std::mutex printMu;
    std::size_t finished = 0;
    if (!quiet) {
      opts.onPoint = [&](const xmt::campaign::PointRecord& r) {
        std::lock_guard<std::mutex> lock(printMu);
        ++finished;
        if (r.ok)
          std::printf("[%zu] ok     [%s] cycles=%llu instructions=%llu\n",
                      finished, r.key.c_str(),
                      static_cast<unsigned long long>(r.cycles),
                      static_cast<unsigned long long>(r.instructions));
        else
          std::printf("[%zu] FAILED [%s] %s\n", finished, r.key.c_str(),
                      r.error.c_str());
        std::fflush(stdout);
      };
    }

    std::unique_ptr<xmt::server::ResultCache> cache;
    if (!cacheDir.empty()) {
      cache = std::make_unique<xmt::server::ResultCache>(cacheDir,
                                                         cacheMaxBytes);
      opts.cacheLookup = [&cache](const xmt::campaign::CampaignPoint& p,
                                  xmt::campaign::RunPayload* out) {
        return cache->lookup(xmt::server::ResultCache::keyFor(p), out);
      };
      opts.cacheFill = [&cache](const xmt::campaign::CampaignPoint& p,
                                const xmt::campaign::RunPayload& payload) {
        cache->insert(xmt::server::ResultCache::keyFor(p), payload);
      };
    }

    xmt::campaign::CampaignResult res =
        xmt::campaign::runCampaign(spec, opts);
    std::printf("%s", res.summary.c_str());
    std::printf(
        "\nexecuted %zu (skipped %zu already done, %zu still pending), "
        "%zu failed\nresults: %s/results.jsonl, results.csv, summary.txt\n",
        res.executed, res.skipped, res.remaining, res.failed,
        outDir.c_str());
    if (cache)
      std::printf("cache: %zu of %zu executed points served from %s\n",
                  res.cacheHits, res.executed, cacheDir.c_str());
    return res.failed == 0 ? 0 : 1;
  } catch (const xmt::Error& e) {
    std::fprintf(stderr, "xmtdse: %s\n", e.what());
    return 1;
  }
}
