// Campaign runner: executes a sweep grid on the work-stealing pool.
//
// Each grid point is an independent compile + simulate pipeline (the
// Toolchain and Simulator share no mutable state between instances), so
// points parallelize perfectly across workers; the result store
// serializes only the final append of each record. Determinism contract:
// a point's persisted record is a pure function of the spec — bit
// identical regardless of worker count, completion order, or whether the
// campaign was resumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/resultstore.h"
#include "src/campaign/spec.h"

namespace xmt::campaign {

/// The spec-independent outcome of simulating one (config, mode, workload)
/// combination — everything about the run except where it sits in a
/// particular sweep grid. This is the unit the server's content-addressed
/// cache stores: the same payload serves any grid, any client, that asks
/// for the same point.
struct RunPayload {
  bool ok = false;
  std::string error;  // set when !ok
  /// Deterministic JSON object {"workload","config","mode","result",
  /// "stats"}; set when ok. payloadToRecord() turns it back into a full
  /// results.jsonl record byte-identical to an uncached run's.
  std::string json;
  /// The headline numbers of json's "stats", set with it, so that
  /// payloadToRecord() never parses json.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t simTimePs = 0;
};

/// Compiles and simulates one point (no cache involved). Never throws —
/// failures come back as ok=false payloads. Increments the process-wide
/// simulation counter. Compiled programs are memoized by source text (a
/// small bounded memo, default compiler options), so points that differ
/// only in inputs, sizes passed as data, or configuration compile once.
RunPayload simulatePoint(const CampaignPoint& point);

/// Empties simulatePoint's compiled-program memo, so the next call of
/// each source compiles afresh.
void clearCompiledPrograms();

/// Re-attaches a payload to its grid position: splices {"point","key",
/// "dims"} onto the canonical payload text and copies the headline
/// metrics. Pure — a cached payload and a fresh one produce
/// byte-identical records.
PointRecord payloadToRecord(const CampaignPoint& point, const RunPayload& p);

/// Process-wide count of actual simulations executed (simulatePoint
/// calls). The serving tests use the delta across a warm-cache replay to
/// prove "zero simulations" rather than inferring it from timing.
std::uint64_t simulationsExecuted();

struct CampaignOptions {
  /// Output directory for manifest/results/summary (required).
  std::string outDir;
  /// Worker threads; <= 0 selects the hardware concurrency.
  int workers = 0;
  /// Discard any previous results in outDir instead of resuming.
  bool fresh = false;
  /// When > 0, run at most this many pending points (in grid order) and
  /// stop — the building block of the resume tests and of incremental
  /// "run a bit more of the sweep" workflows.
  std::size_t limitPoints = 0;
  /// Progress callback, invoked as each point lands. Calls may come from
  /// different worker threads but are serialized by the runner (one at a
  /// time, with a happens-before edge between consecutive calls), so the
  /// callback itself needs no locking.
  std::function<void(const PointRecord&)> onPoint;
  /// Per-point result-cache hooks (both or neither). When lookup returns
  /// true the point is served from *out without simulating; after a
  /// successful simulation fill is offered the payload. The server and
  /// `xmtdse --cache` plug the content-addressed ResultCache in here.
  /// Both may be called concurrently from worker threads.
  std::function<bool(const CampaignPoint&, RunPayload* out)> cacheLookup;
  std::function<void(const CampaignPoint&, const RunPayload&)> cacheFill;
};

struct CampaignResult {
  std::size_t totalPoints = 0;
  std::size_t skipped = 0;   // already done in the store (resume)
  std::size_t executed = 0;  // run by this invocation
  std::size_t failed = 0;    // of the executed points
  std::size_t cacheHits = 0; // of the executed points, served via cacheLookup
  std::size_t remaining = 0; // still pending (limitPoints cut)
  std::string summary;       // campaignReport(), also in summary.txt
  std::vector<PointRecord> records;  // all store records, by point index
};

/// Runs one resolved point: compile, prepare inputs, simulate, serialize.
/// Never throws — failures come back as ok=false records.
PointRecord runPoint(const CampaignPoint& point);

/// Expands the spec, skips points already in the store, runs the rest on
/// the pool, then finalizes the store (sorted results.jsonl, results.csv,
/// summary.txt).
CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignOptions& opts);

}  // namespace xmt::campaign
