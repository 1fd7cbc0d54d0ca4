// Multi-client job queue for xmtserved.
//
// A job is one submitted sweep: an ordered vector of resolved
// CampaignPoints plus a record slot per point. The queue dispatches one
// point at a time with two policies layered on top of plain FIFO:
//
//   Fairness  — dispatch round-robins across *clients* (connection
//               identities), and within a client across that client's
//               jobs in arrival order. A client that dumps a 10k-point
//               sweep cannot starve another's 4-point request; they
//               interleave point-by-point.
//   Backpressure — the queue holds at most `maxQueuedPoints` undispatched
//               points. A submit that would exceed the bound is rejected
//               (the daemon answers busy:true) instead of buffering
//               without limit; the client retries.
//
// The queue itself never simulates — daemon workers pull JobTasks, run
// them through the cache/coalescer/simulator, and hand the finished
// record back via complete().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/campaign/resultstore.h"
#include "src/campaign/spec.h"

namespace xmt::server {

/// One dispatched unit of work: point `slot` of job `job`.
struct JobTask {
  std::uint64_t job = 0;
  std::size_t slot = 0;
  campaign::CampaignPoint point;
};

struct JobStatus {
  bool found = false;
  std::string name;
  std::string state;  // "queued" | "running" | "done" | "cancelled"
  std::size_t total = 0;
  std::size_t done = 0;        // landed records (ok or failed)
  std::size_t failed = 0;
  std::size_t cacheHits = 0;   // served from cache or coalesced
};

class JobQueue {
 public:
  explicit JobQueue(std::size_t maxQueuedPoints);

  /// Enqueues a job. Returns the new job id, or 0 when the queue bound
  /// would be exceeded (backpressure — nothing was enqueued).
  std::uint64_t submit(std::uint64_t client, std::string name,
                       std::vector<campaign::CampaignPoint> points);

  /// Blocks until a task is available (false once stop() has been called
  /// and nothing is left to dispatch). Fair across clients.
  bool next(JobTask* out);

  /// Lands the finished record for a dispatched task. `viaCache` marks
  /// points served without a fresh simulation (cache hit or coalesced).
  void complete(const JobTask& task, campaign::PointRecord rec,
                bool viaCache);

  /// Skips the job's undispatched points. In-flight points still land.
  /// Returns false for an unknown job id.
  bool cancel(std::uint64_t job);

  JobStatus status(std::uint64_t job) const;

  /// Landed ok-records of the job so far, sorted by point index; *state
  /// receives the same string status() reports. Empty + found=false state
  /// "unknown" for a bad id.
  std::vector<campaign::PointRecord> records(std::uint64_t job,
                                             std::string* state) const;

  std::size_t queuedPoints() const;

  /// Wakes all waiters; next() drains nothing further after this.
  void stop();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t client = 0;
    std::string name;
    std::vector<campaign::CampaignPoint> points;
    std::vector<campaign::PointRecord> recs;  // slot-indexed
    std::vector<char> landed;                 // slot-indexed
    std::size_t nextSlot = 0;   // first undispatched point
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cacheHits = 0;
    bool cancelled = false;
  };

  std::string stateLocked(const Job& j) const;
  bool pickLocked(JobTask* out);

  const std::size_t maxQueuedPoints_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Job> jobs_;
  std::vector<std::uint64_t> clientOrder_;  // distinct clients, arrival order
  std::size_t rr_ = 0;                      // next client to serve
  std::uint64_t nextJobId_ = 1;
  std::size_t queued_ = 0;                  // undispatched points, all jobs
  bool stopped_ = false;
};

}  // namespace xmt::server
