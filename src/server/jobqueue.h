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
//               interleave point-by-point. Only clients with undispatched
//               points are in the rotation, each with a FIFO of its
//               dispatchable jobs, so a pick costs amortized O(1), not
//               O(jobs ever submitted).
//   Backpressure — the queue holds at most `maxQueuedPoints` undispatched
//               points. A submit that would exceed the bound is rejected
//               (the daemon answers busy:true) instead of buffering
//               without limit; the client retries.
//
// Memory stays bounded as the daemon ages. A job drops its points once
// they are all dispatched. A finished job (done, or cancelled with its
// in-flight points landed) keeps its records until more than
// kRetainedJobs finished jobs, or more than kRetainedRecordBytes of their
// records, are held; then the oldest finished jobs expire. The newest
// finished job never expires on account of its own size. An expired id
// answers state "expired"; resubmitting is cheap because of the cache.
//
// The queue itself never simulates — daemon workers block in next(), run
// the task through the cache/coalescer/simulator, and hand the finished
// record back via complete().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
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
  bool found = false;  // false only for ids never issued
  std::string name;
  // "queued" | "running" | "done" | "cancelling" | "cancelled" | "expired"
  std::string state;
  std::size_t total = 0;
  std::size_t done = 0;        // landed records (ok or failed)
  std::size_t failed = 0;
  std::size_t cacheHits = 0;   // served from cache or coalesced
};

struct QueueStats {
  std::size_t activeJobs = 0;    // not yet finished
  std::size_t retainedJobs = 0;  // finished, records still held
  std::uint64_t expiredJobs = 0; // finished and dropped, since start
  std::size_t queuedPoints = 0;
};

class JobQueue {
 public:
  static constexpr std::size_t kRetainedJobs = 1024;
  static constexpr std::uint64_t kRetainedRecordBytes = 32ull << 20;

  explicit JobQueue(std::size_t maxQueuedPoints);

  /// Enqueues a job. Returns the new job id, or 0 when the queue bound
  /// would be exceeded (backpressure — nothing was enqueued).
  std::uint64_t submit(std::uint64_t client, std::string name,
                       std::vector<campaign::CampaignPoint> points);

  /// Blocks until a task is available (false once stop() has been called).
  /// Fair across clients.
  bool next(JobTask* out);

  /// Lands the finished record for a dispatched task. `viaCache` marks
  /// points served without a fresh simulation (cache hit or coalesced).
  void complete(const JobTask& task, campaign::PointRecord rec,
                bool viaCache);

  /// Skips the job's undispatched points. In-flight points still land.
  /// Returns false for an unknown or expired job id.
  bool cancel(std::uint64_t job);

  JobStatus status(std::uint64_t job) const;

  /// Landed ok-records of the job so far, sorted by point index; *state
  /// receives the same string status() reports, or "unknown" for an id
  /// never issued (records then empty, as for "expired").
  std::vector<campaign::PointRecord> records(std::uint64_t job,
                                             std::string* state) const;

  QueueStats stats() const;

  /// Wakes all waiters; next() drains nothing further after this.
  void stop();

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t client = 0;
    std::string name;
    std::vector<campaign::CampaignPoint> points;  // emptied once dispatched
    std::vector<campaign::PointRecord> recs;      // slot-indexed
    std::vector<char> landed;                     // slot-indexed
    std::size_t total = 0;
    std::size_t nextSlot = 0;   // first undispatched point
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cacheHits = 0;
    std::uint64_t recordBytes = 0;
    bool cancelled = false;
    bool retired = false;  // finished and counted in retired_
  };

  std::string stateLocked(const Job& j) const;
  bool finishedLocked(const Job& j) const;
  bool pickLocked(JobTask* out);
  void retireIfFinishedLocked(Job& j);
  bool expiredLocked(std::uint64_t id) const;

  const std::size_t maxQueuedPoints_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, Job> jobs_;  // active and retained
  // Clients in dispatch order, each with its dispatchable jobs oldest
  // first. A client is in rotation_ exactly while it has an entry in
  // clientJobs_; cancelled jobs leave its FIFO when a pick reaches them.
  std::deque<std::uint64_t> rotation_;
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> clientJobs_;
  std::deque<std::uint64_t> retired_;  // finished job ids, oldest first
  std::uint64_t retainedBytes_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t nextJobId_ = 1;
  std::size_t queued_ = 0;           // undispatched points, all jobs
  bool stopped_ = false;
};

}  // namespace xmt::server
