#include "src/server/jobqueue.h"

#include <algorithm>

namespace xmt::server {

JobQueue::JobQueue(std::size_t maxQueuedPoints)
    : maxQueuedPoints_(maxQueuedPoints) {}

std::uint64_t JobQueue::submit(std::uint64_t client, std::string name,
                               std::vector<campaign::CampaignPoint> points) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return 0;
  if (queued_ + points.size() > maxQueuedPoints_) return 0;  // backpressure
  std::uint64_t id = nextJobId_++;
  Job& job = jobs_[id];
  job.id = id;
  job.client = client;
  job.name = std::move(name);
  job.total = points.size();
  job.recs.resize(points.size());
  job.landed.assign(points.size(), 0);
  job.points = std::move(points);
  queued_ += job.total;
  if (job.total == 0) {
    retireIfFinishedLocked(job);
    return id;
  }
  auto [it, fresh] = clientJobs_.try_emplace(client);
  if (fresh) rotation_.push_back(client);
  it->second.push_back(id);
  cv_.notify_all();
  return id;
}

bool JobQueue::finishedLocked(const Job& j) const {
  return j.cancelled ? j.done == j.nextSlot : j.done == j.total;
}

std::string JobQueue::stateLocked(const Job& j) const {
  if (j.cancelled) return finishedLocked(j) ? "cancelled" : "cancelling";
  if (j.done == j.total) return "done";
  if (j.nextSlot == 0) return "queued";
  return "running";
}

bool JobQueue::expiredLocked(std::uint64_t id) const {
  return id != 0 && id < nextJobId_ && jobs_.find(id) == jobs_.end();
}

bool JobQueue::pickLocked(JobTask* out) {
  // Round-robin over clients; within a client, oldest job first.
  while (!rotation_.empty()) {
    std::uint64_t client = rotation_.front();
    rotation_.pop_front();
    auto cj = clientJobs_.find(client);
    std::deque<std::uint64_t>& fifo = cj->second;
    // Skip cancelled jobs; one may even have finished and expired.
    while (!fifo.empty()) {
      auto head = jobs_.find(fifo.front());
      if (head != jobs_.end() && !head->second.cancelled) break;
      fifo.pop_front();
    }
    if (fifo.empty()) {
      clientJobs_.erase(cj);
      continue;
    }
    Job& job = jobs_.at(fifo.front());
    out->job = job.id;
    out->slot = job.nextSlot;
    out->point = std::move(job.points[job.nextSlot]);
    ++job.nextSlot;
    --queued_;
    if (job.nextSlot == job.total) {
      job.points = {};  // every point dispatched: free them
      fifo.pop_front();
    }
    if (fifo.empty())
      clientJobs_.erase(cj);
    else
      rotation_.push_back(client);
    return true;
  }
  return false;
}

bool JobQueue::next(JobTask* out) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Stop wins over remaining work: a stopping daemon abandons
    // undispatched points (clients resubmit; the cache makes the redo
    // cheap) instead of draining an arbitrarily deep queue.
    if (stopped_) return false;
    if (pickLocked(out)) return true;
    cv_.wait(lock);
  }
}

void JobQueue::complete(const JobTask& task, campaign::PointRecord rec,
                        bool viaCache) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(task.job);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  if (task.slot >= job.landed.size() || job.landed[task.slot]) return;
  job.landed[task.slot] = 1;
  if (!rec.ok) ++job.failed;
  if (viaCache) ++job.cacheHits;
  job.recordBytes += rec.recordJson.size() + rec.error.size();
  job.recs[task.slot] = std::move(rec);
  ++job.done;
  retireIfFinishedLocked(job);
}

// Moves a job that just finished into the retained set, then expires the
// oldest finished jobs beyond the retention bounds.
void JobQueue::retireIfFinishedLocked(Job& j) {
  if (j.retired || !finishedLocked(j)) return;
  j.retired = true;
  retired_.push_back(j.id);
  retainedBytes_ += j.recordBytes;
  while (retired_.size() > kRetainedJobs ||
         (retainedBytes_ > kRetainedRecordBytes && retired_.size() > 1)) {
    auto old = jobs_.find(retired_.front());
    retired_.pop_front();
    retainedBytes_ -= old->second.recordBytes;
    jobs_.erase(old);
    ++expired_;
  }
}

bool JobQueue::cancel(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  Job& j = it->second;
  if (!j.cancelled) {
    j.cancelled = true;
    queued_ -= j.total - j.nextSlot;
    j.points = {};
    // Dispatched points keep running; undispatched slots never will.
    // done/total in status reflect the dispatched prefix only.
    retireIfFinishedLocked(j);
  }
  return true;
}

JobStatus JobQueue::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  JobStatus s;
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    if (expiredLocked(job)) {
      s.found = true;
      s.state = "expired";
    }
    return s;
  }
  const Job& j = it->second;
  s.found = true;
  s.name = j.name;
  s.state = stateLocked(j);
  s.total = j.total;
  s.done = j.done;
  s.failed = j.failed;
  s.cacheHits = j.cacheHits;
  return s;
}

std::vector<campaign::PointRecord> JobQueue::records(
    std::uint64_t job, std::string* state) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<campaign::PointRecord> out;
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    if (state) *state = expiredLocked(job) ? "expired" : "unknown";
    return out;
  }
  const Job& j = it->second;
  if (state) *state = stateLocked(j);
  for (std::size_t i = 0; i < j.total; ++i)
    if (j.landed[i] && j.recs[i].ok) out.push_back(j.recs[i]);
  std::sort(out.begin(), out.end(),
            [](const campaign::PointRecord& a, const campaign::PointRecord& b) {
              return a.index < b.index;
            });
  return out;
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueueStats s;
  s.retainedJobs = retired_.size();
  s.activeJobs = jobs_.size() - retired_.size();
  s.expiredJobs = expired_;
  s.queuedPoints = queued_;
  return s;
}

void JobQueue::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
  cv_.notify_all();
}

}  // namespace xmt::server
