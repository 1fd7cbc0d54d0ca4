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
  Job job;
  job.id = nextJobId_++;
  job.client = client;
  job.name = std::move(name);
  job.recs.resize(points.size());
  job.landed.assign(points.size(), 0);
  job.points = std::move(points);
  queued_ += job.points.size();
  if (std::find(clientOrder_.begin(), clientOrder_.end(), client) ==
      clientOrder_.end())
    clientOrder_.push_back(client);
  std::uint64_t id = job.id;
  jobs_.emplace(id, std::move(job));
  cv_.notify_all();
  return id;
}

std::string JobQueue::stateLocked(const Job& j) const {
  if (j.cancelled)
    return j.done == j.nextSlot ? "cancelled" : "cancelling";
  if (j.done == j.points.size()) return "done";
  if (j.nextSlot == 0) return "queued";
  return "running";
}

bool JobQueue::pickLocked(JobTask* out) {
  // Round-robin over clients; within a client, oldest job first (jobs_ is
  // id-ordered and ids are monotonic).
  for (std::size_t k = 0; k < clientOrder_.size(); ++k) {
    std::size_t ci = (rr_ + k) % clientOrder_.size();
    std::uint64_t client = clientOrder_[ci];
    for (auto& [id, job] : jobs_) {
      if (job.client != client || job.cancelled) continue;
      if (job.nextSlot >= job.points.size()) continue;
      out->job = id;
      out->slot = job.nextSlot;
      out->point = job.points[job.nextSlot];
      ++job.nextSlot;
      --queued_;
      rr_ = (ci + 1) % clientOrder_.size();
      return true;
    }
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
  job.recs[task.slot] = std::move(rec);
  ++job.done;
}

bool JobQueue::cancel(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return false;
  Job& j = it->second;
  if (!j.cancelled) {
    j.cancelled = true;
    queued_ -= j.points.size() - j.nextSlot;
    // Dispatched points keep running; undispatched slots never will.
    // done/total in status reflect the dispatched prefix only.
  }
  return true;
}

JobStatus JobQueue::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  JobStatus s;
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return s;
  const Job& j = it->second;
  s.found = true;
  s.name = j.name;
  s.state = stateLocked(j);
  s.total = j.points.size();
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
    if (state) *state = "unknown";
    return out;
  }
  const Job& j = it->second;
  if (state) *state = stateLocked(j);
  for (std::size_t i = 0; i < j.points.size(); ++i)
    if (j.landed[i] && j.recs[i].ok) out.push_back(j.recs[i]);
  std::sort(out.begin(), out.end(),
            [](const campaign::PointRecord& a, const campaign::PointRecord& b) {
              return a.index < b.index;
            });
  return out;
}

std::size_t JobQueue::queuedPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

void JobQueue::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
  cv_.notify_all();
}

}  // namespace xmt::server
