#include "src/server/daemon.h"

#include <algorithm>
#include <chrono>

#include "src/common/error.h"
#include "src/common/version.h"

namespace xmt::server {

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cacheDir, opts_.cacheMaxBytes),
      queue_(opts_.maxQueuedPoints),
      listener_(opts_.socketPath) {
  int workers = opts_.workers > 0
                    ? opts_.workers
                    : static_cast<int>(std::thread::hardware_concurrency());
  for (int i = 0; i < std::max(workers, 1); ++i)
    workers_.emplace_back([this] { workerLoop(); });
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  std::lock_guard<std::mutex> stopLock(stopMu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);

  listener_.wake();
  if (acceptThread_.joinable()) acceptThread_.join();
  {
    std::lock_guard<std::mutex> lock(connMu_);
    for (auto& slot : conns_) slot.conn.shutdownBoth();
  }
  for (auto& slot : conns_)
    if (slot.thread.joinable()) slot.thread.join();
  conns_.clear();

  queue_.stop();
  for (auto& w : workers_) w.join();
  workers_.clear();
  cache_.flush();

  shutdownCv_.notify_all();
}

bool Server::waitForShutdown(int timeoutMs) {
  std::unique_lock<std::mutex> lock(shutdownMu_);
  shutdownCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                       [this] { return shutdownRequested_; });
  return shutdownRequested_;
}

void Server::acceptLoop() {
  while (!stopping_.load()) {
    UnixConn conn = listener_.accept();
    if (!conn.valid()) break;
    reapFinishedConns();
    std::lock_guard<std::mutex> lock(connMu_);
    conns_.emplace_back();
    ConnSlot* slot = &conns_.back();
    slot->conn = std::move(conn);
    std::uint64_t clientId = nextClientId_++;
    slot->thread = std::thread([this, slot, clientId] {
      serveConn(slot, clientId);
    });
  }
}

void Server::reapFinishedConns() {
  std::lock_guard<std::mutex> lock(connMu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->finished.load()) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serveConn(ConnSlot* slot, std::uint64_t clientId) {
  std::string line;
  while (!stopping_.load()) {
    UnixConn::Recv r = slot->conn.recvLine(&line, opts_.maxFrameBytes);
    if (r == UnixConn::Recv::kEof) break;
    if (r == UnixConn::Recv::kOversize) {
      // The line has been drained; reject it and keep serving.
      slot->conn.sendLine(
          errorResponse("frame exceeds " +
                        std::to_string(opts_.maxFrameBytes) + " bytes")
              .dump());
      continue;
    }
    handleLine(line, clientId, slot->conn);
  }
  slot->finished.store(true);
}

void Server::handleLine(const std::string& line, std::uint64_t clientId,
                        UnixConn& conn) {
  Request req;
  try {
    req = parseRequest(line);
  } catch (const Error& e) {
    conn.sendLine(errorResponse(e.what()).dump());
    return;
  }

  try {
    if (req.cmd == "ping") {
      Json j = okResponse();
      j.set("server", Json::str("xmtserved"));
      j.set("version", Json::str(kToolchainVersion));
      conn.sendLine(j.dump());
    } else if (req.cmd == "submit") {
      const Json* spec = req.body.find("spec");
      if (!spec) {
        conn.sendLine(errorResponse("submit: missing 'spec'").dump());
        return;
      }
      campaign::CampaignSpec cs =
          campaign::CampaignSpec::fromText(spec->asString());
      std::vector<campaign::CampaignPoint> points = cs.expand();
      if (points.size() > opts_.maxQueuedPoints) {
        conn.sendLine(
            errorResponse("submit: grid has " +
                          std::to_string(points.size()) +
                          " points, above the queue bound of " +
                          std::to_string(opts_.maxQueuedPoints))
                .dump());
        return;
      }
      std::uint64_t id =
          queue_.submit(clientId, cs.name(), std::move(points));
      if (id == 0) {
        conn.sendLine(busyResponse("queue full, retry later").dump());
        return;
      }
      Json j = okResponse();
      j.set("job", Json::number(id));
      j.set("points", Json::number(
                          static_cast<std::int64_t>(cs.pointCount())));
      conn.sendLine(j.dump());
    } else if (req.cmd == "status") {
      JobStatus s = queue_.status(
          static_cast<std::uint64_t>(req.body.at("job").asInt()));
      if (!s.found) {
        conn.sendLine(errorResponse("unknown job").dump());
        return;
      }
      Json j = okResponse();
      j.set("name", Json::str(s.name));
      j.set("state", Json::str(s.state));
      j.set("total", Json::number(static_cast<std::int64_t>(s.total)));
      j.set("done", Json::number(static_cast<std::int64_t>(s.done)));
      j.set("failed", Json::number(static_cast<std::int64_t>(s.failed)));
      j.set("cache_hits",
            Json::number(static_cast<std::int64_t>(s.cacheHits)));
      conn.sendLine(j.dump());
    } else if (req.cmd == "results") {
      std::string state;
      std::vector<campaign::PointRecord> recs = queue_.records(
          static_cast<std::uint64_t>(req.body.at("job").asInt()), &state);
      if (state == "unknown") {
        conn.sendLine(errorResponse("unknown job").dump());
        return;
      }
      Json j = okResponse();
      j.set("state", Json::str(state));
      j.set("count", Json::number(static_cast<std::int64_t>(recs.size())));
      // The header and every record line go out in one send.
      std::string reply = j.dump();
      std::size_t bytes = reply.size() + 1;
      for (const auto& r : recs) bytes += r.recordJson.size() + 1;
      reply.reserve(bytes);
      reply += '\n';
      for (const auto& r : recs) {
        reply += r.recordJson;
        reply += '\n';
      }
      conn.sendAll(reply);
    } else if (req.cmd == "cancel") {
      bool found = queue_.cancel(
          static_cast<std::uint64_t>(req.body.at("job").asInt()));
      conn.sendLine(
          (found ? okResponse() : errorResponse("unknown job")).dump());
    } else if (req.cmd == "stats") {
      CacheStats cs = cache_.stats();
      Json c = Json::object();
      c.set("entries", Json::number(cs.entries));
      c.set("bytes", Json::number(cs.bytes));
      c.set("hits", Json::number(cs.hits));
      c.set("misses", Json::number(cs.misses));
      c.set("hit_ratio",
            Json::real(cs.hits + cs.misses == 0
                           ? 0.0
                           : static_cast<double>(cs.hits) /
                                 static_cast<double>(cs.hits + cs.misses)));
      c.set("inserts", Json::number(cs.inserts));
      c.set("evictions", Json::number(cs.evictions));
      c.set("hot_entries", Json::number(cs.hotEntries));
      c.set("hot_bytes", Json::number(cs.hotBytes));
      c.set("hot_hits", Json::number(cs.hotHits));
      QueueStats qs = queue_.stats();
      Json jobs = Json::object();
      jobs.set("active", Json::number(static_cast<std::uint64_t>(qs.activeJobs)));
      jobs.set("retained",
               Json::number(static_cast<std::uint64_t>(qs.retainedJobs)));
      jobs.set("expired", Json::number(qs.expiredJobs));
      Json j = okResponse();
      j.set("simulations", Json::number(campaign::simulationsExecuted()));
      j.set("coalesced", Json::number(coalescer_.coalescedCount()));
      j.set("queued_points",
            Json::number(static_cast<std::uint64_t>(qs.queuedPoints)));
      j.set("jobs", std::move(jobs));
      j.set("cache", std::move(c));
      conn.sendLine(j.dump());
    } else if (req.cmd == "shutdown") {
      conn.sendLine(okResponse().dump());
      std::lock_guard<std::mutex> lock(shutdownMu_);
      shutdownRequested_ = true;
      shutdownCv_.notify_all();
    }
  } catch (const Error& e) {
    conn.sendLine(errorResponse(e.what()).dump());
  }
}

void Server::workerLoop() {
  JobTask task;
  while (queue_.next(&task)) execTask(task);
}

void Server::execTask(const JobTask& task) {
  std::string key = ResultCache::keyFor(task.point);
  campaign::RunPayload payload;
  bool viaCache = false;
  if (cache_.lookup(key, &payload)) {
    viaCache = true;
  } else if (!coalescer_.lead(key, &payload)) {
    viaCache = true;  // another task simulated it while we waited
  } else {
    // We are the leader. Re-check the cache: a previous leader may have
    // landed the entry between our miss and our lead().
    if (cache_.lookup(key, &payload)) {
      viaCache = true;
    } else {
      payload = campaign::simulatePoint(task.point);
      if (payload.ok) cache_.insert(key, payload);
    }
    coalescer_.finish(key, payload);
  }
  queue_.complete(task, campaign::payloadToRecord(task.point, payload),
                  viaCache);
}

}  // namespace xmt::server
