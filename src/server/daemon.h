// xmtserved: the simulation-as-a-service daemon.
//
// One Server owns the four moving parts and wires them together:
//
//   UnixListener  -> accept loop, one lightweight thread per connection
//                    (protocol parsing only; never simulates)
//   JobQueue      -> fairness + backpressure between clients, bounded
//                    retention of finished jobs
//   workers       -> `workers` threads, each blocking in JobQueue::next()
//                    and running the point it gets, so the queue alone
//                    decides the order and no hand-off sits between them
//   ResultCache + Coalescer -> every point is served from the persistent
//                    content-addressed cache when possible (a hot hit
//                    never touches the disk; inserts are written behind
//                    by the cache's own thread); concurrent identical
//                    points collapse onto one simulation
//
// The daemon is embeddable: tests construct a Server in-process, drive
// it through real sockets, destroy it, and construct a new one over the
// same cache directory to model a restart.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/socket.h"
#include "src/server/cache.h"
#include "src/server/jobqueue.h"
#include "src/server/protocol.h"

namespace xmt::server {

struct ServerOptions {
  std::string socketPath;            // required
  std::string cacheDir;              // required
  std::uint64_t cacheMaxBytes = 256ull << 20;
  int workers = 0;                   // <= 0: hardware concurrency
  std::size_t maxQueuedPoints = 4096;
  std::size_t maxFrameBytes = kMaxFrameBytes;
};

class Server {
 public:
  /// Binds the socket, opens the cache, and starts serving. Throws
  /// IoError/ConfigError when the socket or cache directory is unusable.
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful stop: wakes the accept loop, closes live connections,
  /// drains in-flight points (queued-but-undispatched work is dropped),
  /// joins every thread and waits until every cache insert is on disk.
  /// Idempotent.
  void stop();

  /// Blocks up to timeoutMs; returns true once a client has issued
  /// `shutdown` (the caller then runs stop()).
  bool waitForShutdown(int timeoutMs);

  ResultCache& cache() { return cache_; }
  std::uint64_t coalescedCount() const { return coalescer_.coalescedCount(); }
  const ServerOptions& options() const { return opts_; }

 private:
  struct ConnSlot {
    UnixConn conn;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void acceptLoop();
  void serveConn(ConnSlot* slot, std::uint64_t clientId);
  /// Handles one request line; sends the response (and, for `results`,
  /// the record lines) on `conn`.
  void handleLine(const std::string& line, std::uint64_t clientId,
                  UnixConn& conn);
  void workerLoop();
  void execTask(const JobTask& task);
  void reapFinishedConns();

  ServerOptions opts_;
  ResultCache cache_;
  Coalescer coalescer_;
  JobQueue queue_;
  UnixListener listener_;
  std::vector<std::thread> workers_;

  std::mutex connMu_;
  std::list<ConnSlot> conns_;
  std::uint64_t nextClientId_ = 1;

  std::mutex shutdownMu_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ = false;

  std::thread acceptThread_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::mutex stopMu_;
};

}  // namespace xmt::server
