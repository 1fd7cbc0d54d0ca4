// Thin client for the xmtserved protocol — the library behind the xmtq
// CLI and the serving tests. One ServerClient wraps one connection; it
// is not thread-safe (the protocol is strictly request/response per
// connection; concurrent clients open their own connections).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace xmt::server {

struct SubmitResult {
  bool ok = false;
  bool busy = false;       // backpressure: retry later
  std::string error;       // set when !ok
  std::uint64_t job = 0;
  std::size_t points = 0;
};

struct StatusResult {
  // queued | running | done | cancelling | cancelled | expired
  std::string state;
  std::size_t total = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cacheHits = 0;
};

struct ResultsPage {
  std::string state;
  std::vector<std::string> records;  // results.jsonl lines, point order
};

class ServerClient {
 public:
  /// Connects; throws IoError when no daemon listens on `socketPath`.
  explicit ServerClient(const std::string& socketPath);

  /// Sends one request object, returns the response object. Throws
  /// IoError when the connection drops, ConfigError on an unparsable
  /// response.
  Json request(const Json& req);

  Json ping();
  SubmitResult submitSpec(const std::string& specText);
  StatusResult status(std::uint64_t job);            // throws on unknown job
  ResultsPage results(std::uint64_t job);            // throws on unknown job
  bool cancel(std::uint64_t job);
  Json stats();
  void shutdown();

  /// Polls status until the job leaves queued/running, then fetches the
  /// final records. `pollMs` is the sleep between polls.
  ResultsPage waitForJob(std::uint64_t job, int pollMs = 20);

 private:
  Json roundTrip(const std::string& line);

  class Impl;
  // UnixConn kept out of the header via a tiny pimpl so client users
  // don't pull in socket headers.
  std::shared_ptr<Impl> impl_;
};

}  // namespace xmt::server
