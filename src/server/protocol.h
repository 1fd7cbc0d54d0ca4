// The xmtserved wire protocol: newline-delimited JSON over a Unix-domain
// stream socket, one request object per line, one response object (plus,
// for `results`, a run of record lines) per request.
//
// Requests ({"cmd": ..., ...}):
//   ping                          -> {"ok":true,"server":"xmtserved",
//                                     "version":<toolchain>}
//   submit  {spec}                -> {"ok":true,"job":N,"points":P}
//                                  | {"ok":false,"busy":true,...}  (queue full)
//   status  {job}                 -> {"ok":true,"state":...,"total","done",
//                                     "failed","cache_hits"}
//   results {job}                 -> {"ok":true,"state":...,"count":K} then
//                                    K results.jsonl-format record lines
//                                    (ok points, sorted by point index),
//                                    all in one buffered send
//   cancel  {job}                 -> {"ok":true}   (queued points skipped)
//   stats                         -> {"ok":true,"simulations","coalesced",
//                                     "queued_points","jobs":{"active",
//                                     "retained","expired"},"cache":{...,
//                                     "hit_ratio","hot_entries","hot_bytes",
//                                     "hot_hits"}}; hit_ratio is
//                                    hits/(hits+misses) over lookups, and
//                                    a point its leader simulates looks
//                                    the cache up twice
//   shutdown                      -> {"ok":true} and the daemon begins a
//                                    graceful stop
//
// A finished job whose records the daemon no longer retains answers
// status and results with state "expired" (results then has count 0);
// an id never issued is an error.
//
// Every error is {"ok":false,"error":...}; backpressure adds
// "busy":true so clients can distinguish "retry later" from "never".
// A malformed line gets an error reply and the connection stays open; an
// oversized line (> frame limit) is drained, rejected, and the
// connection stays open — a bad client can never wedge the accept loop.
#pragma once

#include <cstddef>
#include <string>

#include "src/common/json.h"

namespace xmt::server {

/// Frames beyond this are rejected with kOversize (requests are small;
/// the only big payloads flow server->client as separate record lines).
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

struct Request {
  std::string cmd;
  Json body;  // the full request object
};

/// Parses and minimally validates one request line. Throws ConfigError
/// (field = offending key) on malformed JSON, a missing/non-string "cmd",
/// or an unknown command name.
Request parseRequest(const std::string& line);

Json okResponse();
Json errorResponse(const std::string& message);
/// Backpressure reply: ok=false, busy=true.
Json busyResponse(const std::string& message);

}  // namespace xmt::server
