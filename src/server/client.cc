#include "src/server/client.h"

#include <chrono>
#include <thread>

#include "src/common/error.h"
#include "src/common/socket.h"
#include "src/server/protocol.h"

namespace xmt::server {

class ServerClient::Impl {
 public:
  explicit Impl(const std::string& path) : conn(UnixConn::connect(path)) {}
  UnixConn conn;
};

ServerClient::ServerClient(const std::string& socketPath)
    : impl_(std::make_shared<Impl>(socketPath)) {}

Json ServerClient::roundTrip(const std::string& line) {
  if (!impl_->conn.sendLine(line)) throw IoError("server connection lost");
  std::string reply;
  if (impl_->conn.recvLine(&reply, kMaxFrameBytes) != UnixConn::Recv::kOk)
    throw IoError("server closed the connection");
  return Json::parse(reply);
}

Json ServerClient::request(const Json& req) { return roundTrip(req.dump()); }

Json ServerClient::ping() {
  Json req = Json::object();
  req.set("cmd", Json::str("ping"));
  return request(req);
}

SubmitResult ServerClient::submitSpec(const std::string& specText) {
  Json req = Json::object();
  req.set("cmd", Json::str("submit"));
  req.set("spec", Json::str(specText));
  Json resp = request(req);
  SubmitResult r;
  r.ok = resp.at("ok").asBool();
  if (!r.ok) {
    const Json* busy = resp.find("busy");
    r.busy = busy && busy->asBool();
    r.error = resp.at("error").asString();
    return r;
  }
  r.job = static_cast<std::uint64_t>(resp.at("job").asInt());
  r.points = static_cast<std::size_t>(resp.at("points").asInt());
  return r;
}

StatusResult ServerClient::status(std::uint64_t job) {
  Json req = Json::object();
  req.set("cmd", Json::str("status"));
  req.set("job", Json::number(job));
  Json resp = request(req);
  if (!resp.at("ok").asBool())
    throw ConfigError("status: " + resp.at("error").asString());
  StatusResult s;
  s.state = resp.at("state").asString();
  s.total = static_cast<std::size_t>(resp.at("total").asInt());
  s.done = static_cast<std::size_t>(resp.at("done").asInt());
  s.failed = static_cast<std::size_t>(resp.at("failed").asInt());
  s.cacheHits = static_cast<std::size_t>(resp.at("cache_hits").asInt());
  return s;
}

ResultsPage ServerClient::results(std::uint64_t job) {
  Json req = Json::object();
  req.set("cmd", Json::str("results"));
  req.set("job", Json::number(job));
  Json resp = request(req);
  if (!resp.at("ok").asBool())
    throw ConfigError("results: " + resp.at("error").asString());
  ResultsPage page;
  page.state = resp.at("state").asString();
  std::size_t count = static_cast<std::size_t>(resp.at("count").asInt());
  page.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string line;
    if (impl_->conn.recvLine(&line, kMaxFrameBytes) != UnixConn::Recv::kOk)
      throw IoError("connection lost mid-stream");
    page.records.push_back(std::move(line));
  }
  return page;
}

bool ServerClient::cancel(std::uint64_t job) {
  Json req = Json::object();
  req.set("cmd", Json::str("cancel"));
  req.set("job", Json::number(job));
  return request(req).at("ok").asBool();
}

Json ServerClient::stats() {
  Json req = Json::object();
  req.set("cmd", Json::str("stats"));
  return request(req);
}

void ServerClient::shutdown() {
  Json req = Json::object();
  req.set("cmd", Json::str("shutdown"));
  request(req);
}

ResultsPage ServerClient::waitForJob(std::uint64_t job, int pollMs) {
  while (true) {
    StatusResult s = status(job);
    if (s.state != "queued" && s.state != "running" &&
        s.state != "cancelling")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
  }
  return results(job);
}

}  // namespace xmt::server
