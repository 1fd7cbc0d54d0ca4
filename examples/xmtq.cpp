// xmtq — client for the xmtserved simulation service.
//
// Usage:
//   xmtq [--socket <path>] <command> [args]
//
// Commands:
//   ping                         check the daemon is alive, print version
//   submit [opts] spec.conf      submit a sweep; prints the job id
//     --wait                     poll until done, print record lines
//                                (sorted by point) to stdout
//     --set key=value            spec override (repeatable)
//   status <job>                 one status line
//   results <job>                print available record lines
//   cancel <job>                 skip the job's undispatched points
//   stats                        serving + cache counters (JSON)
//   shutdown                     ask the daemon to stop
//
// Exit status: 0 on success (submit --wait: all points ok), 1 on
// failures or failed points, 2 on usage errors, 3 when the daemon
// reports busy (backpressure — retry later).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/error.h"
#include "src/server/client.h"

namespace {

int usage() {
  std::fprintf(stderr, "usage: xmtq [--socket <path>] <command> [args]   "
                       "(see header comment)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath = "/tmp/xmtserved.sock";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) return usage();
      socketPath = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return usage();
  std::string cmd = args[0];

  try {
    xmt::server::ServerClient client(socketPath);

    if (cmd == "ping") {
      xmt::Json r = client.ping();
      std::printf("%s\n", r.dump().c_str());
      return r.at("ok").asBool() ? 0 : 1;
    }

    if (cmd == "submit") {
      bool wait = false;
      std::vector<std::string> overrides;
      std::string specPath;
      for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--wait") wait = true;
        else if (args[i] == "--set" && i + 1 < args.size())
          overrides.push_back(args[++i]);
        else if (!args[i].empty() && args[i][0] == '-') return usage();
        else specPath = args[i];
      }
      if (specPath.empty()) return usage();
      xmt::ConfigMap map = xmt::ConfigMap::fromFile(specPath);
      map.applyOverrides(overrides);
      auto sub = client.submitSpec(map.toText());
      if (!sub.ok) {
        std::fprintf(stderr, "xmtq: %s\n", sub.error.c_str());
        return sub.busy ? 3 : 1;
      }
      std::fprintf(stderr, "job %llu submitted (%zu points)\n",
                   static_cast<unsigned long long>(sub.job), sub.points);
      if (!wait) {
        std::printf("%llu\n", static_cast<unsigned long long>(sub.job));
        return 0;
      }
      auto page = client.waitForJob(sub.job);
      for (const auto& line : page.records) std::printf("%s\n", line.c_str());
      auto st = client.status(sub.job);
      std::fprintf(stderr,
                   "job %llu %s: %zu/%zu points, %zu failed, "
                   "%zu served from cache\n",
                   static_cast<unsigned long long>(sub.job),
                   st.state.c_str(), st.done, st.total, st.failed,
                   st.cacheHits);
      return st.failed == 0 && st.state == "done" ? 0 : 1;
    }

    if (cmd == "status" || cmd == "results" || cmd == "cancel") {
      if (args.size() < 2) return usage();
      std::uint64_t job =
          static_cast<std::uint64_t>(std::atoll(args[1].c_str()));
      if (cmd == "status") {
        auto st = client.status(job);
        std::printf("state=%s done=%zu total=%zu failed=%zu cache_hits=%zu\n",
                    st.state.c_str(), st.done, st.total, st.failed,
                    st.cacheHits);
        return 0;
      }
      if (cmd == "results") {
        auto page = client.results(job);
        if (page.state == "expired") {
          std::fprintf(stderr, "xmtq: job %llu expired; resubmit it\n",
                       static_cast<unsigned long long>(job));
          return 1;
        }
        for (const auto& line : page.records)
          std::printf("%s\n", line.c_str());
        return 0;
      }
      bool ok = client.cancel(job);
      std::printf(ok ? "cancelled\n" : "unknown job\n");
      return ok ? 0 : 1;
    }

    if (cmd == "stats") {
      std::printf("%s\n", client.stats().dump().c_str());
      return 0;
    }

    if (cmd == "shutdown") {
      client.shutdown();
      std::printf("shutdown requested\n");
      return 0;
    }

    return usage();
  } catch (const xmt::Error& e) {
    std::fprintf(stderr, "xmtq: %s\n", e.what());
    return 1;
  }
}
