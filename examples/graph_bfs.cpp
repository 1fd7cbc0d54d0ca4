// Irregular-workload example: PRAM breadth-first search (the problem behind
// the paper's Section II-B speedup discussion and the UIUC/UMD teaching
// experiment) versus the serial baseline, on two machine configurations.
//
// Also demonstrates the hottest-memory-locations filter plug-in from
// Section III-B.
#include <cstdio>

#include "src/core/toolchain.h"
#include "src/workloads/graphs.h"

using xmt::workloads::Graph;

namespace {

std::uint64_t runBfs(xmt::Toolchain& tc, const std::string& src,
                     const Graph& g, bool withFilter) {
  auto sim = tc.makeSimulator(src);
  sim->setGlobalArray("rowStart", g.rowStart);
  sim->setGlobalArray("adj", g.adj);
  xmt::HotMemoryFilter* filter = nullptr;
  if (withFilter)
    filter =
        sim->addObserver(std::make_unique<xmt::HotMemoryFilter>(5, 64));
  auto r = sim->run();
  if (!r.halted) {
    std::printf("did not halt!\n");
    return 0;
  }
  if (filter) std::printf("%s", sim->reports().c_str());
  return r.cycles;
}

}  // namespace

int main() {
  Graph g = xmt::workloads::randomGraph(2000, 4, 1);
  std::printf("graph: %d vertices, %d directed edges\n", g.n, g.m);

  auto ref = xmt::workloads::hostBfs(g, 0);
  int reach = 0;
  for (auto d : ref) reach += d >= 0;
  std::printf("host reference: %d reachable vertices\n\n", reach);

  for (const char* cfgName : {"fpga64", "chip1024"}) {
    xmt::Toolchain tc;
    tc.options().config = xmt::XmtConfig::byName(cfgName);
    std::printf("=== %s (%d TCUs) ===\n", cfgName,
                tc.options().config.totalTcus());
    std::uint64_t serial =
        runBfs(tc, xmt::workloads::bfsSerialSource(g, 0), g, false);
    std::uint64_t parallel =
        runBfs(tc, xmt::workloads::bfsParallelSource(g, 0), g,
               std::string(cfgName) == "fpga64");
    std::printf("serial BFS:   %10llu cycles\n",
                static_cast<unsigned long long>(serial));
    std::printf("parallel BFS: %10llu cycles\n",
                static_cast<unsigned long long>(parallel));
    std::printf("speedup:      %.2fx\n\n",
                static_cast<double>(serial) / static_cast<double>(parallel));
  }
  return 0;
}
