// Simulation statistics: the built-in instruction and activity counters.
//
// "XMTSim features built-in counters that keep record of the executed
// instructions and the activity of the cycle-accurate components."
// (Section III-B). Stats is filled by both simulation modes; the
// cycle-accurate-only fields stay zero in functional mode.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/desim/scheduler.h"
#include "src/isa/isa.h"

namespace xmt {

/// Per-cluster activity, consumed by the power/thermal model and the
/// floorplan visualizer.
struct ClusterActivity {
  std::uint64_t instructions = 0;
  std::uint64_t aluOps = 0;
  std::uint64_t mduOps = 0;
  std::uint64_t fpuOps = 0;
  std::uint64_t memOps = 0;
  std::uint64_t activeCycles = 0;  // cycles with >=1 TCU issuing
};

struct Stats {
  // Instruction counters (both modes).
  std::array<std::uint64_t, kNumOps> opCount{};
  std::array<std::uint64_t, 8> fuCount{};  // indexed by FuKind
  std::uint64_t instructions = 0;
  std::uint64_t spawns = 0;
  std::uint64_t virtualThreads = 0;

  // Cycle-accurate activity counters.
  std::uint64_t cycles = 0;  // core-domain cycles at end of run
  SimTime simTime = 0;       // picoseconds at end of run
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t dramRequests = 0;
  std::uint64_t masterCacheHits = 0;
  std::uint64_t masterCacheMisses = 0;
  std::uint64_t roCacheHits = 0;
  std::uint64_t roCacheMisses = 0;
  std::uint64_t prefetchBufferHits = 0;
  std::uint64_t icnPackets = 0;
  std::uint64_t memWaitCycles = 0;   // TCU-cycles blocked on memory
  std::uint64_t psRequests = 0;
  std::uint64_t psmRequests = 0;
  std::uint64_t nonBlockingStores = 0;
  std::vector<ClusterActivity> perCluster;

  /// Records one committed instruction.
  void countInstruction(const Instruction& in) {
    ++instructions;
    ++opCount[static_cast<std::size_t>(in.op)];
    ++fuCount[static_cast<std::size_t>(opInfo(in.op).fu)];
  }

  /// Multi-line human-readable report (end-of-simulation statistics).
  std::string report() const;
};

}  // namespace xmt
