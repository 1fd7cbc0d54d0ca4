// XMTSim: the top-level simulator facade.
//
// Wraps the functional model and the cycle-accurate model behind one API
// (Fig. 3): load a program (assembly + memory map), choose a configuration
// and a simulation mode, attach filter/activity plug-ins and traces, run,
// then read the outputs — cycle count, instruction statistics, printf
// output, and memory dump via named global symbols.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/assembler/memorymap.h"
#include "src/assembler/program.h"
#include "src/sim/checkpoint.h"
#include "src/sim/config.h"
#include "src/sim/cyclemodel.h"
#include "src/sim/funcmodel.h"
#include "src/sim/plugins.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace xmt {

enum class SimMode {
  kCycleAccurate,  // the full model
  kFunctional,     // fast mode: serializes spawn blocks
};

struct RunResult {
  bool halted = false;
  std::int32_t haltCode = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;   // 0 in functional mode
  SimTime simTimePs = 0;      // 0 in functional mode
  std::string output;         // printf output so far
  /// True when run() returned because a requested checkpoint was taken.
  bool checkpointTaken = false;
};

class Simulator : private CommitObserver {
 public:
  explicit Simulator(Program program,
                     XmtConfig config = XmtConfig::fpga64(),
                     SimMode mode = SimMode::kCycleAccurate);
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Program input (global variables only — there is no OS / file I/O) ---
  void applyMemoryMap(const MemoryMap& map);
  void setGlobal(const std::string& name, std::int32_t value);
  void setGlobalArray(const std::string& name,
                      std::span<const std::int32_t> values);
  std::int32_t getGlobal(const std::string& name) const;
  std::vector<std::int32_t> getGlobalArray(const std::string& name) const;

  // --- Plug-ins and traces ---
  /// Takes ownership; reports are collected by filterReports().
  FilterPlugin* addFilterPlugin(std::unique_ptr<FilterPlugin> plugin);
  std::string filterReports() const;
  /// Takes ownership; called every `periodCycles` core cycles
  /// (cycle-accurate mode only).
  ActivityPlugin* addActivityPlugin(std::unique_ptr<ActivityPlugin> plugin,
                                    std::uint64_t periodCycles);
  /// Non-owning; must outlive the simulator.
  void setTraceSink(TraceSink* sink);

  // --- Execution ---
  /// Runs to halt (or `maxCycles` core cycles in cycle-accurate mode;
  /// resumable by calling run() again). Functional mode always runs to halt.
  RunResult run(std::uint64_t maxCycles = 0);

  /// Cycle-accurate mode: runs until the first quiescent point at or after
  /// `minCycles` core cycles, takes a checkpoint, and returns (or runs to
  /// halt if none occurs). checkpoint() is then valid.
  RunResult runToCheckpoint(std::uint64_t minCycles);

  /// The checkpoint captured by the last runToCheckpoint().
  const Checkpoint& checkpoint() const;

  /// Builds a simulator resuming from `chk` (program must match the one the
  /// checkpoint was taken from).
  static std::unique_ptr<Simulator> resume(Program program,
                                           const Checkpoint& chk,
                                           XmtConfig config,
                                           SimMode mode =
                                               SimMode::kCycleAccurate);

  // --- Results and internals ---
  /// FNV-1a 64 digest of the final architectural memory: every byte of the
  /// static data segment plus a directory of the named data symbols. Two
  /// runs of the same program are architecturally equivalent iff their
  /// digests match — the one-number oracle the differential fuzzing harness
  /// compares across modes, opt levels and configurations.
  ///
  /// `excludeSymbols` masks the extents of the named globals to zero before
  /// hashing, for workloads whose results are correct as a *set* but land at
  /// thread-order-dependent positions (e.g. compaction's B).
  std::uint64_t memoryDigest(
      std::span<const std::string> excludeSymbols = {}) const;

  const Stats& stats() const { return stats_; }
  const std::string& output() const { return func_->output(); }
  const XmtConfig& config() const { return config_; }
  SimMode mode() const { return mode_; }
  FuncModel& funcModel() { return *func_; }
  /// RuntimeControl for manual DVFS experiments; null in functional mode
  /// before the first run.
  RuntimeControl* runtimeControl();

 private:
  void onCommit(int cluster, int tcu, const Instruction& in,
                std::uint32_t pc, std::uint32_t memAddr) override;
  void onMemAccess(const MemAccess& access) override;
  void ensureCycleModel();
  RunResult finishCycleResult(const CycleRunResult& r);

  Program programCopy_;  // retained for checkpoint provenance
  XmtConfig config_;
  SimMode mode_;
  Stats stats_;
  std::unique_ptr<FuncModel> func_;
  std::unique_ptr<CycleModel> cycle_;
  std::vector<std::unique_ptr<FilterPlugin>> filters_;
  struct PendingActivity {
    std::unique_ptr<ActivityPlugin> plugin;
    std::uint64_t period;
  };
  std::vector<PendingActivity> activities_;
  TraceSink* trace_ = nullptr;
  bool ranFunctional_ = false;
  Checkpoint lastCheckpoint_;
  bool haveCheckpoint_ = false;
  // Offsets carried across a checkpoint resume.
  std::uint64_t baseCycles_ = 0;
  SimTime baseSimTime_ = 0;
};

}  // namespace xmt
