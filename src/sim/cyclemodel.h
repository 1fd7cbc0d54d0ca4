// The cycle-accurate model of the XMT architecture.
//
// Models the interactions between the high-level micro-architectural
// components of Fig. 1: TCUs grouped in clusters with shared MDU/FPU units,
// per-TCU prefetch buffers, per-cluster read-only caches, the Master TCU
// with its private cache, the mesh-of-trees interconnection network, the
// shared (banked) first-level cache modules with request queueing, DRAM
// channels, the global prefix-sum unit, and the spawn/join hardware with its
// instruction/register broadcast bus.
//
// Each component is an actor (or part of a macro-actor) on the
// discrete-event engine; instructions travel as packages; components are
// state machines whose output is the delay imposed on packages — exactly the
// paper's transaction-level modelling approach.
//
// Components and clock domains:
//   - one ClusterActor per cluster (macro-actor over its TCUs), each with
//     its own clock domain (for per-cluster DVFS),
//   - MasterActor (core clock),
//   - PsUnitActor (core clock) — combining fetch-and-add on global
//     registers; also serves virtual-thread ID dispatch and detects the
//     all-TCUs-parked join condition,
//   - per-destination ReturnPorts (ICN clock) — rate-limited return-path
//     arbitration of the synchronous mesh-of-trees,
//   - CacheActor (cache clock) — macro-actor over all shared cache modules,
//   - DramActor (DRAM clock) — per-channel latency/bandwidth model,
//   - SamplerActor(s) — periodic activity plug-in callbacks.
//
// Every actor runs on one Scheduler. Multi-source sinks (the cache modules
// and the PS unit) arbitrate in canonical (readyTime, source) order, so the
// pinned Stats (tests/test_golden_stats.cc) depend on simulated time and
// topology only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/desim/clockdomain.h"
#include "src/desim/scheduler.h"
#include "src/sim/config.h"
#include "src/sim/funcmodel.h"
#include "src/sim/plugins.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace xmt {

struct CycleRunResult {
  bool halted = false;
  std::int32_t haltCode = 0;
  std::uint64_t cycles = 0;  // core-domain cycles
  SimTime simTime = 0;
};

namespace detail {
class ClusterActor;
class MasterActor;
class CacheActor;
class DramActor;
class PsUnitActor;
class SamplerActor;
class SpawnStarter;
class SpawnJoiner;
struct ModelCore;
}  // namespace detail

class CycleModel final : public RuntimeControl {
 public:
  CycleModel(FuncModel& funcModel, const XmtConfig& config, Stats& stats);
  ~CycleModel() override;

  void setCommitObserver(CommitObserver* observer);
  void setTraceSink(TraceSink* sink);

  /// Registers an activity plug-in called every `periodCycles` core cycles.
  /// The plug-in is not owned.
  void addActivityPlugin(ActivityPlugin* plugin, std::uint64_t periodCycles);

  /// Runs until halt, a requested stop, or `maxCycles` core cycles
  /// (0 = no limit). Resumable: calling run() again continues.
  CycleRunResult run(std::uint64_t maxCycles = 0);

  bool halted() const;

  /// True when the master is executing serial code with no packages in
  /// flight and no spawn active — the state checkpoints are taken in.
  bool quiescent() const;

  /// Architectural master context (for checkpoint save/restore). Restoring
  /// is only valid before the first run() or at a quiescent stop.
  const Context& masterContext() const;
  void setMasterContext(const Context& ctx);

  /// Asks the model to stop at the first quiescent master instruction
  /// boundary at or after `minCycles` core cycles. run() then returns with
  /// halted == false and checkpointStopTaken() == true.
  void requestCheckpointStop(std::uint64_t minCycles);
  bool checkpointStopTaken() const;

  // --- RuntimeControl (activity plug-in API) ---
  const Stats& stats() const override;
  const XmtConfig& config() const override;
  SimTime now() const override;
  std::uint64_t coreCycles() const override;
  void setClusterFrequency(int cluster, double ghz) override;
  double clusterFrequency(int cluster) const override;
  void setClusterEnabled(int cluster, bool enabled) override;
  void setIcnFrequency(double ghz) override;
  void setCacheFrequency(double ghz) override;
  void setDramFrequency(double ghz) override;
  void requestStop() override;

  Scheduler& scheduler();

 private:
  std::unique_ptr<detail::ModelCore> core_;
};

}  // namespace xmt
