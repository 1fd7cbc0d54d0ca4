// Plug-ins: the activity plug-in controller interface and the filter
// plug-ins, which are SimObservers (observer.h).
//
// "Users can customize the instruction statistics reported at the end of the
// simulation via external filter plug-ins. ... instruction and activity
// counters can be read at regular intervals during the simulation time via
// the activity plug-in interface. ... it can change the frequencies of the
// clock domains assigned to clusters, interconnection network, shared caches
// and DRAM controllers" (Section III-B).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/assembler/program.h"
#include "src/desim/scheduler.h"
#include "src/sim/config.h"
#include "src/sim/observer.h"
#include "src/sim/stats.h"

namespace xmt {

/// Runtime-control surface handed to activity plug-ins: counters plus the
/// API "for modifying the operation of the cycle-accurate components during
/// runtime" (clock domain control).
class RuntimeControl {
 public:
  virtual ~RuntimeControl() = default;

  virtual const Stats& stats() const = 0;
  virtual const XmtConfig& config() const = 0;
  virtual SimTime now() const = 0;
  virtual std::uint64_t coreCycles() const = 0;

  virtual void setClusterFrequency(int cluster, double ghz) = 0;
  virtual double clusterFrequency(int cluster) const = 0;
  virtual void setClusterEnabled(int cluster, bool enabled) = 0;
  virtual void setIcnFrequency(double ghz) = 0;
  virtual void setCacheFrequency(double ghz) = 0;
  virtual void setDramFrequency(double ghz) = 0;

  /// Stops the simulation at the current time (run() returns).
  virtual void requestStop() = 0;
};

/// Called at a fixed cycle interval during cycle-accurate simulation. Unlike
/// a SimObserver it may change the run (clock domains, stop), so it is a
/// separate controller interface.
class ActivityPlugin {
 public:
  virtual ~ActivityPlugin() = default;
  virtual void onInterval(RuntimeControl& rc) = 0;
};

/// The default filter plug-in from the paper: "creates a list of most
/// frequently accessed locations in the XMT shared memory space", to help a
/// programmer find memory bottlenecks.
class HotMemoryFilter : public SimObserver {
 public:
  explicit HotMemoryFilter(int topN = 10, std::uint32_t granularityBytes = 4)
      : topN_(topN), granularity_(granularityBytes) {}

  void onCommit(const CommitEvent& ev) override;
  std::string report() const override;

  /// (address, count) pairs, most frequent first.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> top() const;

 private:
  int topN_;
  std::uint32_t granularity_;
  std::map<std::uint32_t, std::uint64_t> counts_;
};

/// Filter plug-in counting instructions per assembly source line — the hook
/// that lets the compiler refer hot assembly back to XMTC lines.
class HotLineFilter : public SimObserver {
 public:
  explicit HotLineFilter(int topN = 10) : topN_(topN) {}
  void onCommit(const CommitEvent& ev) override;
  std::string report() const override;
  std::vector<std::pair<std::int32_t, std::uint64_t>> top() const;

 private:
  int topN_;
  std::map<std::int32_t, std::uint64_t> counts_;
};

/// Dynamic race checker for functional-mode runs. Functional mode serializes
/// the virtual threads of a spawn region, so true interleaving bugs cannot
/// manifest — instead this plug-in shadow-tags every byte accessed inside a
/// spawn region with the last accessing virtual thread and flags accesses
/// that conflict with a *different* thread's earlier access to the same byte
/// in the same region. psm-to-psm accesses are exempt (the sanctioned
/// concurrent-update primitive); psm against a plain access still races.
/// This is the dynamic cross-check for the compiler's static race lint.
class RaceCheckPlugin : public SimObserver {
 public:
  struct DynRace {
    std::uint32_t addr = 0;
    bool writeWrite = false;       // else read/write
    std::uint32_t tidA = 0, tidB = 0;
    std::int32_t srcLine = 0;      // line of the second (racing) access
  };

  void onMemAccess(const MemAccess& access) override;
  std::string report() const override;

  const std::vector<DynRace>& races() const { return races_; }
  bool clean() const { return races_.empty(); }

  /// Data-symbol names covering the racy addresses, for comparison with the
  /// static lint's per-symbol findings. Addresses inside no data symbol map
  /// to "<stack>" (near the master stack) or "<unknown>".
  std::set<std::string> racySymbols(const Program& prog) const;

 private:
  struct Shadow {
    std::uint64_t spawnSeq = 0;
    bool hasWrite = false, writeAtomic = false;
    std::uint32_t writerTid = 0;
    bool hasRead = false, readAtomic = true;  // all reads so far atomic
    std::uint32_t readerTid = 0;
    bool multiReader = false;  // reads from more than one thread
  };

  std::map<std::uint32_t, Shadow> shadow_;  // per byte
  std::vector<DynRace> races_;
};

}  // namespace xmt
