// Run observers: the one interface through which filter plug-ins, execution
// traces and dynamic checkers watch a simulation.
//
// "Users can customize the instruction statistics reported at the end of the
// simulation via external filter plug-ins." (Section III-B) "Traces can be
// limited to specific instructions in the assembly input and/or to specific
// TCUs." (Section III-E)
//
// Contract: an observer never perturbs the simulated state. It sees const
// events and holds no handle on the models, so attaching any set of
// observers leaves stats, cycles, memory and output unchanged. Changing
// clocks or stopping a run is runtime control, which goes through
// ActivityPlugin (plugins.h) instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/desim/scheduler.h"
#include "src/isa/isa.h"
#include "src/memsys/package.h"

namespace xmt {

/// One committed instruction.
struct CommitEvent {
  /// Picoseconds in cycle-accurate mode; functional mode has no clock and
  /// uses the count of instructions committed so far, this one included.
  SimTime time = 0;
  int cluster = 0;  // kMasterCluster for the master
  int tcu = 0;
  std::uint32_t pc = 0;
  const Instruction& in;
  std::uint32_t memAddr = 0;  // effective address of memory-class ops, else 0
};

/// One architectural memory access (loads, stores, psm) as performed by the
/// functional model — the event stream the dynamic race checker consumes.
struct MemAccess {
  std::uint64_t spawnSeq = 0;  // 0 in serial code; else the Nth spawn region
  std::uint32_t tid = 0;       // virtual thread ID ($); 0 for the master
  bool parallel = false;       // inside a spawn region
  bool write = false;
  bool atomic = false;         // psm (counts as both read and write)
  std::uint32_t addr = 0;
  std::uint32_t size = 4;      // bytes
  std::int32_t srcLine = 0;    // source line carried on the instruction
};

/// Every hook defaults to a no-op; override the ones you need.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// Every committed instruction, in both modes.
  virtual void onCommit(const CommitEvent& /*ev*/) {}
  /// Architectural memory accesses (functional mode only).
  virtual void onMemAccess(const MemAccess& /*access*/) {}
  /// A package passing a cycle-accurate component at `time`; `stage` is
  /// "icn", "cache" or "dram" (cycle-accurate mode only).
  virtual void onPackage(const char* /*stage*/, const Package& /*pkg*/,
                         SimTime /*time*/) {}
  /// End-of-run summary; empty for observers that keep their output.
  virtual std::string report() const { return {}; }
};

/// Owns a set of observers and forwards each event to all of them in
/// attachment order.
class ObserverList final : public SimObserver {
 public:
  void add(std::unique_ptr<SimObserver> observer) {
    list_.push_back(std::move(observer));
  }
  /// What the models should be handed: null when the list is empty, so an
  /// unobserved run makes no per-event call; the observer itself when there
  /// is one; else this list.
  SimObserver* target() {
    if (list_.empty()) return nullptr;
    return list_.size() == 1 ? list_.front().get() : this;
  }

  void onCommit(const CommitEvent& ev) override {
    for (const auto& o : list_) o->onCommit(ev);
  }
  void onMemAccess(const MemAccess& access) override {
    for (const auto& o : list_) o->onMemAccess(access);
  }
  void onPackage(const char* stage, const Package& pkg,
                 SimTime time) override {
    for (const auto& o : list_) o->onPackage(stage, pkg, time);
  }
  /// The observers' reports, concatenated in attachment order.
  std::string report() const override {
    std::string out;
    for (const auto& o : list_) out += o->report();
    return out;
  }

 private:
  std::vector<std::unique_ptr<SimObserver>> list_;
};

}  // namespace xmt
