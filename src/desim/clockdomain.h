// Clock domains with runtime-variable frequency.
//
// XMTSim assigns clock domains to clusters, the interconnection network,
// shared caches and DRAM controllers; activity plug-ins "can change the
// frequencies of the clock domains ... or even enable and disable them"
// (Section III-B). A ClockDomain maps domain-local cycles to global
// picosecond time. Frequency changes take effect from the moment of the
// change: the edge phase is re-anchored at the change time so edges remain
// monotonic.
//
// Disabling a domain is modelled as dropping to a configurable "gated"
// frequency (default 1 MHz) rather than stopping edges entirely, so actors
// polling the domain always make progress; this preserves the DVFS
// experiments while keeping the engine livelock-free.
#pragma once

#include <cstdint>
#include <string>

#include "src/desim/scheduler.h"

namespace xmt {

class ClockDomain {
 public:
  /// Frequency in GHz; period is rounded to whole picoseconds.
  ClockDomain(std::string name, double freqGhz);

  const std::string& name() const { return name_; }

  /// Current period in picoseconds.
  SimTime period() const { return period_; }
  double frequencyGhz() const { return 1000.0 / static_cast<double>(period_); }

  /// Changes frequency; edges re-anchor at `now`.
  void setFrequency(double freqGhz, SimTime now);

  /// Gates / ungates the domain (models clock disable as a crawl clock).
  void setEnabled(bool enabled, SimTime now);
  bool enabled() const { return enabled_; }

  /// First edge strictly after `t`.
  SimTime nextEdge(SimTime t) const {
    if (t < anchorTime_) t = anchorTime_;
    return anchorTime_ + ((t - anchorTime_) / period_ + 1) * period_;
  }

  /// Edge `n` cycles after the first edge strictly after `t` (n >= 0).
  SimTime edgeAfter(SimTime t, std::int64_t n) const;

  /// Number of whole cycles of this domain elapsed up to time `t` since
  /// construction, accounting for frequency changes.
  std::int64_t cyclesAt(SimTime t) const;

  /// Time at which cycle count `c` is reached, assuming the current
  /// frequency holds from the anchor onward. `c` must be >= the anchor's
  /// cycle count.
  SimTime timeOfCycle(std::int64_t c) const;

 private:
  void rebase(SimTime now);

  std::string name_;
  SimTime period_;
  SimTime savedPeriod_;      // period to restore on enable
  SimTime anchorTime_ = 0;   // edge-phase anchor
  std::int64_t anchorCycles_ = 0;  // cycles elapsed at anchorTime_
  bool enabled_ = true;
};

}  // namespace xmt
