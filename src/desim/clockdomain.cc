#include "src/desim/clockdomain.h"

#include <cmath>

namespace xmt {

namespace {
constexpr double kGatedFreqGhz = 0.001;  // 1 MHz crawl clock when "disabled"

SimTime periodFromGhz(double freqGhz) {
  XMT_CHECK(freqGhz > 0.0);
  auto period = static_cast<SimTime>(std::llround(1000.0 / freqGhz));
  return period < 1 ? 1 : period;
}
}  // namespace

ClockDomain::ClockDomain(std::string name, double freqGhz)
    : name_(std::move(name)),
      period_(periodFromGhz(freqGhz)),
      savedPeriod_(period_) {}

void ClockDomain::rebase(SimTime now) {
  anchorCycles_ = cyclesAt(now);
  anchorTime_ = now;
}

void ClockDomain::setFrequency(double freqGhz, SimTime now) {
  if (!enabled_) {
    // A gated domain keeps crawling at the gated period; the new frequency
    // only takes effect when the domain is re-enabled. Overwriting period_
    // here would silently un-gate the domain.
    savedPeriod_ = periodFromGhz(freqGhz);
    return;
  }
  rebase(now);
  period_ = periodFromGhz(freqGhz);
  savedPeriod_ = period_;
}

void ClockDomain::setEnabled(bool enabled, SimTime now) {
  if (enabled == enabled_) return;
  rebase(now);
  enabled_ = enabled;
  if (enabled) {
    period_ = savedPeriod_;
  } else {
    savedPeriod_ = period_;
    period_ = periodFromGhz(kGatedFreqGhz);
  }
}

SimTime ClockDomain::edgeAfter(SimTime t, std::int64_t n) const {
  XMT_CHECK(n >= 0);
  return nextEdge(t) + n * period_;
}

std::int64_t ClockDomain::cyclesAt(SimTime t) const {
  if (t <= anchorTime_) return anchorCycles_;
  return anchorCycles_ + (t - anchorTime_) / period_;
}

SimTime ClockDomain::timeOfCycle(std::int64_t c) const {
  XMT_CHECK(c >= anchorCycles_);
  return anchorTime_ + (c - anchorCycles_) * period_;
}

}  // namespace xmt
