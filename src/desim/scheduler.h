// Discrete-event scheduler: the core of XMTSim's simulation engine.
//
// The paper (Section III-C) describes XMTSim as a discrete-event simulator:
// a system is a collection of actors that schedule events; the scheduler
// keeps events ordered by time and priority, and notifies one actor per
// main-loop iteration (Fig. 5b). Time does not advance in fixed steps — the
// event list drives it — which lets synchronous components in different
// clock domains and (future) asynchronous components coexist.
//
// Priorities implement the paper's two-phase clock-cycle scheme: within one
// timestamp, kPhaseNegotiate events run before kPhaseTransfer events, which
// run before kPhaseRetire events; ties break by insertion order, making
// simulation fully deterministic. The event list itself is a bucketed
// EventQueue (see eventqueue.h) that exploits the near-monotone timestamp
// distribution while preserving exactly that (time, priority, seq) order.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.h"
#include "src/desim/eventqueue.h"

namespace xmt {

/// An object that can schedule events and is notified when they fire.
class Actor {
 public:
  explicit Actor(std::string name) : name_(std::move(name)) {}
  virtual ~Actor() = default;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  /// Called by the scheduler when an event this actor scheduled fires.
  virtual void notify(SimTime now) = 0;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// The discrete-event scheduler (Fig. 4 / Fig. 5b of the paper).
class Scheduler {
 public:
  Scheduler() = default;

  /// Schedules `actor` to be notified at `time` with the given phase
  /// priority. `time` must be >= now().
  void schedule(Actor* actor, SimTime time, int priority = kPhaseTransfer);

  /// Like schedule(), but returns a handle the caller may pass to cancel()
  /// to withdraw the event before it fires.
  EventQueue::Handle scheduleCancellable(Actor* actor, SimTime time,
                                         int priority = kPhaseTransfer);

  /// Cancels a pending event. Stale handles (fired, cancelled, default) are
  /// ignored; returns whether an event was actually withdrawn.
  bool cancel(const EventQueue::Handle& handle) {
    return events_.cancel(handle);
  }

  /// Schedules the special stop event; run() returns when it is reached.
  void scheduleStop(SimTime time);

  /// Requests an immediate stop (stop event at the current time).
  void requestStop() { scheduleStop(now_); }

  /// Withdraws all pending stop events (already-consumed ones are ignored),
  /// so a finished run's unreached stop cannot leak into a resumed run.
  void cancelStops();

  /// Processes events until the stop event fires or the list drains.
  /// Returns true if stopped by a stop event, false if the list drained.
  bool run() { return runUntil(std::numeric_limits<SimTime>::max()); }

  /// Processes events with time <= `limit` (and not past a stop event).
  bool runUntil(SimTime limit);

  /// Processes a single event. Returns false if the list is empty or the
  /// next event is a stop event (which is consumed).
  bool step();

  /// Lets the actor being notified take its next event at `t` in place,
  /// without a push and a pop. Allowed only inside run()/runUntil(), for a
  /// `t` within their limit, when no pending event is at or before `t`: the
  /// skipped event is then exactly the one pop() would return next. On
  /// success now() becomes `t` and the event counts as processed.
  bool tryAdvance(SimTime t) {
    if (t > limit_ || (!events_.empty() && events_.headTime() <= t))
      return false;
    now_ = t;
    ++processed_;
    return true;
  }

  SimTime now() const { return now_; }

  bool empty() const { return events_.empty(); }
  std::size_t pendingEvents() const { return events_.size(); }
  std::uint64_t eventsProcessed() const { return processed_; }

 private:
  EventQueue events_;
  std::vector<EventQueue::Handle> stops_;  // pending (or consumed) stops
  SimTime now_ = 0;
  SimTime limit_ = -1;  // latest time tryAdvance() may reach; -1 = none
  std::uint64_t processed_ = 0;
};

}  // namespace xmt
