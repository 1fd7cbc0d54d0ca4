// TickingActor: a clocked component (or macro-actor) that sleeps when idle.
//
// This realizes the paper's "Inputable"/macro-actor pattern: a component is
// only notified when it has work. Producers push packages into the
// component's queues and call wakeAt(); the actor then ticks on its clock
// domain's edges until its tick() reports there is nothing left to do, at
// which point it stops scheduling itself (the DE advantage over
// discrete-time polling — Fig. 5 of the paper).
//
// When an earlier wake supersedes a later one already in the event list, the
// superseded event is cancelled (stamp-checked, O(1) in the bucketed queue).
// The invariant is therefore: at most one live pending event per actor, and
// the sequence of effective ticks is a pure function of the wake targets —
// never of how many redundant schedule/supersede cycles produced them: a
// stale dormant tick would advance e.g. the cluster's round-robin issue
// pointer. tick() implementations must still be work-conserving (safe to
// call with nothing to do): a wake and the work it announced can land on
// the same edge. The pinned Stats in tests/test_golden_stats.cc hold this
// behavior down.
//
// Inline self-ticks: when tick() asks for another edge, nothing else is due
// at or before it, and no wake arrived during the tick, notify() runs the
// next tick in place (Scheduler::tryAdvance) instead of scheduling an event
// and popping it straight back. The ticks, their times and their order are
// exactly those of the queued path; only the event-queue round trip goes.
#pragma once

#include "src/desim/clockdomain.h"
#include "src/desim/scheduler.h"

namespace xmt {

class TickingActor : public Actor {
 public:
  TickingActor(std::string name, Scheduler& sched, ClockDomain& clock,
               int priority = kPhaseTransfer)
      : Actor(std::move(name)),
        sched_(sched),
        clock_(clock),
        priority_(priority) {}

  /// Ensures the actor is notified at the first clock edge at or after `t`.
  void wakeAt(SimTime t) { wakeAtEdge(edgeFor(t)); }

  /// Ensures the actor runs on the next clock edge strictly after `now`.
  void wakeNextCycle(SimTime now) { wakeAt(clock_.nextEdge(now)); }

  void notify(SimTime now) final {
    pending_ = -1;
    for (SimTime next = tick(now); next >= 0; next = tick(now)) {
      SimTime edge = edgeFor(next);
      // A wake taken during the tick already holds an event; otherwise the
      // next tick runs in place when nothing else is due first.
      if (pending_ >= 0 || !sched_.tryAdvance(edge)) {
        wakeAtEdge(edge);
        return;
      }
      now = edge;
    }
  }

  ClockDomain& clock() { return clock_; }
  Scheduler& scheduler() { return sched_; }

 protected:
  /// Performs one cycle of work. Returns the next time the actor wants to
  /// run (typically clock().nextEdge(now)), or -1 to go dormant until the
  /// next wakeAt().
  virtual SimTime tick(SimTime now) = 0;

 private:
  // The first clock edge at or after `t`, and never before now().
  SimTime edgeFor(SimTime t) const {
    SimTime edge = clock_.nextEdge(t - 1);
    if (edge < sched_.now()) edge = clock_.nextEdge(sched_.now() - 1);
    return edge;
  }

  void wakeAtEdge(SimTime edge) {
    if (pending_ >= 0 && pending_ <= edge) return;  // already covered
    if (pending_ >= 0) sched_.cancel(handle_);      // supersede the later wake
    pending_ = edge;
    handle_ = sched_.scheduleCancellable(this, edge, priority_);
  }

  Scheduler& sched_;
  ClockDomain& clock_;
  int priority_;
  SimTime pending_ = -1;
  EventQueue::Handle handle_;
};

}  // namespace xmt
