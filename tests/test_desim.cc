// Unit and property tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/desim/clockdomain.h"
#include "src/desim/port.h"
#include "src/desim/scheduler.h"
#include "src/desim/ticking_actor.h"

namespace xmt {
namespace {

// Records the times at which it is notified.
class RecordingActor : public Actor {
 public:
  explicit RecordingActor(std::string name) : Actor(std::move(name)) {}
  void notify(SimTime now) override { times.push_back(now); }
  std::vector<SimTime> times;
};

TEST(Scheduler, ProcessesEventsInTimeOrder) {
  Scheduler s;
  RecordingActor a("a"), b("b");
  s.schedule(&a, 30);
  s.schedule(&b, 10);
  s.schedule(&a, 20);
  EXPECT_FALSE(s.run());  // drained, no stop event
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 10);
  ASSERT_EQ(a.times.size(), 2u);
  EXPECT_EQ(a.times[0], 20);
  EXPECT_EQ(a.times[1], 30);
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.eventsProcessed(), 3u);
}

TEST(Scheduler, PriorityBreaksTimeTies) {
  Scheduler s;
  RecordingActor neg("neg"), xfer("xfer"), ret("ret");
  s.schedule(&ret, 5, kPhaseRetire);
  s.schedule(&neg, 5, kPhaseNegotiate);
  s.schedule(&xfer, 5, kPhaseTransfer);
  // Interleave a second round at the same time to check stable ordering.
  s.step();
  EXPECT_EQ(neg.times.size(), 1u);  // negotiate first
  s.step();
  EXPECT_EQ(xfer.times.size(), 1u);
  s.step();
  EXPECT_EQ(ret.times.size(), 1u);
}

TEST(Scheduler, InsertionOrderBreaksFullTies) {
  Scheduler s;
  RecordingActor a("a"), b("b");
  s.schedule(&a, 7, kPhaseTransfer);
  s.schedule(&b, 7, kPhaseTransfer);
  s.step();
  EXPECT_EQ(a.times.size(), 1u);
  EXPECT_EQ(b.times.size(), 0u);
}

TEST(Scheduler, StopEventTerminatesRun) {
  Scheduler s;
  RecordingActor a("a");
  s.schedule(&a, 10);
  s.scheduleStop(15);
  s.schedule(&a, 20);
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.now(), 15);
  ASSERT_EQ(a.times.size(), 1u);
  // The post-stop event is still in the list; resuming processes it.
  EXPECT_FALSE(s.run());
  EXPECT_EQ(a.times.size(), 2u);
}

TEST(Scheduler, RunUntilRespectsLimit) {
  Scheduler s;
  RecordingActor a("a");
  s.schedule(&a, 10);
  s.schedule(&a, 100);
  EXPECT_FALSE(s.runUntil(50));
  EXPECT_EQ(a.times.size(), 1u);
  EXPECT_FALSE(s.run());
  EXPECT_EQ(a.times.size(), 2u);
}

TEST(Scheduler, RejectsPastEvents) {
  Scheduler s;
  RecordingActor a("a");
  s.schedule(&a, 10);
  s.step();
  EXPECT_THROW(s.schedule(&a, 5), InternalError);
}

// Property: with random events, notification times are globally
// non-decreasing and every scheduled event fires exactly once.
TEST(SchedulerProperty, RandomEventsFireOnceInOrder) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Scheduler s;
    RecordingActor a("a");
    int n = 1 + static_cast<int>(rng.below(200));
    for (int i = 0; i < n; ++i)
      s.schedule(&a, static_cast<SimTime>(rng.below(1000)),
                 static_cast<int>(rng.below(3)));
    s.run();
    ASSERT_EQ(a.times.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < a.times.size(); ++i)
      EXPECT_LE(a.times[i - 1], a.times[i]);
  }
}

TEST(ClockDomain, EdgesAndCycleCounting) {
  ClockDomain clk("core", 1.0);  // 1 GHz -> 1000 ps period
  EXPECT_EQ(clk.period(), 1000);
  EXPECT_EQ(clk.nextEdge(0), 1000);
  EXPECT_EQ(clk.nextEdge(999), 1000);
  EXPECT_EQ(clk.nextEdge(1000), 2000);
  EXPECT_EQ(clk.edgeAfter(0, 3), 4000);
  EXPECT_EQ(clk.cyclesAt(0), 0);
  EXPECT_EQ(clk.cyclesAt(2500), 2);
}

TEST(ClockDomain, FrequencyChangeReanchors) {
  ClockDomain clk("core", 1.0);
  EXPECT_EQ(clk.cyclesAt(4000), 4);
  clk.setFrequency(2.0, 4000);  // 500 ps period from t=4000
  EXPECT_EQ(clk.period(), 500);
  EXPECT_EQ(clk.nextEdge(4000), 4500);
  EXPECT_EQ(clk.cyclesAt(4000), 4);
  EXPECT_EQ(clk.cyclesAt(6000), 8);  // 4 + 2000/500
}

TEST(ClockDomain, MonotonicAcrossManyRandomChanges) {
  // Invariants that must hold across arbitrary frequency changes: the next
  // edge is strictly in the future, and the cycle count never decreases as
  // time advances. (A frequency *increase* may legitimately produce a next
  // edge earlier than one computed before the change.)
  ClockDomain clk("x", 1.7);
  Rng rng(5);
  SimTime t = 0;
  std::int64_t lastCycles = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<SimTime>(rng.below(5000));
    if (rng.chance(0.3))
      clk.setFrequency(0.1 + rng.uniform() * 3.0, t);
    SimTime e = clk.nextEdge(t);
    EXPECT_GT(e, t);
    std::int64_t c = clk.cyclesAt(t);
    EXPECT_GE(c, lastCycles);
    lastCycles = c;
  }
}

TEST(ClockDomain, GatingSlowsAndRestores) {
  ClockDomain clk("core", 1.0);
  clk.setEnabled(false, 1000);
  EXPECT_FALSE(clk.enabled());
  EXPECT_GT(clk.period(), 100000);  // crawl clock
  clk.setEnabled(true, 5000000);
  EXPECT_TRUE(clk.enabled());
  EXPECT_EQ(clk.period(), 1000);
}

// A ticking actor that drains a TimedQueue and counts processed items.
class DrainActor : public TickingActor {
 public:
  DrainActor(Scheduler& s, ClockDomain& c)
      : TickingActor("drain", s, c) {}
  TimedQueue<int> queue;
  std::vector<std::pair<SimTime, int>> processed;

 protected:
  SimTime tick(SimTime now) override {
    while (queue.ready(now)) processed.emplace_back(now, queue.pop(now));
    return queue.empty() ? -1 : queue.nextReadyTime();
  }
};

TEST(TickingActor, WakesAndGoesDormant) {
  Scheduler sched;
  ClockDomain clk("core", 1.0);
  DrainActor d(sched, clk);
  d.queue.push(2500, 1);
  d.queue.push(1500, 2);
  d.wakeAt(1500);
  sched.run();
  ASSERT_EQ(d.processed.size(), 2u);
  // Item 2 ready at 1500 -> processed at edge 2000; item 1 at edge 3000.
  EXPECT_EQ(d.processed[0].first, 2000);
  EXPECT_EQ(d.processed[0].second, 2);
  EXPECT_EQ(d.processed[1].first, 3000);
  EXPECT_EQ(d.processed[1].second, 1);
  EXPECT_TRUE(sched.empty());

  // Waking again after dormancy works.
  d.queue.push(5000, 3);
  d.wakeAt(5000);
  sched.run();
  ASSERT_EQ(d.processed.size(), 3u);
  EXPECT_EQ(d.processed[2].second, 3);
}

TEST(TickingActor, RedundantWakesAreSafe) {
  Scheduler sched;
  ClockDomain clk("core", 1.0);
  DrainActor d(sched, clk);
  d.queue.push(100, 7);
  for (int i = 0; i < 10; ++i) d.wakeAt(100);
  d.wakeAt(50);  // earlier wake supersedes
  sched.run();
  ASSERT_EQ(d.processed.size(), 1u);
  EXPECT_EQ(d.processed[0].second, 7);
}

TEST(ClockDomain, SetFrequencyWhileGatedStaysAtCrawl) {
  // Regression: changing frequency on a gated domain used to overwrite the
  // crawl period (silently un-gating it) and lose the requested frequency
  // for re-enable.
  ClockDomain clk("core", 1.0);
  clk.setEnabled(false, 1000);
  SimTime crawl = clk.period();
  EXPECT_GT(crawl, 100000);
  clk.setFrequency(2.0, 2000000);
  EXPECT_FALSE(clk.enabled());
  EXPECT_EQ(clk.period(), crawl);  // still gated, still crawling
  clk.setEnabled(true, 5000000);
  EXPECT_EQ(clk.period(), 500);  // the 2 GHz request applies on re-enable
}

TEST(Scheduler, CancelledEventDoesNotFire) {
  Scheduler s;
  RecordingActor a("a"), b("b");
  EventQueue::Handle h = s.scheduleCancellable(&a, 10);
  s.schedule(&b, 10);
  EXPECT_EQ(s.pendingEvents(), 2u);
  EXPECT_TRUE(s.cancel(h));
  EXPECT_EQ(s.pendingEvents(), 1u);
  EXPECT_FALSE(s.run());
  EXPECT_TRUE(a.times.empty());
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 10);
}

TEST(Scheduler, StaleCancelHandlesAreRejected) {
  Scheduler s;
  RecordingActor a("a");
  EXPECT_FALSE(s.cancel(EventQueue::Handle{}));  // default handle
  EventQueue::Handle h = s.scheduleCancellable(&a, 10);
  s.run();
  EXPECT_FALSE(s.cancel(h));  // already fired
  ASSERT_EQ(a.times.size(), 1u);
  EventQueue::Handle h2 = s.scheduleCancellable(&a, 20);
  EXPECT_TRUE(s.cancel(h2));
  EXPECT_FALSE(s.cancel(h2));  // already cancelled
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancelStopsWithdrawsPendingStops) {
  // Regression: a stop event surviving a finished run used to cut the next
  // run short (CycleModel::run's cycle budget leaking into a resumed run).
  Scheduler s;
  RecordingActor a("a");
  s.schedule(&a, 10);
  s.scheduleStop(5);
  s.scheduleStop(15);
  EXPECT_TRUE(s.run());  // consumes the stop at 5
  EXPECT_EQ(s.now(), 5);
  s.cancelStops();  // withdraws the stop at 15; stop at 5 is stale
  EXPECT_FALSE(s.run());  // drains instead of stopping at 15
  ASSERT_EQ(a.times.size(), 1u);
  EXPECT_EQ(a.times[0], 10);
}

TEST(Scheduler, NormalEventBeatsStopAtSameTime) {
  Scheduler s;
  RecordingActor a("a");
  s.scheduleStop(10);
  s.schedule(&a, 10, kPhaseRetire);
  EXPECT_TRUE(s.run());
  // The retire-phase event at t=10 completes before the stop fires.
  ASSERT_EQ(a.times.size(), 1u);
}

// Property: the bucketed EventQueue agrees with a reference heap ordered by
// (time, priority, seq) under random interleaved pushes, cancels and pops.
TEST(SchedulerProperty, EventQueueMatchesReferenceHeap) {
  struct Ref {
    SimTime time;
    int prio;
    std::uint64_t seq;
    Actor* actor;
    bool operator>(const Ref& o) const {
      if (time != o.time) return time > o.time;
      if (prio != o.prio) return prio > o.prio;
      return seq > o.seq;
    }
  };
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    EventQueue q;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
    std::vector<EventQueue::Handle> handles;
    std::vector<std::uint64_t> handleSeqs;
    std::vector<std::unique_ptr<RecordingActor>> actors;
    std::vector<std::uint64_t> cancelled;
    std::uint64_t seq = 0;
    SimTime now = 0;
    for (int step = 0; step < 2000; ++step) {
      double roll = rng.uniform();
      if (roll < 0.5 || q.empty()) {
        SimTime t = now + static_cast<SimTime>(rng.below(8));
        int prio = static_cast<int>(rng.below(kNumEventLanes));
        actors.push_back(std::make_unique<RecordingActor>("x"));
        Actor* a = actors.back().get();
        handles.push_back(q.push(t, prio, a));
        handleSeqs.push_back(seq);
        ref.push(Ref{t, prio, seq++, a});
      } else if (roll < 0.6 && !handles.empty()) {
        std::size_t i = rng.below(handles.size());
        if (q.cancel(handles[i])) cancelled.push_back(handleSeqs[i]);
      } else {
        // Pop from the reference, skipping cancelled entries.
        while (!ref.empty() &&
               std::count(cancelled.begin(), cancelled.end(),
                          ref.top().seq) != 0)
          ref.pop();
        if (ref.empty()) {
          EXPECT_TRUE(q.empty());
          continue;
        }
        Ref expect = ref.top();
        ref.pop();
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(q.headTime(), expect.time);
        EventQueue::Fired got = q.pop();
        EXPECT_EQ(got.time, expect.time);
        EXPECT_EQ(got.actor, expect.actor);
        now = got.time;
      }
    }
  }
}

TEST(TimedQueue, FifoWithinSameReadyTime) {
  TimedQueue<int> q;
  q.push(10, 1);
  q.push(10, 2);
  q.push(5, 3);
  EXPECT_EQ(q.nextReadyTime(), 5);
  EXPECT_EQ(q.pop(20), 3);
  EXPECT_EQ(q.pop(20), 1);
  EXPECT_EQ(q.pop(20), 2);
  EXPECT_TRUE(q.empty());
}

TEST(TimedQueue, ReadyRespectsTime) {
  TimedQueue<int> q;
  q.push(10, 1);
  EXPECT_FALSE(q.ready(9));
  EXPECT_TRUE(q.ready(10));
  EXPECT_THROW(q.pop(9), InternalError);
}

// Runs a callback when notified — for events that poke the scheduler.
class LambdaActor : public Actor {
 public:
  explicit LambdaActor(std::function<void(SimTime)> fn)
      : Actor("lambda"), fn_(std::move(fn)) {}
  void notify(SimTime now) override { fn_(now); }

 private:
  std::function<void(SimTime)> fn_;
};

// --- Stop-lane pinning regressions -----------------------------------------
// requestStop() fired from *inside* an event schedules the stop in the
// dedicated stop lane, which sorts after every phase lane at the same
// timestamp. These tests pin that contract: a same-cycle stop lets the
// current cycle complete (all same-time events fire, in FIFO phase-lane
// order) and cuts strictly before the next timestamp.

TEST(Scheduler, RequestStopFromEventCompletesTheCurrentCycle) {
  Scheduler s;
  RecordingActor before("before"), later("later"), nextCycle("next");
  LambdaActor stopper([&](SimTime) { s.requestStop(); });
  s.schedule(&before, 5, kPhaseNegotiate);
  s.schedule(&stopper, 5, kPhaseNegotiate);
  s.schedule(&later, 5, kPhaseRetire);  // same time, later lane
  s.schedule(&nextCycle, 6);
  EXPECT_TRUE(s.run());  // stop event fired
  EXPECT_EQ(s.now(), 5);
  EXPECT_EQ(before.times.size(), 1u);
  ASSERT_EQ(later.times.size(), 1u);  // same-cycle work still completes
  EXPECT_EQ(later.times[0], 5);
  EXPECT_TRUE(nextCycle.times.empty());  // the next timestamp never starts
  // Resumable: the event after the stop is still pending.
  EXPECT_FALSE(s.run());
  EXPECT_EQ(nextCycle.times.size(), 1u);
}

TEST(Scheduler, RequestStopFromEventKeepsFifoOrderWithinTheLane) {
  // A stop requested mid-lane must not reorder the remaining same-lane
  // events: FIFO insertion order holds up to the stop.
  Scheduler s;
  std::vector<int> order;
  LambdaActor first([&](SimTime) {
    order.push_back(1);
    s.requestStop();
  });
  LambdaActor second([&](SimTime) { order.push_back(2); });
  LambdaActor third([&](SimTime) { order.push_back(3); });
  s.schedule(&first, 9, kPhaseTransfer);
  s.schedule(&second, 9, kPhaseTransfer);
  s.schedule(&third, 9, kPhaseTransfer);
  EXPECT_TRUE(s.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, CancelStopsWithdrawsAnUnfiredStop) {
  Scheduler s;
  RecordingActor a("a");
  s.schedule(&a, 10);
  s.scheduleStop(4);
  s.cancelStops();
  EXPECT_FALSE(s.run());  // drained; the cancelled stop never fired
  EXPECT_EQ(a.times.size(), 1u);
}

// --- EventQueue handle-reuse regression -------------------------------------
// Handles carry a per-activation stamp; a handle that outlives its bucket
// (popped dry and recycled at the same timestamp) must be rejected by
// cancel() — not silently cancel a newer event — across many
// schedule/cancel/pop cycles.

TEST(EventQueue, StaleHandleAfterBucketReuseIsRejected) {
  EventQueue q;
  RecordingActor a("a"), b("b");
  for (int round = 0; round < 1000; ++round) {
    SimTime t = 100 + (round % 3);  // revisit the same few timestamps
    EventQueue::Handle h = q.push(t, kPhaseTransfer, &a);
    if (round % 2 == 0) {
      EXPECT_TRUE(q.cancel(h));
      EXPECT_FALSE(q.cancel(h));  // double-cancel: rejected
    } else {
      EXPECT_EQ(q.pop().actor, &a);
      // The bucket for t is gone; recreate it and try the stale handle.
      EventQueue::Handle fresh = q.push(t, kPhaseTransfer, &b);
      EXPECT_FALSE(q.cancel(h)) << "stale handle cancelled a new event";
      EXPECT_EQ(q.pop().actor, &b);
      (void)fresh;
    }
    EXPECT_TRUE(q.empty());
  }
}

// --- Inline self-ticks -------------------------------------------------------
// A TickingActor whose tick() asks for another edge runs that tick in place
// (Scheduler::tryAdvance) when nothing else is due at or before it. These
// tests pin that the ticks, their times, their order and the event count are
// exactly those of the queued path. step() never advances in place, so a run
// driven by step() is the reference.

using TickLog = std::vector<std::pair<SimTime, std::string>>;

// Logs each notification under its name.
class LogActor : public Actor {
 public:
  LogActor(std::string name, TickLog& log)
      : Actor(std::move(name)), log_(log) {}
  void notify(SimTime now) override { log_.emplace_back(now, name()); }

 private:
  TickLog& log_;
};

// Ticks on `ticks` consecutive edges of its clock, logging each tick. An
// optional hook runs inside every tick.
class SelfTicker : public TickingActor {
 public:
  SelfTicker(Scheduler& s, ClockDomain& c, TickLog& log, int ticks)
      : TickingActor("self", s, c), log_(log), left_(ticks) {}
  std::function<void(SimTime)> duringTick;

 protected:
  SimTime tick(SimTime now) override {
    log_.emplace_back(now, name());
    if (duringTick) duringTick(now);
    return --left_ > 0 ? clock().nextEdge(now) : -1;
  }

 private:
  TickLog& log_;
  int left_;
};

// Drives `s` to the end with run(), or with one step() per event.
void drain(Scheduler& s, bool stepwise) {
  if (!stepwise) {
    s.run();
    return;
  }
  while (s.step()) {
  }
}

TEST(InlineTicks, OrderMatchesTheQueuedOrder) {
  auto scenario = [](bool stepwise, std::uint64_t* processed) {
    Scheduler s;
    ClockDomain clk("core", 1.0);
    TickLog log;
    SelfTicker self(s, clk, log, 8);  // edges 1000 .. 8000, lane transfer
    LogActor lower("lower", log), sameLane("sameLane", log),
        earlier("earlier", log), later("later", log);
    self.wakeAt(1);
    s.schedule(&lower, 2000, kPhaseNegotiate);     // same time, lower lane
    s.schedule(&sameLane, 3000, kPhaseTransfer);  // same lane, earlier seq
    s.schedule(&earlier, 4500);                   // between two edges
    s.schedule(&later, 5000, kPhaseRetire);       // same time, higher lane
    drain(s, stepwise);
    *processed = s.eventsProcessed();
    return log;
  };
  const TickLog expected = {
      {1000, "self"},    {2000, "lower"},   {2000, "self"},
      {3000, "sameLane"}, {3000, "self"},   {4000, "self"},
      {4500, "earlier"}, {5000, "self"},    {5000, "later"},
      {6000, "self"},    {7000, "self"},    {8000, "self"}};
  std::uint64_t inlineCount = 0, queuedCount = 0;
  EXPECT_EQ(scenario(false, &inlineCount), expected);
  EXPECT_EQ(scenario(true, &queuedCount), expected);
  EXPECT_EQ(inlineCount, expected.size());
  EXPECT_EQ(queuedCount, expected.size());
}

TEST(InlineTicks, RunUntilNeverTicksPastTheLimit) {
  Scheduler s;
  ClockDomain clk("core", 1.0);
  TickLog log;
  SelfTicker self(s, clk, log, 100);
  self.wakeAt(1);
  EXPECT_FALSE(s.runUntil(5500));
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.back().first, 5000);
  EXPECT_EQ(s.now(), 5000);
  EXPECT_EQ(s.pendingEvents(), 1u);  // the 6000 tick waits in the queue
  EXPECT_FALSE(s.runUntil(8000));
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(log.back().first, 8000);
  EXPECT_EQ(s.eventsProcessed(), 8u);
}

TEST(InlineTicks, StepProcessesExactlyOneEvent) {
  Scheduler s;
  ClockDomain clk("core", 1.0);
  TickLog log;
  SelfTicker self(s, clk, log, 100);
  self.wakeAt(1);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_TRUE(s.step());
    EXPECT_EQ(log.size(), i);
    EXPECT_EQ(s.eventsProcessed(), i);
    EXPECT_EQ(s.now(), static_cast<SimTime>(i) * 1000);
    EXPECT_EQ(s.pendingEvents(), 1u);
  }
}

TEST(InlineTicks, StopEventEndsTheRunBeforeAnyLaterTick) {
  Scheduler s;
  ClockDomain clk("core", 1.0);
  TickLog log;
  SelfTicker self(s, clk, log, 100);
  self.wakeAt(1);
  s.scheduleStop(3000);  // on an edge: that edge's tick still runs first
  EXPECT_TRUE(s.run());
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.back().first, 3000);
  EXPECT_EQ(s.now(), 3000);
  s.scheduleStop(5500);  // between edges
  EXPECT_TRUE(s.run());
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log.back().first, 5000);
  EXPECT_EQ(s.now(), 5500);
  EXPECT_EQ(s.eventsProcessed(), 5u);
}

TEST(InlineTicks, EventsProcessedCountsInlineTicks) {
  for (bool stepwise : {false, true}) {
    Scheduler s;
    ClockDomain clk("core", 1.0);
    TickLog log;
    SelfTicker self(s, clk, log, 50);
    self.wakeAt(1);
    drain(s, stepwise);
    EXPECT_EQ(log.size(), 50u);
    EXPECT_EQ(s.eventsProcessed(), 50u) << "stepwise=" << stepwise;
    EXPECT_EQ(s.now(), 50000);
  }
}

// A wake the actor takes during its own tick, for a later edge than the one
// tick() returns, is superseded exactly as on the queued path: no stale
// extra tick.
TEST(InlineTicks, WakeTakenDuringTheTickIsSuperseded) {
  for (bool stepwise : {false, true}) {
    Scheduler s;
    ClockDomain clk("core", 1.0);
    TickLog log;
    SelfTicker self(s, clk, log, 2);
    self.duringTick = [&](SimTime now) {
      if (now == 1000) self.wakeAt(5000);
    };
    self.wakeAt(1);
    drain(s, stepwise);
    EXPECT_EQ(log, (TickLog{{1000, "self"}, {2000, "self"}}))
        << "stepwise=" << stepwise;
    EXPECT_TRUE(s.empty());
  }
}

TEST(InlineTicks, TryAdvanceOnlyInsideRunAndBeforeTheHead) {
  Scheduler s;
  RecordingActor pending("pending");
  EXPECT_FALSE(s.tryAdvance(10));  // outside run(): no limit in force
  s.schedule(&pending, 500);
  std::vector<bool> verdicts;
  LambdaActor probe([&](SimTime) {
    verdicts.push_back(s.tryAdvance(500));  // the pending event is at 500
    verdicts.push_back(s.tryAdvance(400));
  });
  s.schedule(&probe, 100);
  EXPECT_FALSE(s.run());
  EXPECT_EQ(verdicts, (std::vector<bool>{false, true}));
  EXPECT_EQ(pending.times, (std::vector<SimTime>{500}));
  EXPECT_EQ(s.eventsProcessed(), 3u);  // probe, its in-place advance, pending
}

}  // namespace
}  // namespace xmt
