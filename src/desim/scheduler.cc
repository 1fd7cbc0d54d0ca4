#include "src/desim/scheduler.h"

namespace xmt {

void Scheduler::schedule(Actor* actor, SimTime time, int priority) {
  XMT_CHECK(actor != nullptr);
  XMT_CHECK(time >= now_);
  XMT_CHECK(priority >= 0 && priority < kLaneStop);
  events_.push(time, priority, actor);
}

EventQueue::Handle Scheduler::scheduleCancellable(Actor* actor, SimTime time,
                                                 int priority) {
  XMT_CHECK(actor != nullptr);
  XMT_CHECK(time >= now_);
  XMT_CHECK(priority >= 0 && priority < kLaneStop);
  return events_.push(time, priority, actor);
}

void Scheduler::scheduleStop(SimTime time) {
  XMT_CHECK(time >= now_);
  // Stop events sort after all same-time phases so the cycle completes.
  stops_.push_back(events_.push(time, kLaneStop, nullptr));
}

void Scheduler::cancelStops() {
  for (const EventQueue::Handle& h : stops_) events_.cancel(h);
  stops_.clear();
}

bool Scheduler::step() {
  limit_ = -1;  // one event exactly: no in-place advance
  if (events_.empty()) return false;
  EventQueue::Fired e = events_.pop();
  now_ = e.time;
  if (e.actor == nullptr) return false;  // stop event
  ++processed_;
  e.actor->notify(now_);
  return true;
}

bool Scheduler::runUntil(SimTime limit) {
  limit_ = limit;
  bool stopped = false;
  while (!events_.empty() && events_.headTime() <= limit) {
    EventQueue::Fired e = events_.pop();
    now_ = e.time;
    if (e.actor == nullptr) {  // stop event
      stopped = true;
      break;
    }
    ++processed_;
    e.actor->notify(now_);
  }
  limit_ = -1;
  return stopped;
}

}  // namespace xmt
