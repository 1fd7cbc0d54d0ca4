// Timed delivery queues — the "ports" through which packages move between
// cycle-accurate components.
//
// A producer pushes an item with a future ready-time (now + link latency) and
// wakes the consuming actor; the consumer pops items whose ready-time has
// arrived. Entries are ordered by (readyTime, sequence), so same-source
// traffic to the same destination is never reordered — the hardware property
// the XMT memory model's first rule relies on (Section IV-A).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "src/desim/scheduler.h"

namespace xmt {

template <typename T>
class TimedQueue {
 public:
  void push(SimTime readyAt, T item) {
    q_.push(Entry{readyAt, seq_++, std::move(item)});
  }

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }

  /// True if the head entry is ready at time `now`.
  bool ready(SimTime now) const { return !q_.empty() && q_.top().readyAt <= now; }

  /// Ready-time of the earliest entry; -1 when empty.
  SimTime nextReadyTime() const { return q_.empty() ? -1 : q_.top().readyAt; }

  /// Pops the head entry (must be ready).
  T pop(SimTime now) {
    XMT_CHECK(ready(now));
    T item = std::move(const_cast<Entry&>(q_.top()).item);
    q_.pop();
    return item;
  }

  void clear() {
    while (!q_.empty()) q_.pop();
  }

 private:
  struct Entry {
    SimTime readyAt;
    std::uint64_t seq;
    T item;
    bool operator>(const Entry& o) const {
      if (readyAt != o.readyAt) return readyAt > o.readyAt;
      return seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> q_;
  std::uint64_t seq_ = 0;
};

/// A timed queue whose same-ready-time entries are served in a canonical
/// source-key order instead of global push order: (readyAt, srcKey, seq).
///
/// Multi-producer sinks (the cache modules' inject queues, the PS unit's
/// request inbox) use this so the service order is a function of simulated
/// time and topology only: the same entries with the same ready-times pop
/// identically whatever order they were pushed in. Per-source FIFO is
/// preserved: entries from one key keep their relative push order (seq is
/// globally monotone, and any one source's pushes are totally ordered).
template <typename T>
class ArbTimedQueue {
 public:
  void push(SimTime readyAt, int srcKey, T item) {
    q_.push(Entry{readyAt, srcKey, seq_++, std::move(item)});
  }

  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }

  bool ready(SimTime now) const { return !q_.empty() && q_.top().readyAt <= now; }

  SimTime nextReadyTime() const { return q_.empty() ? -1 : q_.top().readyAt; }

  T pop(SimTime now) {
    XMT_CHECK(ready(now));
    T item = std::move(const_cast<Entry&>(q_.top()).item);
    q_.pop();
    return item;
  }

  void clear() {
    while (!q_.empty()) q_.pop();
  }

 private:
  struct Entry {
    SimTime readyAt;
    int srcKey;
    std::uint64_t seq;
    T item;
    bool operator>(const Entry& o) const {
      if (readyAt != o.readyAt) return readyAt > o.readyAt;
      if (srcKey != o.srcKey) return srcKey > o.srcKey;
      return seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> q_;
  std::uint64_t seq_ = 0;
};

}  // namespace xmt
