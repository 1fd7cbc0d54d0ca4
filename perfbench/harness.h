// Shared machinery of the xbench program: the workload interface, in-memory
// span tracing, and the sample statistics the result line is built from.
//
// A run is one process: set-up (repeated, median reported), then a closed
// loop of operations on one client thread for a fixed wall-clock time.
// Every operation checks its own output against an oracle; a wrong output
// or an exception counts as a failed operation.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Settings of one benchmark run, from the command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test only: poison one expectation, so every check that reads it
  /// must report a failed operation.
  bool corrupt = false;
};

/// One timed call into a layer. Times are microseconds since the tracer
/// was created; `parent` indexes the enclosing span (-1: none); spans of
/// one operation share `op`.
struct Span {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span recorder. While disabled a Scope costs one branch. The
/// spans stay in memory until write(), at the end of the run.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }
  void setOp(std::uint64_t op) { op_ = op; }

  /// Total duration (ms) of the spans called `name`, per operation id.
  std::map<std::uint64_t, double> perOpMs(const std::string& name) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;
  std::size_t spanCount() const { return spans_.size(); }

 private:
  double nowUs() const;

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  int open_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
};
using Metrics = std::vector<Metric>;

/// Moves the calling thread round-robin over the CPUs it was allowed at
/// construction, and restores that set when destroyed. On a shared host a
/// CPU slows down for seconds at a time when a neighbour gets busy; moving
/// to the next CPU before each step gives every run the same mix of CPUs
/// instead of one CPU's luck.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU.
  void next();
  /// Lets the calling thread run on every allowed CPU again, until the
  /// next next(). Threads inherit their creator's CPU set, so call this
  /// before starting threads that must not share one CPU.
  void release();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One benchmark workload: a fixed kind of operation with its oracle.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and the expected outputs from the seed, calling
  /// cpus.next() between steps. Called several times (set-up time is the
  /// median); each call starts afresh.
  virtual void setup(CpuRotation& cpus) = 0;
  /// How many times a run sets up.
  virtual int setupRepeats() const { return 5; }
  /// Runs once after the last set-up, outside setup_s: work whose time is
  /// mostly the disk's (fsync'd cache writes) rather than the program's.
  virtual void warmUp() {}
  /// Operations run and checked, but not timed, before the timed loop
  /// starts. Even, so that a traced run's pairs stay aligned.
  virtual std::uint64_t settleOps() const { return 8; }
  /// Operations per whole pass over the inputs; a run ends only at a pass
  /// boundary, so every run measures the same mix.
  virtual std::size_t passLength() const { return 1; }
  /// Performs operation `op` and checks it, and may call cpus.next()
  /// between its steps. Returns "" when every output matched the oracle,
  /// else a description of the first mismatch.
  virtual std::string runOp(std::uint64_t op, Tracer& tr,
                            CpuRotation& cpus) = 0;
  /// Traced runs only, after each operation and outside its latency:
  /// extra calls that time one layer on its own. Returns "" or an error.
  virtual std::string probe(std::uint64_t op, Tracer& tr) {
    (void)op;
    (void)tr;
    return "";
  }
  /// Per-layer metrics of the traced operations. Only timings and rates:
  /// exact counts go to printSummary().
  virtual void layerMetrics(const Tracer& tr, Metrics& out) const = 0;
  /// Lines printed before the result line: the fingerprint of exact
  /// counts (simulated statistics, compiler output, daemon counters) that
  /// every operation was checked against.
  virtual void printSummary() const {}
};

std::unique_ptr<Workload> makeCompileGen(const Args& args);
std::unique_ptr<Workload> makeTable1(const Args& args, bool cycleAccurate);
std::unique_ptr<Workload> makeServeSweep(const Args& args);

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> v);
/// Median of the values of a per-operation map.
double medianOf(const std::map<std::uint64_t, double>& perOp);

/// The tail: the highest percentile with at least ten samples beyond it,
/// i.e. the eleventh-largest sample, at percentile 100 * (n - 10) / n.
/// With ten samples or fewer it is the largest, at percentile 100.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/// A run's tail: its samples, in the order taken, split into kTailRounds
/// rounds of equal count; the value is the median of the rounds' tails
/// (tailOf each), and `percentile` and `samples` are those of one round.
/// The host slows down by about 1.35x for a second or two at a time, and
/// the eleventh-largest sample of a whole run is set by its worst such
/// spell; the median over rounds is set by a typical one.
constexpr std::size_t kTailRounds = 4;
struct RunTail {
  Tail tail;
  std::vector<double> rounds;  // each round's tail, in order
};
RunTail runTailOf(const std::vector<double>& inOrder);

/// Splitmix64-style mixer for deriving independent sub-seeds.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace xbench
