// xbench: the end-to-end benchmark program. See perfbench/NOTES.md.
//
//   xbench --workload NAME --seed N --seconds S --trace 0|1
//          [--spans FILE] [--setup-repeats R] [--corrupt]
//   xbench --check-tail
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct","attempted","failed","metrics"} where metrics maps each name
// to its value; perfbench/run.py adds the units from BENCHMARK.json. With
// --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
// alternates untraced and traced operations, and the metrics are the
// per-layer ones the workload measures plus the tracing overhead.
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/common/json.h"

namespace xbench {
namespace {

struct Phase {
  std::vector<double> latMs;
  std::size_t failed = 0;
  std::string firstError;
};

struct Loop {
  Phase plain;
  Phase traced;
  std::vector<double> pairRatios;  // traced / untraced latency, per pair
  double seconds = 0;
  double peakRssMb = 0;  // after the first pass
};

// VmHWM, the peak resident set of this process image. (getrusage's
// ru_maxrss would also count the parent's size before exec.)
double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string attempt(Workload& w, std::uint64_t op, Tracer& tr,
                    CpuRotation& cpus) {
  try {
    return w.runOp(op, tr, cpus);
  } catch (const std::exception& e) {
    return e.what();
  }
}

void noteFailure(Phase& ph, const std::string& err) {
  if (!err.empty() && ph.failed++ == 0) ph.firstError = err;
}

// The closed loop: one operation at a time, each on the next CPU. It
// runs the workload's settleOps() untimed first, then times operations
// until `seconds` have passed, stopping only at a pass boundary. A traced
// run alternates untraced and traced operations, in the opposite order on
// odd passes, and ends after an even number of passes. Each pair of
// operations runs back to back on one CPU, so the two halves see the same
// inputs and the same share of the host's slow spells.
Loop runLoop(Workload& w, Tracer& tr, CpuRotation& cpus, double seconds,
             bool trace) {
  Loop l;
  std::uint64_t op = 0;
  for (; op < w.settleOps(); ++op) {
    cpus.next();
    noteFailure(l.plain, attempt(w, op, tr, cpus));
  }
  double pairMs[2] = {0, 0};  // [traced]
  const auto start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t i = 0; i < w.passLength(); ++i, ++op) {
      const bool traced = trace && (i + pass) % 2 == 1;
      Phase& ph = traced ? l.traced : l.plain;
      tr.setEnabled(traced);
      tr.setOp(op);
      if (!trace || op % 2 == 0) cpus.next();
      auto t0 = Clock::now();
      std::string err = attempt(w, op, tr, cpus);
      ph.latMs.push_back(msBetween(t0, Clock::now()));
      pairMs[traced] = ph.latMs.back();
      if (trace && op % 2 == 1) l.pairRatios.push_back(pairMs[1] / pairMs[0]);
      if (traced && err.empty()) {
        try {
          err = w.probe(op, tr);
        } catch (const std::exception& e) {
          err = e.what();
        }
      }
      noteFailure(ph, err);
    }
    // The daemon keeps every finished job, so a later sample would grow
    // with the number of operations a run completes.
    if (pass == 0) l.peakRssMb = peakRssMb();
    if (msBetween(start, Clock::now()) >= seconds * 1000 &&
        (!trace || pass % 2 == 1))
      break;
  }
  tr.setEnabled(false);
  l.seconds = msBetween(start, Clock::now()) / 1000;
  return l;
}

void report(const char* label, const Phase& ph) {
  RunTail t = runTailOf(ph.latMs);
  std::printf(
      "%s: %zu operations, %zu failed; p50 %.4f ms, tail %.4f ms = the "
      "median of %zu rounds' p%.2f of %zu samples:",
      label, ph.latMs.size(), ph.failed, median(ph.latMs), t.tail.value,
      kTailRounds, t.tail.percentile, t.tail.samples);
  for (double r : t.rounds) std::printf(" %.4f", r);
  std::printf("\n");
  if (ph.failed)
    std::fprintf(stderr, "%s: first failure: %s\n", label,
                 ph.firstError.c_str());
}

bool checkTail() {
  bool ok = true;
  auto expect = [&](const char* what, bool cond) {
    if (!cond) {
      std::printf("tail rule check failed: %s\n", what);
      ok = false;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  Tail t = tailOf(hundred);
  expect("1..100 -> 90 at p90", t.value == 90 && t.percentile == 90 &&
                                    t.samples == 100);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  t = tailOf(thousand);
  expect("1..1000 -> 990 at p99", t.value == 990 && t.percentile == 99);
  t = tailOf({5, 1, 3});
  expect("3 samples -> max at p100", t.value == 5 && t.percentile == 100);
  t = tailOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50});
  expect("11 samples -> smallest has ten beyond", t.value == 1);
  expect("median odd", median({3, 1, 2}) == 2);
  expect("median even", median({4, 1, 2, 3}) == 2.5);
  std::vector<double> rising;
  for (int i = 1; i <= 400; ++i) rising.push_back(i);
  RunTail r = runTailOf(rising);
  expect("1..400 in order -> rounds 90 190 290 390, median 240 at p90",
         r.rounds == std::vector<double>{90, 190, 290, 390} &&
             r.tail.value == 240 && r.tail.percentile == 90 &&
             r.tail.samples == 100);
  std::vector<double> spell(400, 10);
  for (int i = 120; i < 140; ++i) spell[i] = 50;
  expect("a spell in one round moves only that round",
         tailOf(spell).value == 50 && runTailOf(spell).tail.value == 10);
  std::printf("tail rule check: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: xbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--setup-repeats R] [--corrupt]\n"
               "       xbench --check-tail\n");
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  std::string spans;
  int setupRepeats = 0;  // 0: the workload's own count
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--check-tail") return checkTail() ? 0 : 1;
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::stoull(value());
    else if (a == "--seconds") args.seconds = std::stod(value());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--spans") spans = value();
    else if (a == "--setup-repeats") setupRepeats = std::stoi(value());
    else if (a == "--corrupt") args.corrupt = true;
    else return usage();
  }
  std::unique_ptr<Workload> w;
  if (args.workload == "compile_gen") w = makeCompileGen(args);
  else if (args.workload == "table1_func") w = makeTable1(args, false);
  else if (args.workload == "table1_cycle") w = makeTable1(args, true);
  else if (args.workload == "serve_sweep") w = makeServeSweep(args);
  else return usage();
  if (setupRepeats == 0) setupRepeats = w->setupRepeats();
  if (args.seconds <= 0 || setupRepeats < 1) return usage();

  CpuRotation cpus;
  std::vector<double> setups;
  for (int i = 0; i < setupRepeats; ++i) {
    cpus.next();
    auto t0 = Clock::now();
    w->setup(cpus);
    setups.push_back(msBetween(t0, Clock::now()) / 1000);
  }
  std::printf("workload %s, seed %llu: set-up %.4f s, the median of",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), median(setups));
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  cpus.release();
  w->warmUp();

  Tracer tr;
  Loop l = runLoop(*w, tr, cpus, args.seconds, args.trace);
  std::printf("loop: %.3f s\n", l.seconds);
  report("untraced", l.plain);
  if (args.trace) report("traced", l.traced);
  w->printSummary();

  xmt::Json metrics = xmt::Json::object();
  auto put = [&](const std::string& name, double v) {
    metrics.set(name, xmt::Json::real(v));
  };
  if (!args.trace) {
    put("rate_per_s", static_cast<double>(l.plain.latMs.size()) / l.seconds);
    put("p50_ms", median(l.plain.latMs));
    put("tail_ms", runTailOf(l.plain.latMs).tail.value);
    put("setup_s", median(setups));
    put("peak_rss_mb", l.peakRssMb);
  } else {
    Metrics got;
    w->layerMetrics(tr, got);
    for (const Metric& m : got) put(m.name, m.value);
    const double overhead = 100 * (median(l.pairRatios) - 1);
    put("trace.overhead_pct", overhead);
    std::printf("traced: %zu spans, overhead %.2f%%, the median over %zu "
                "pairs\n", tr.spanCount(), overhead, l.pairRatios.size());
    if (!spans.empty()) tr.write(spans);
  }

  const std::size_t attempted =
      w->settleOps() + l.plain.latMs.size() + l.traced.latMs.size();
  const std::size_t failed = l.plain.failed + l.traced.failed;
  xmt::Json out = xmt::Json::object();
  out.set("correct", xmt::Json::boolean(failed == 0));
  out.set("attempted", xmt::Json::number(static_cast<std::uint64_t>(attempted)));
  out.set("failed", xmt::Json::number(static_cast<std::uint64_t>(failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace xbench

int main(int argc, char** argv) {
  try {
    return xbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xbench: %s\n", e.what());
    return 1;
  }
}
