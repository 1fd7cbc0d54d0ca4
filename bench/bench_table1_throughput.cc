// Experiment T1 — Table I of the paper: "Simulated throughputs of XMTSim".
//
// Four microbenchmark groups ({serial, parallel} x {memory-, computation-
// intensive}) run on the 1024-TCU configuration; we report the simulator's
// throughput in simulated instructions per host second and simulated clock
// cycles per host second.
//
// Paper shape (Intel Xeon 5160 host, absolute numbers will differ):
//   parallel/mem   98K  instr/s     5.5K cycle/s
//   parallel/comp  2.23M instr/s    10K  cycle/s
//   serial/mem     76K  instr/s     519K cycle/s
//   serial/comp    1.7M instr/s     4.2M cycle/s
// Expected shape: computation-intensive instruction throughput is far above
// memory-intensive (the interconnection-network model dominates memory
// instructions); serial cycle/s is far above parallel cycle/s.
//
// Each row is one wall-clock-timed run() repeated kRepetitions times; the
// median aggregate is the row's result (mean, stddev and cv show the spread).
#include "bench/bench_util.h"
#include "src/workloads/kernels.h"

namespace {

using xmt::benchutil::timedRun;

constexpr int kRepetitions = 7;

void report(benchmark::State& state, const std::string& src) {
  xmt::XmtConfig cfg = xmt::XmtConfig::chip1024();
  std::uint64_t instructions = 0, cycles = 0;
  double seconds = 0;
  for (auto _ : state) {
    auto r = timedRun(src, cfg, xmt::SimMode::kCycleAccurate);
    if (!r.result.halted) state.SkipWithError("did not halt");
    instructions += r.result.instructions;
    cycles += r.result.cycles;
    seconds += r.wallSeconds;
    state.SetIterationTime(r.wallSeconds);
  }
  state.counters["sim_instr_per_sec"] =
      static_cast<double>(instructions) / seconds;
  state.counters["sim_cycle_per_sec"] = static_cast<double>(cycles) / seconds;
  state.counters["instructions"] =
      static_cast<double>(instructions) / static_cast<double>(state.iterations());
  state.counters["cycles"] =
      static_cast<double>(cycles) / static_cast<double>(state.iterations());
}

void BM_ParallelMemoryIntensive(benchmark::State& state) {
  report(state, xmt::workloads::parMemSource(1024, 64));
}
void BM_ParallelComputeIntensive(benchmark::State& state) {
  report(state, xmt::workloads::parCompSource(1024, 64));
}
void BM_SerialMemoryIntensive(benchmark::State& state) {
  report(state, xmt::workloads::serMemSource(30000));
}
void BM_SerialComputeIntensive(benchmark::State& state) {
  report(state, xmt::workloads::serCompSource(30000));
}

void repeated(benchmark::internal::Benchmark* b) {
  b->UseManualTime()->Iterations(1)->Repetitions(kRepetitions)
      ->ReportAggregatesOnly(true);
}

BENCHMARK(BM_ParallelMemoryIntensive)->Apply(repeated);
BENCHMARK(BM_ParallelComputeIntensive)->Apply(repeated);
BENCHMARK(BM_SerialMemoryIntensive)->Apply(repeated);
BENCHMARK(BM_SerialComputeIntensive)->Apply(repeated);

}  // namespace

BENCHMARK_MAIN();
