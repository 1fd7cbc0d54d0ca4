// table1_func / table1_cycle: the paper's Table I programs (serial and
// parallel, compute- and memory-bound) from the workload registry, on the
// 1024-TCU configuration, in functional or cycle-accurate mode.
//
// Set-up compiles the four programs, computes each one's expected OUT on
// the host from the prepared DATA, and runs reference operations that fix
// the expected instruction count and stats digest. One operation builds a
// Simulator, prepares the input, runs and checks each program in a fixed
// order; the check compares OUT with the host values and the instruction
// count and statsjson digest with the reference.
#include <cstdio>
#include <stdexcept>

#include "harness.h"
#include "src/assembler/assembler.h"
#include "src/common/digest.h"
#include "src/compiler/driver.h"
#include "src/sim/simulator.h"
#include "src/sim/statsjson.h"
#include "src/workloads/registry.h"

namespace xbench {
namespace {

constexpr int kReferenceOps = 5;  // set-up runs; all must agree

struct Sizes {
  int serIters;
  int parThreads;
  int parIters;
};
// Functional mode is ~100x faster per instruction, so it runs bigger
// programs. Both are sized so one operation takes about 100 ms: long
// operations keep the tail (a high percentile) off the host's rare stalls.
constexpr Sizes kFunctionalSizes{96000, 1024, 96};
constexpr Sizes kCycleSizes{8000, 1024, 16};

struct Prog {
  std::string name;
  xmt::workloads::WorkloadInstance inst;
  xmt::Program program;
  std::vector<std::int32_t> expectOut;
  // Fixed by the reference operations in set-up.
  xmt::RunResult refResult;
  xmt::Stats refStats;
  std::uint64_t statsDigest = 0;
  std::string runSpan;  // "<model>.run.<name>"
};

std::int32_t compLoop(std::int32_t a0, int iters) {
  std::uint32_t a = static_cast<std::uint32_t>(a0);
  std::uint32_t b = 12345;
  for (int i = 0; i < iters; ++i) {
    a = a * 5 + b;
    b = b ^ static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >> 3);
    a = a + (b << 1);
  }
  return static_cast<std::int32_t>(a);
}

// Host computation of OUT for each Table I kernel (see
// src/workloads/kernels.cc), from the DATA the registry prepared.
std::vector<std::int32_t> hostOut(const std::string& name, const Sizes& sz,
                                  const std::vector<std::int32_t>& data) {
  std::vector<std::int32_t> out;
  if (name == "ser_comp") {
    out.push_back(compLoop(1, sz.serIters));
  } else if (name == "par_comp") {
    for (int t = 0; t < sz.parThreads; ++t)
      out.push_back(compLoop(t + 1, sz.parIters));
  } else if (name == "ser_mem") {
    std::uint32_t acc = 0;
    std::size_t idx = 7;
    for (int i = 0; i < sz.serIters; ++i) {
      acc += static_cast<std::uint32_t>(data.at(idx));
      idx = (idx + 1027) & (data.size() - 1);
    }
    out.push_back(static_cast<std::int32_t>(acc));
  } else {  // par_mem
    for (int t = 0; t < sz.parThreads; ++t) {
      std::uint32_t acc = 0;
      for (int i = 0; i < sz.parIters; ++i)
        acc += static_cast<std::uint32_t>(
            data.at(static_cast<std::size_t>(i * sz.parThreads + t)));
      out.push_back(static_cast<std::int32_t>(acc));
    }
  }
  return out;
}

std::uint64_t statsDigest(const xmt::Simulator& sim, const xmt::RunResult& r) {
  return xmt::fnv1a64(
      xmt::runRecordJson(sim.config(), sim.mode(), r, sim.stats()).dump());
}

class Table1 final : public Workload {
 public:
  Table1(const Args& args, bool cycle)
      : args_(args),
        mode_(cycle ? xmt::SimMode::kCycleAccurate : xmt::SimMode::kFunctional),
        sizes_(cycle ? kCycleSizes : kFunctionalSizes),
        model_(cycle ? "cyclemodel" : "funcmodel") {}

  void setup(CpuRotation& cpus) override {
    progs_.clear();
    const std::int64_t dataSeed =
        static_cast<std::int64_t>(mixSeed(args_.seed, 1) >> 33);
    for (const char* name : {"ser_comp", "ser_mem", "par_comp", "par_mem"}) {
      Prog p;
      p.name = name;
      p.inst.name = name;
      std::string n = name;
      if (n.rfind("ser_", 0) == 0) {
        p.inst.params.set("iters", std::to_string(sizes_.serIters));
      } else {
        p.inst.params.set("threads", std::to_string(sizes_.parThreads));
        p.inst.params.set("iters", std::to_string(sizes_.parIters));
      }
      if (n.ends_with("_mem"))
        p.inst.params.set("seed", std::to_string(dataSeed));
      cpus.next();
      p.program = xmt::assemble(
          xmt::compileXmtc(xmt::workloads::instanceSource(p.inst)).asmText);
      p.runSpan = model_ + ".run." + n;
      progs_.push_back(std::move(p));
    }
    for (int i = 0; i < kReferenceOps; ++i)
      for (Prog& p : progs_) {
        cpus.next();
        xmt::Simulator sim(p.program, xmt::XmtConfig::chip1024(), mode_);
        xmt::workloads::instancePrepare(p.inst, sim);
        if (i == 0)
          p.expectOut = hostOut(p.name, sizes_,
                                p.name.ends_with("_mem")
                                    ? sim.getGlobalArray("DATA")
                                    : std::vector<std::int32_t>{});
        xmt::RunResult r = sim.run();
        std::string err = checkOut(p, r, sim);
        if (!err.empty()) throw std::runtime_error(p.name + ": " + err);
        std::uint64_t d = statsDigest(sim, r);
        if (i == 0) {
          p.refResult = r;
          p.refStats = sim.stats();
          p.statsDigest = d;
        } else if (d != p.statsDigest) {
          throw std::runtime_error(p.name + ": reference runs disagree");
        }
      }
    if (args_.corrupt) progs_[0].expectOut[0] += 1;
  }

  // Each program runs on the next CPU, so one operation's time averages
  // over the CPUs' speeds instead of taking one CPU's.
  std::string runOp(std::uint64_t, Tracer& tr, CpuRotation& cpus) override {
    for (const Prog& p : progs_) {
      cpus.next();
      std::string err = runProgram(p, tr);
      if (!err.empty()) return p.name + ": " + err;
    }
    return "";
  }

  void layerMetrics(const Tracer& tr, Metrics& out) const override {
    out.push_back({"sim.load_ms", medianOf(tr.perOpMs("sim.load"))});
    out.push_back({"sim.digest_ms", medianOf(tr.perOpMs("sim.digest"))});
    const bool cycle = mode_ == xmt::SimMode::kCycleAccurate;
    for (const Prog& p : progs_) {
      const std::string& n = p.name;
      double runMs = medianOf(tr.perOpMs(p.runSpan));
      double instr = static_cast<double>(p.refResult.instructions);
      double cycles = static_cast<double>(p.refResult.cycles);
      out.push_back({model_ + ".run_ms." + n, runMs});
      out.push_back({model_ + ".minstr_per_s." + n, instr / runMs / 1e3});
      if (cycle)
        out.push_back({model_ + ".kcycles_per_s." + n, cycles / runMs});
    }
  }

  // Every operation's instruction count and stats digest equalled these
  // reference values, and the digest covers every other count printed.
  void printSummary() const override {
    for (const Prog& p : progs_) {
      const xmt::Stats& s = p.refStats;
      const double ipc = p.refResult.cycles
                             ? static_cast<double>(p.refResult.instructions) /
                                   static_cast<double>(p.refResult.cycles)
                             : 0;
      const std::uint64_t accesses = s.cacheHits + s.cacheMisses;
      std::printf(
          "fingerprint %s %s: cycles=%llu instructions=%llu ipc=%.6f "
          "cache_hits=%llu cache_misses=%llu cache_hit_ratio=%.6f "
          "icn_packets=%llu mem_wait_cycles=%llu stats_digest=%s\n",
          args_.workload.c_str(), p.name.c_str(),
          static_cast<unsigned long long>(p.refResult.cycles),
          static_cast<unsigned long long>(p.refResult.instructions), ipc,
          static_cast<unsigned long long>(s.cacheHits),
          static_cast<unsigned long long>(s.cacheMisses),
          accesses ? static_cast<double>(s.cacheHits) /
                         static_cast<double>(accesses)
                   : 0.0,
          static_cast<unsigned long long>(s.icnPackets),
          static_cast<unsigned long long>(s.memWaitCycles),
          xmt::hex64(p.statsDigest).c_str());
    }
  }

 private:
  static std::string checkOut(const Prog& p, const xmt::RunResult& r,
                              const xmt::Simulator& sim) {
    if (!r.halted || r.haltCode != 0) return "did not halt with code 0";
    if (sim.getGlobalArray("OUT") != p.expectOut)
      return "OUT differs from the host computation";
    return "";
  }

  std::string runProgram(const Prog& p, Tracer& tr) const {
    std::unique_ptr<xmt::Simulator> sim;
    {
      Tracer::Scope s(tr, "sim.load");
      sim = std::make_unique<xmt::Simulator>(p.program,
                                             xmt::XmtConfig::chip1024(), mode_);
      xmt::workloads::instancePrepare(p.inst, *sim);
    }
    xmt::RunResult r;
    {
      Tracer::Scope s(tr, p.runSpan);
      r = sim->run();
    }
    std::string err = checkOut(p, r, *sim);
    if (!err.empty()) return err;
    std::uint64_t d;
    {
      Tracer::Scope s(tr, "sim.digest");
      d = statsDigest(*sim, r);
    }
    if (r.instructions != p.refResult.instructions || d != p.statsDigest)
      return "simulated statistics differ from the reference run";
    return "";
  }

  Args args_;
  xmt::SimMode mode_;
  Sizes sizes_;
  std::string model_;
  std::vector<Prog> progs_;
};

}  // namespace

std::unique_ptr<Workload> makeTable1(const Args& args, bool cycleAccurate) {
  return std::make_unique<Table1>(args, cycleAccurate);
}

}  // namespace xbench
