// The functional model: architectural state plus operational definitions.
//
// "The functional model contains the operational definition of the
// instructions, as well as the state of the registers and the memory."
// (Section III-A). The cycle-accurate model fetches instructions from here
// and returns expired instructions for execution; the fast functional mode
// (runFunctional) replaces the cycle-accurate model with a mechanism that
// serializes the parallel sections — orders of magnitude faster, but unable
// to reveal concurrency bugs, exactly as the paper describes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/assembler/program.h"
#include "src/sim/memory.h"
#include "src/sim/stats.h"

namespace xmt {

/// One hardware execution context (the Master TCU or a parallel TCU).
struct Context {
  std::array<std::uint32_t, kNumRegs> regs{};
  std::uint32_t pc = 0;

  std::uint32_t reg(int r) const { return r == 0 ? 0u : regs[static_cast<std::size_t>(r)]; }
  void setReg(int r, std::uint32_t v) {
    if (r != 0) regs[static_cast<std::size_t>(r)] = v;
  }
};

/// Result of a fast functional run.
struct FunctionalRunResult {
  bool halted = false;
  std::int32_t haltCode = 0;
  std::uint64_t instructions = 0;
};

class FuncModel;

/// Pluggable executor for one spawn region in functional mode. The default
/// (no runner installed) is the classic serialization: thread low..high run
/// to join one after the other. A runner replaces that inner loop — the
/// model checker enumerates interleavings here, the seeded perturbation
/// runner shuffles them — but must leave memory, global registers and the
/// printf transcript in the state of a *completed* region and return the
/// number of instructions it charged against the functional budget.
class RegionRunner {
 public:
  virtual ~RegionRunner() = default;
  /// `master` is the spawning context (registers are broadcast from it);
  /// threads are tids low..high (inclusive; high < low means zero threads)
  /// starting at `startPc`. Throw SimError to abort the run.
  virtual std::uint64_t runRegion(FuncModel& fm, const Context& master,
                                  std::uint32_t startPc, std::uint32_t low,
                                  std::uint32_t high, std::uint64_t spawnSeq,
                                  std::uint64_t instrBudget,
                                  CommitObserver* observer, Stats* stats) = 0;
};

class FuncModel {
 public:
  /// Classification used by both execution modes to route instructions.
  enum class StepClass {
    kSimple,  // ALU/shift/MDU/FPU/branch/li/la/move/mtgr/mfgr/sys/nop
    kMemory,  // lw/sw/swnb/lbu/sb/pref/rolw/fence
    kPs,      // prefix-sum on a global register
    kPsm,     // prefix-sum to memory
    kSpawn,
    kJoin,
    kHalt,
  };

  explicit FuncModel(Program program);

  Program& program() { return program_; }
  const Program& program() const { return program_; }
  SparseMemory& memory() { return memory_; }
  const SparseMemory& memory() const { return memory_; }
  std::array<std::uint32_t, kNumGlobalRegs>& globalRegs() { return gr_; }

  const Instruction& fetch(std::uint32_t pc) const;
  static StepClass classify(const Instruction& in);

  /// Executes one kSimple instruction on `ctx`, including pc update.
  void execSimple(Context& ctx, const Instruction& in);

  /// Effective address of a memory-class instruction.
  std::uint32_t effectiveAddr(const Context& ctx, const Instruction& in) const {
    return ctx.reg(in.rs) + static_cast<std::uint32_t>(in.imm);
  }

  /// Atomic fetch-and-add on global register `gr` (the ps primitive).
  std::uint32_t psFetchAdd(int gr, std::uint32_t inc);

  /// Fresh parallel context inheriting the master's registers (the
  /// register-broadcast at spawn onset) with `tid` as its virtual thread ID.
  Context makeThreadContext(const Context& master, std::uint32_t startPc,
                            std::uint32_t tid) const;

  // --- Host data interface (global variables are the only program input) ---
  void setGlobal(const std::string& name, std::uint32_t value);
  void setGlobalArray(const std::string& name,
                      std::span<const std::uint32_t> values);
  std::uint32_t getGlobal(const std::string& name) const;
  std::vector<std::uint32_t> getGlobalArray(const std::string& name) const;

  /// Printf output accumulated by `sys` instructions.
  const std::string& output() const { return output_; }
  std::string& mutableOutput() { return output_; }

  /// Handles a `sys` instruction for `ctx` (print traps).
  void doSyscall(Context& ctx, std::int32_t code);

  /// Fast functional-mode execution from the program entry point.
  /// Serializes spawn blocks. `observer` may be null. Throws SimError if
  /// `maxInstructions` is exceeded (runaway-program guard).
  FunctionalRunResult runFunctional(std::uint64_t maxInstructions,
                                    CommitObserver* observer,
                                    Stats* stats);

  /// Installs a spawn-region executor (non-owning; null restores the
  /// default serialization). Must be set before runFunctional.
  void setRegionRunner(RegionRunner* runner) { regionRunner_ = runner; }

  /// Architectural checkpoint support: memory + global registers + output.
  struct ArchState {
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> pages;
    std::array<std::uint32_t, kNumGlobalRegs> gr;
    std::string output;
  };
  ArchState saveArchState() const;
  void restoreArchState(const ArchState& s);

 private:
  // Runs `ctx` until join/halt, executing memory ops immediately.
  // Returns true when a halt was executed.
  bool runContextSerial(Context& ctx, bool isMaster,
                        std::uint64_t maxInstructions, std::uint64_t& executed,
                        CommitObserver* observer, Stats* stats);

  std::uint32_t symbolWordAddr(const std::string& name, const char* why) const;

  Program program_;
  SparseMemory memory_;
  std::array<std::uint32_t, kNumGlobalRegs> gr_{};
  std::string output_;
  std::uint64_t spawnSeq_ = 0;  // spawn regions executed (labels MemAccess)
  RegionRunner* regionRunner_ = nullptr;
};

/// Controllable execution of one spawn region at visible-operation
/// granularity — the substrate of the model checker and the seeded schedule
/// perturbation runner. A *visible* operation is one that touches state
/// shared between virtual threads: memory loads/stores, psm, ps, global
/// register moves (mtgr/mfgr), printf traps, and the terminating join.
/// Everything else (ALU, branches, pref/fence) is thread-local and commutes
/// with every other thread's operations, so it is executed eagerly in
/// whatever order the caller steps the threads — final state depends only
/// on the visible-op interleaving.
///
/// Two modes:
///   * eager  — every live thread is pre-advanced to its next visible op,
///     which is decoded (address/kind resolved, not executed) into
///     pending(). This is the exploration mode: the scheduler can inspect
///     all pending ops before committing one. Events are not emitted.
///   * lazy   — threads advance only when stepped; step(t) runs t's
///     invisible prefix and then its visible op, emitting observer/stats
///     events in true execution order. Replaying the thread-id sequence
///     [0,0,...,1,1,...] reproduces the classic serial execution
///     event-for-event.
class RegionExec {
 public:
  enum class OpKind : std::uint8_t {
    kNone,     // thread finished (joined)
    kLoad,     // lw/lbu/rolw
    kStore,    // sw/swnb/sb
    kPsm,      // atomic fetch-add to memory
    kPs,       // atomic fetch-add on a global register
    kGrRead,   // mfgr
    kGrWrite,  // mtgr
    kOutput,   // sys (printf trap)
    kJoin,
  };
  struct VisibleOp {
    OpKind kind = OpKind::kNone;
    std::uint32_t addr = 0;  // byte address (memory) or global register #
    std::uint32_t size = 4;  // bytes touched (memory ops)
    std::int32_t srcLine = 0;
    bool write = false;      // store / psm / ps / mtgr
    bool atomic = false;     // ps / psm
  };

  RegionExec(FuncModel& fm, const Context& master, std::uint32_t startPc,
             std::uint32_t low, std::uint32_t high, std::uint64_t spawnSeq,
             std::uint64_t instrBudget, bool eager);

  std::size_t threadCount() const { return threads_.size(); }
  std::uint32_t tidOf(std::size_t t) const {
    return threads_[t].ctx.reg(kTid);
  }
  bool done(std::size_t t) const { return threads_[t].done; }
  bool allDone() const { return liveThreads_ == 0; }
  /// Eager mode: the decoded next visible op of thread t (kind == kNone
  /// once the thread has joined).
  const VisibleOp& pending(std::size_t t) const { return threads_[t].pending; }
  std::uint64_t instructionsExecuted() const { return executed_; }

  /// Executes thread t's next visible operation (and, in lazy mode, the
  /// invisible instructions leading up to it) and returns it. Throws
  /// SimError on budget exhaustion, nested spawn, or in-region halt.
  VisibleOp step(std::size_t t, CommitObserver* observer, Stats* stats);

 private:
  struct Thread {
    Context ctx;
    bool done = false;
    bool advanced = false;  // invisible prefix executed, pending decoded
    VisibleOp pending;
  };

  void advance(std::size_t t, CommitObserver* observer, Stats* stats);
  VisibleOp decodeVisible(const Context& ctx, const Instruction& in) const;
  VisibleOp execVisible(std::size_t t, CommitObserver* observer, Stats* stats);
  void countInstr(Stats* stats, const Instruction& in);

  FuncModel& fm_;
  std::uint64_t spawnSeq_;
  std::uint64_t budget_;
  bool eager_;
  std::vector<Thread> threads_;
  std::size_t liveThreads_ = 0;
  std::uint64_t executed_ = 0;
};

/// RegionRunner executing one seeded pseudo-random interleaving per region —
/// the schedule-perturbation fallback behind `--race-check-seed`: regions
/// too large for exhaustive exploration still get multi-schedule coverage
/// by re-running under different seeds. Deterministic for a given seed.
class RandomScheduleRunner : public RegionRunner {
 public:
  explicit RandomScheduleRunner(std::uint64_t seed) : seed_(seed) {}
  std::uint64_t runRegion(FuncModel& fm, const Context& master,
                          std::uint32_t startPc, std::uint32_t low,
                          std::uint32_t high, std::uint64_t spawnSeq,
                          std::uint64_t instrBudget, CommitObserver* observer,
                          Stats* stats) override;

 private:
  std::uint64_t seed_;
};

}  // namespace xmt
