#include "src/sim/funcmodel.h"

#include <cstdio>
#include <cstring>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/sim/semantics.h"

namespace xmt {

namespace {

// Functional mode has no clock: a commit's time is the count of
// instructions committed so far (0 when the run keeps no stats).
void notifyCommit(SimObserver* observer, const Stats* stats, int cluster,
                  const Instruction& in, std::uint32_t pc,
                  std::uint32_t memAddr) {
  if (observer)
    observer->onCommit({stats ? static_cast<SimTime>(stats->instructions) : 0,
                        cluster, 0, pc, in, memAddr});
}

}  // namespace

FuncModel::FuncModel(Program program) : program_(std::move(program)) {
  if (!program_.data.empty())
    memory_.writeBlock(kDataBase, program_.data.data(), program_.data.size());
}

const Instruction& FuncModel::fetch(std::uint32_t pc) const {
  return program_.text[program_.textIndex(pc)];
}

FuncModel::StepClass FuncModel::classify(const Instruction& in) {
  switch (in.op) {
    case Op::kLw:
    case Op::kSw:
    case Op::kSwnb:
    case Op::kLbu:
    case Op::kSb:
    case Op::kPref:
    case Op::kRolw:
    case Op::kFence:
      return StepClass::kMemory;
    case Op::kPs:
      return StepClass::kPs;
    case Op::kPsm:
      return StepClass::kPsm;
    case Op::kSpawn:
      return StepClass::kSpawn;
    case Op::kJoin:
      return StepClass::kJoin;
    case Op::kHalt:
      return StepClass::kHalt;
    default:
      return StepClass::kSimple;
  }
}

void FuncModel::execSimple(Context& ctx, const Instruction& in) {
  const OpInfo& info = opInfo(in.op);
  std::uint32_t next = ctx.pc + 4;
  switch (info.format) {
    case OpFormat::kR3:
      ctx.setReg(in.rd, evalAlu(in.op, ctx.reg(in.rs), ctx.reg(in.rt)));
      break;
    case OpFormat::kR2I:
      ctx.setReg(in.rd, evalAlu(in.op, ctx.reg(in.rs),
                                static_cast<std::uint32_t>(in.imm)));
      break;
    case OpFormat::kRI:
    case OpFormat::kRL:
      ctx.setReg(in.rd, static_cast<std::uint32_t>(in.imm));
      break;
    case OpFormat::kR2:
      if (in.op == Op::kMove)
        ctx.setReg(in.rd, ctx.reg(in.rs));
      else  // cvtif / cvtfi
        ctx.setReg(in.rd, evalAlu(in.op, ctx.reg(in.rs), 0));
      break;
    case OpFormat::kBr2:
      if (evalBranch(in.op, ctx.reg(in.rs), ctx.reg(in.rt)))
        next = static_cast<std::uint32_t>(in.imm);
      break;
    case OpFormat::kJump:
      if (in.op == Op::kJal) ctx.setReg(kRa, ctx.pc + 4);
      next = static_cast<std::uint32_t>(in.imm);
      break;
    case OpFormat::kR1:
      if (in.op == Op::kJalr) ctx.setReg(kRa, ctx.pc + 4);
      next = ctx.reg(in.rs);
      break;
    case OpFormat::kGr:
      XMT_CHECK(in.rt < kNumGlobalRegs);
      if (in.op == Op::kMtgr)
        gr_[in.rt] = ctx.reg(in.rd);
      else if (in.op == Op::kMfgr)
        ctx.setReg(in.rd, gr_[in.rt]);
      else
        throw InternalError("ps must not reach execSimple");
      break;
    case OpFormat::kImm:
      doSyscall(ctx, in.imm);
      break;
    case OpFormat::kNone:
      if (in.op != Op::kNop)
        throw InternalError("non-simple op in execSimple: " +
                            std::string(info.name));
      break;
    default:
      throw InternalError("unexpected format in execSimple");
  }
  ctx.pc = next;
}

std::uint32_t FuncModel::psFetchAdd(int gr, std::uint32_t inc) {
  XMT_CHECK(gr >= 0 && gr < kNumGlobalRegs);
  std::uint32_t old = gr_[static_cast<std::size_t>(gr)];
  gr_[static_cast<std::size_t>(gr)] = old + inc;
  return old;
}

Context FuncModel::makeThreadContext(const Context& master,
                                     std::uint32_t startPc,
                                     std::uint32_t tid) const {
  Context t = master;  // register broadcast at spawn onset
  t.pc = startPc;
  t.setReg(kTid, tid);
  return t;
}

void FuncModel::doSyscall(Context& ctx, std::int32_t code) {
  char buf[64];
  switch (code) {
    case 1:  // print signed int in a0
      std::snprintf(buf, sizeof buf, "%d",
                    static_cast<std::int32_t>(ctx.reg(kA0)));
      output_ += buf;
      break;
    case 2:  // print char in a0
      output_ += static_cast<char>(ctx.reg(kA0) & 0xff);
      break;
    case 3: {  // print NUL-terminated string at address in a0
      std::uint32_t addr = ctx.reg(kA0);
      for (int guard = 0; guard < (1 << 20); ++guard) {
        char c = static_cast<char>(memory_.readByte(addr++));
        if (c == '\0') break;
        output_ += c;
      }
      break;
    }
    case 4: {  // print float bits in a0
      float f;
      std::uint32_t bits = ctx.reg(kA0);
      std::memcpy(&f, &bits, 4);
      std::snprintf(buf, sizeof buf, "%g", static_cast<double>(f));
      output_ += buf;
      break;
    }
    default:
      throw SimError("unknown syscall code " + std::to_string(code));
  }
}

std::uint32_t FuncModel::symbolWordAddr(const std::string& name,
                                        const char* why) const {
  const Symbol& sym = program_.symbol(name);
  if (sym.isText)
    throw SimError(std::string(why) + ": '" + name + "' is a text symbol");
  return sym.addr;
}

void FuncModel::setGlobal(const std::string& name, std::uint32_t value) {
  memory_.writeWord(symbolWordAddr(name, "setGlobal"), value);
}

void FuncModel::setGlobalArray(const std::string& name,
                               std::span<const std::uint32_t> values) {
  const Symbol& sym = program_.symbol(name);
  if (sym.isText) throw SimError("setGlobalArray: text symbol");
  if (values.size() * 4 > sym.size)
    throw SimError("setGlobalArray: '" + name + "' holds " +
                   std::to_string(sym.size / 4) + " words, got " +
                   std::to_string(values.size()));
  std::uint32_t addr = sym.addr;
  for (std::uint32_t v : values) {
    memory_.writeWord(addr, v);
    addr += 4;
  }
}

std::uint32_t FuncModel::getGlobal(const std::string& name) const {
  return memory_.readWord(symbolWordAddr(name, "getGlobal"));
}

std::vector<std::uint32_t> FuncModel::getGlobalArray(
    const std::string& name) const {
  const Symbol& sym = program_.symbol(name);
  if (sym.isText) throw SimError("getGlobalArray: text symbol");
  std::vector<std::uint32_t> out;
  out.reserve(sym.size / 4);
  for (std::uint32_t off = 0; off + 4 <= sym.size; off += 4)
    out.push_back(memory_.readWord(sym.addr + off));
  return out;
}

bool FuncModel::runContextSerial(Context& ctx, bool isMaster,
                                 std::uint64_t maxInstructions,
                                 std::uint64_t& executed,
                                 SimObserver* observer, Stats* stats) {
  for (;;) {
    if (executed >= maxInstructions)
      throw SimError("functional mode exceeded instruction limit (" +
                     std::to_string(maxInstructions) + ")");
    const std::uint32_t pcBefore = ctx.pc;
    const Instruction& in = fetch(ctx.pc);
    ++executed;
    if (stats) stats->countInstruction(in);
    std::uint32_t memAddr = 0;
    StepClass cls = classify(in);
    switch (cls) {
      case StepClass::kSimple:
        execSimple(ctx, in);
        break;
      case StepClass::kMemory: {
        memAddr = effectiveAddr(ctx, in);
        bool isWrite = false, touches = true;
        std::uint32_t size = 4;
        switch (in.op) {
          case Op::kLw:
          case Op::kRolw:
            ctx.setReg(in.rt, memory_.readWord(memAddr));
            break;
          case Op::kLbu:
            ctx.setReg(in.rt, memory_.readByte(memAddr));
            size = 1;
            break;
          case Op::kSw:
          case Op::kSwnb:
            memory_.writeWord(memAddr, ctx.reg(in.rt));
            isWrite = true;
            break;
          case Op::kSb:
            memory_.writeByte(memAddr,
                              static_cast<std::uint8_t>(ctx.reg(in.rt)));
            isWrite = true;
            size = 1;
            break;
          case Op::kPref:
          case Op::kFence:
            touches = false;  // timing-only in functional mode
            break;
          default:
            throw InternalError("bad memory op");
        }
        if (observer && touches)
          observer->onMemAccess({isMaster ? 0 : spawnSeq_, ctx.reg(kTid),
                                 !isMaster, isWrite, false, memAddr, size,
                                 in.srcLine});
        ctx.pc += 4;
        break;
      }
      case StepClass::kPs: {
        if (stats) ++stats->psRequests;
        std::uint32_t old = psFetchAdd(in.rt, ctx.reg(in.rd));
        ctx.setReg(in.rd, old);
        ctx.pc += 4;
        break;
      }
      case StepClass::kPsm: {
        if (stats) ++stats->psmRequests;
        memAddr = effectiveAddr(ctx, in);
        std::uint32_t old = memory_.fetchAdd(memAddr, ctx.reg(in.rt));
        ctx.setReg(in.rt, old);
        if (observer)
          observer->onMemAccess({isMaster ? 0 : spawnSeq_, ctx.reg(kTid),
                                 !isMaster, true, true, memAddr, 4,
                                 in.srcLine});
        ctx.pc += 4;
        break;
      }
      case StepClass::kSpawn: {
        if (!isMaster)
          throw SimError("nested spawn reached hardware (the compiler "
                         "serializes nested spawns)");
        if (stats) ++stats->spawns;
        ++spawnSeq_;
        std::uint32_t low = gr_[kGrNextId];
        std::uint32_t high = gr_[kGrHigh];
        auto startPc = static_cast<std::uint32_t>(in.imm);
        if (regionRunner_) {
          executed += regionRunner_->runRegion(
              *this, ctx, startPc, low, high, spawnSeq_,
              maxInstructions - executed, observer, stats);
        } else {
          // Serialize the spawn block: one virtual thread at a time, each
          // starting from the master register snapshot.
          for (std::uint32_t id = low;
               static_cast<std::int32_t>(id) <=
               static_cast<std::int32_t>(high);
               ++id) {
            if (stats) ++stats->virtualThreads;
            Context t = makeThreadContext(ctx, startPc, id);
            if (runContextSerial(t, false, maxInstructions, executed,
                                 observer, stats))
              return true;
          }
        }
        gr_[kGrNextId] = high + 1;
        ctx.pc = static_cast<std::uint32_t>(in.imm2);
        break;
      }
      case StepClass::kJoin:
        if (isMaster)
          throw SimError("join executed in serial (master) mode");
        notifyCommit(observer, stats, 0, in, pcBefore, 0);
        return false;  // virtual thread complete
      case StepClass::kHalt:
        if (!isMaster) throw SimError("halt executed inside a spawn block");
        notifyCommit(observer, stats, kMasterCluster, in, pcBefore, 0);
        return true;
    }
    notifyCommit(observer, stats, isMaster ? kMasterCluster : 0, in, pcBefore,
                 memAddr);
  }
}

FunctionalRunResult FuncModel::runFunctional(std::uint64_t maxInstructions,
                                             SimObserver* observer,
                                             Stats* stats) {
  Context master;
  master.pc = program_.entry;
  master.setReg(kSp, kStackTop);
  std::uint64_t executed = 0;
  bool halted =
      runContextSerial(master, true, maxInstructions, executed, observer,
                       stats);
  FunctionalRunResult r;
  r.halted = halted;
  r.haltCode = static_cast<std::int32_t>(master.reg(kV0));
  r.instructions = executed;
  return r;
}

// --- RegionExec: visible-operation stepping of one spawn region -----------

RegionExec::RegionExec(FuncModel& fm, const Context& master,
                       std::uint32_t startPc, std::uint32_t low,
                       std::uint32_t high, std::uint64_t spawnSeq,
                       std::uint64_t instrBudget, bool eager)
    : fm_(fm), spawnSeq_(spawnSeq), budget_(instrBudget), eager_(eager) {
  for (std::uint32_t id = low; static_cast<std::int32_t>(id) <=
                               static_cast<std::int32_t>(high);
       ++id) {
    Thread t;
    t.ctx = fm_.makeThreadContext(master, startPc, id);
    threads_.push_back(std::move(t));
  }
  liveThreads_ = threads_.size();
  if (eager_)
    for (std::size_t t = 0; t < threads_.size(); ++t)
      advance(t, nullptr, nullptr);
}

void RegionExec::countInstr(Stats* stats, const Instruction& in) {
  if (executed_ >= budget_)
    throw SimError("functional mode exceeded instruction limit (" +
                   std::to_string(budget_) + ")");
  ++executed_;
  if (stats) stats->countInstruction(in);
}

RegionExec::VisibleOp RegionExec::decodeVisible(const Context& ctx,
                                                const Instruction& in) const {
  VisibleOp op;
  op.srcLine = in.srcLine;
  switch (in.op) {
    case Op::kLw:
    case Op::kRolw:
      op.kind = OpKind::kLoad;
      op.addr = fm_.effectiveAddr(ctx, in);
      break;
    case Op::kLbu:
      op.kind = OpKind::kLoad;
      op.addr = fm_.effectiveAddr(ctx, in);
      op.size = 1;
      break;
    case Op::kSw:
    case Op::kSwnb:
      op.kind = OpKind::kStore;
      op.addr = fm_.effectiveAddr(ctx, in);
      op.write = true;
      break;
    case Op::kSb:
      op.kind = OpKind::kStore;
      op.addr = fm_.effectiveAddr(ctx, in);
      op.write = true;
      op.size = 1;
      break;
    case Op::kPs:
      op.kind = OpKind::kPs;
      op.addr = static_cast<std::uint32_t>(in.rt);
      op.write = true;
      op.atomic = true;
      break;
    case Op::kPsm:
      op.kind = OpKind::kPsm;
      op.addr = fm_.effectiveAddr(ctx, in);
      op.write = true;
      op.atomic = true;
      break;
    case Op::kMtgr:
      op.kind = OpKind::kGrWrite;
      op.addr = static_cast<std::uint32_t>(in.rt);
      op.write = true;
      break;
    case Op::kMfgr:
      op.kind = OpKind::kGrRead;
      op.addr = static_cast<std::uint32_t>(in.rt);
      break;
    case Op::kSys:
      op.kind = OpKind::kOutput;
      break;
    case Op::kJoin:
      op.kind = OpKind::kJoin;
      break;
    default:
      throw InternalError("decodeVisible: invisible op");
  }
  return op;
}

void RegionExec::advance(std::size_t t, SimObserver* observer,
                         Stats* stats) {
  Thread& th = threads_[t];
  for (;;) {
    const Instruction& in = fm_.fetch(th.ctx.pc);
    switch (FuncModel::classify(in)) {
      case FuncModel::StepClass::kSimple:
        if (in.op == Op::kMtgr || in.op == Op::kMfgr || in.op == Op::kSys) {
          th.pending = decodeVisible(th.ctx, in);
          th.advanced = true;
          return;
        }
        break;  // thread-local: execute below
      case FuncModel::StepClass::kMemory:
        if (in.op != Op::kPref && in.op != Op::kFence) {
          th.pending = decodeVisible(th.ctx, in);
          th.advanced = true;
          return;
        }
        break;  // timing-only: execute below
      case FuncModel::StepClass::kPs:
      case FuncModel::StepClass::kPsm:
      case FuncModel::StepClass::kJoin:
        th.pending = decodeVisible(th.ctx, in);
        th.advanced = true;
        return;
      case FuncModel::StepClass::kSpawn:
        throw SimError("nested spawn reached hardware (the compiler "
                       "serializes nested spawns)");
      case FuncModel::StepClass::kHalt:
        throw SimError("halt executed inside a spawn block");
    }
    // Invisible instruction: execute immediately (mirrors the serial path's
    // event shape — countInstruction, then commit).
    const std::uint32_t pcBefore = th.ctx.pc;
    countInstr(stats, in);
    std::uint32_t memAddr = 0;
    if (in.op == Op::kPref || in.op == Op::kFence) {
      memAddr = fm_.effectiveAddr(th.ctx, in);
      th.ctx.pc += 4;
    } else {
      fm_.execSimple(th.ctx, in);
    }
    notifyCommit(observer, stats, 0, in, pcBefore, memAddr);
  }
}

RegionExec::VisibleOp RegionExec::execVisible(std::size_t t,
                                              SimObserver* observer,
                                              Stats* stats) {
  Thread& th = threads_[t];
  const Instruction& in = fm_.fetch(th.ctx.pc);
  const std::uint32_t pcBefore = th.ctx.pc;
  const VisibleOp op = th.pending;
  countInstr(stats, in);
  switch (op.kind) {
    case OpKind::kLoad:
    case OpKind::kStore: {
      switch (in.op) {
        case Op::kLw:
        case Op::kRolw:
          th.ctx.setReg(in.rt, fm_.memory().readWord(op.addr));
          break;
        case Op::kLbu:
          th.ctx.setReg(in.rt, fm_.memory().readByte(op.addr));
          break;
        case Op::kSw:
        case Op::kSwnb:
          fm_.memory().writeWord(op.addr, th.ctx.reg(in.rt));
          break;
        case Op::kSb:
          fm_.memory().writeByte(op.addr,
                                 static_cast<std::uint8_t>(th.ctx.reg(in.rt)));
          break;
        default:
          throw InternalError("bad visible memory op");
      }
      if (observer)
        observer->onMemAccess({spawnSeq_, th.ctx.reg(kTid), true, op.write,
                               false, op.addr, op.size, in.srcLine});
      th.ctx.pc += 4;
      notifyCommit(observer, stats, 0, in, pcBefore, op.addr);
      break;
    }
    case OpKind::kPs: {
      if (stats) ++stats->psRequests;
      std::uint32_t old = fm_.psFetchAdd(in.rt, th.ctx.reg(in.rd));
      th.ctx.setReg(in.rd, old);
      th.ctx.pc += 4;
      notifyCommit(observer, stats, 0, in, pcBefore, 0);
      break;
    }
    case OpKind::kPsm: {
      if (stats) ++stats->psmRequests;
      std::uint32_t old = fm_.memory().fetchAdd(op.addr, th.ctx.reg(in.rt));
      th.ctx.setReg(in.rt, old);
      if (observer)
        observer->onMemAccess({spawnSeq_, th.ctx.reg(kTid), true, true, true,
                               op.addr, 4, in.srcLine});
      th.ctx.pc += 4;
      notifyCommit(observer, stats, 0, in, pcBefore, op.addr);
      break;
    }
    case OpKind::kGrRead:
    case OpKind::kGrWrite:
    case OpKind::kOutput:
      fm_.execSimple(th.ctx, in);
      notifyCommit(observer, stats, 0, in, pcBefore, 0);
      break;
    case OpKind::kJoin:
      notifyCommit(observer, stats, 0, in, pcBefore, 0);
      th.done = true;
      th.pending = VisibleOp{};
      --liveThreads_;
      return op;
    case OpKind::kNone:
      throw InternalError("step on a finished thread");
  }
  th.advanced = false;
  return op;
}

RegionExec::VisibleOp RegionExec::step(std::size_t t, SimObserver* observer,
                                       Stats* stats) {
  Thread& th = threads_[t];
  XMT_CHECK(!th.done);
  if (!th.advanced) advance(t, observer, stats);
  VisibleOp op = execVisible(t, observer, stats);
  if (eager_ && !th.done) advance(t, observer, stats);
  return op;
}

// --- RandomScheduleRunner --------------------------------------------------

std::uint64_t RandomScheduleRunner::runRegion(
    FuncModel& fm, const Context& master, std::uint32_t startPc,
    std::uint32_t low, std::uint32_t high, std::uint64_t spawnSeq,
    std::uint64_t instrBudget, SimObserver* observer, Stats* stats) {
  RegionExec exec(fm, master, startPc, low, high, spawnSeq, instrBudget,
                  /*eager=*/false);
  if (stats) stats->virtualThreads += exec.threadCount();
  Rng rng(seed_ + 0x9e3779b97f4a7c15ull * (spawnSeq + 1));
  std::vector<std::size_t> live;
  live.reserve(exec.threadCount());
  for (std::size_t t = 0; t < exec.threadCount(); ++t) live.push_back(t);
  while (!live.empty()) {
    std::size_t idx = static_cast<std::size_t>(rng.below(live.size()));
    std::size_t t = live[idx];
    exec.step(t, observer, stats);
    if (exec.done(t)) {
      live[idx] = live.back();
      live.pop_back();
    }
  }
  return exec.instructionsExecuted();
}

FuncModel::ArchState FuncModel::saveArchState() const {
  ArchState s;
  s.pages = memory_.snapshot();
  s.gr = gr_;
  s.output = output_;
  return s;
}

void FuncModel::restoreArchState(const ArchState& s) {
  memory_.restore(s.pages);
  gr_ = s.gr;
  output_ = s.output;
}

}  // namespace xmt
