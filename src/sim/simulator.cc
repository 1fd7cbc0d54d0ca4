#include "src/sim/simulator.h"

#include "src/common/digest.h"
#include "src/common/error.h"

namespace xmt {

Simulator::Simulator(Program program, XmtConfig config, SimMode mode)
    : programCopy_(program), config_(std::move(config)), mode_(mode) {
  config_.validate();
  func_ = std::make_unique<FuncModel>(std::move(program));
}

Simulator::~Simulator() = default;

void Simulator::applyMemoryMap(const MemoryMap& map) {
  // Memory maps edit the data image through the program loader path so the
  // same bounds checks apply; then refresh the live memory.
  map.apply(func_->program());
  const Program& p = func_->program();
  if (!p.data.empty())
    func_->memory().writeBlock(kDataBase, p.data.data(), p.data.size());
}

void Simulator::setGlobal(const std::string& name, std::int32_t value) {
  func_->setGlobal(name, static_cast<std::uint32_t>(value));
}

void Simulator::setGlobalArray(const std::string& name,
                               std::span<const std::int32_t> values) {
  std::vector<std::uint32_t> raw(values.begin(), values.end());
  func_->setGlobalArray(name, raw);
}

std::int32_t Simulator::getGlobal(const std::string& name) const {
  return static_cast<std::int32_t>(func_->getGlobal(name));
}

std::vector<std::int32_t> Simulator::getGlobalArray(
    const std::string& name) const {
  auto raw = func_->getGlobalArray(name);
  return std::vector<std::int32_t>(raw.begin(), raw.end());
}

ActivityPlugin* Simulator::addActivityPlugin(
    std::unique_ptr<ActivityPlugin> plugin, std::uint64_t periodCycles) {
  ActivityPlugin* raw = plugin.get();
  if (cycle_) cycle_->addActivityPlugin(raw, periodCycles);
  activities_.push_back({std::move(plugin), periodCycles});
  return raw;
}

void Simulator::ensureCycleModel() {
  if (cycle_) return;
  cycle_ = std::make_unique<CycleModel>(*func_, config_, stats_);
  for (auto& a : activities_)
    cycle_->addActivityPlugin(a.plugin.get(), a.period);
}

RunResult Simulator::finishCycleResult(const CycleRunResult& r) {
  RunResult out;
  out.halted = r.halted;
  out.haltCode = r.haltCode;
  out.instructions = stats_.instructions;
  out.cycles = r.cycles + baseCycles_;
  out.simTimePs = r.simTime + baseSimTime_;
  stats_.cycles = out.cycles;
  stats_.simTime = out.simTimePs;
  out.output = func_->output();
  out.checkpointTaken = cycle_->checkpointStopTaken();
  return out;
}

RunResult Simulator::run(std::uint64_t maxCycles) {
  if (mode_ == SimMode::kFunctional) {
    if (ranFunctional_)
      throw SimError("functional mode is not resumable; construct a new "
                     "Simulator");
    ranFunctional_ = true;
    FunctionalRunResult fr =
        func_->runFunctional(config_.maxInstructions, observers_.target(),
                             &stats_);
    RunResult out;
    out.halted = fr.halted;
    out.haltCode = fr.haltCode;
    out.instructions = fr.instructions;
    out.output = func_->output();
    return out;
  }
  ensureCycleModel();
  if (cycle_->halted())
    throw SimError("program already halted; construct a new Simulator");
  return finishCycleResult(cycle_->run(maxCycles, observers_.target()));
}

RunResult Simulator::runToCheckpoint(std::uint64_t minCycles) {
  if (mode_ != SimMode::kCycleAccurate)
    throw SimError("checkpoints require cycle-accurate mode");
  ensureCycleModel();
  cycle_->requestCheckpointStop(minCycles);
  RunResult r = finishCycleResult(cycle_->run(0, observers_.target()));
  if (r.checkpointTaken) {
    XMT_CHECK(cycle_->quiescent());
    lastCheckpoint_.arch = func_->saveArchState();
    lastCheckpoint_.master = cycle_->masterContext();
    lastCheckpoint_.stats = stats_;
    lastCheckpoint_.simTime = r.simTimePs;
    lastCheckpoint_.cycles = r.cycles;
    lastCheckpoint_.configName = config_.name;
    haveCheckpoint_ = true;
  }
  return r;
}

const Checkpoint& Simulator::checkpoint() const {
  if (!haveCheckpoint_)
    throw SimError("no checkpoint has been taken");
  return lastCheckpoint_;
}

std::unique_ptr<Simulator> Simulator::resume(Program program,
                                             const Checkpoint& chk,
                                             XmtConfig config, SimMode mode) {
  auto sim = std::make_unique<Simulator>(std::move(program),
                                         std::move(config), mode);
  sim->func_->restoreArchState(chk.arch);
  sim->stats_ = chk.stats;
  sim->baseCycles_ = chk.cycles;
  sim->baseSimTime_ = chk.simTime;
  if (mode == SimMode::kCycleAccurate) {
    sim->ensureCycleModel();
    sim->cycle_->setMasterContext(chk.master);
  } else {
    throw SimError("functional-mode resume is not supported: the functional "
                   "runner restarts from the program entry");
  }
  return sim;
}

std::uint64_t Simulator::memoryDigest(
    std::span<const std::string> excludeSymbols) const {
  // Byte extents to mask out (order-dependent result placement).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> skip;
  for (const auto& name : excludeSymbols) {
    if (!programCopy_.hasSymbol(name)) continue;
    const Symbol& s = programCopy_.symbol(name);
    skip.emplace_back(s.addr, s.addr + s.size);
  }

  Fnv1a64 h;
  const SparseMemory& mem = func_->memory();
  const auto end =
      kDataBase + static_cast<std::uint32_t>(programCopy_.data.size());
  for (std::uint32_t a = kDataBase; a < end; ++a) {
    std::uint8_t b = mem.readByte(a);
    for (const auto& [lo, hi] : skip)
      if (a >= lo && a < hi) {
        b = 0;
        break;
      }
    h.byte(b);
  }
  // Directory of named data symbols (std::map: already name-sorted), so the
  // digest is tied to the symbol layout it hashed, not just raw bytes.
  for (const auto& [name, sym] : programCopy_.symbols) {
    if (sym.isText) continue;
    h.bytes(name);
    h.byte(0);
    h.word(sym.addr);
    h.word(sym.size);
  }
  return h.value();
}

}  // namespace xmt
