#include "src/sim/trace.h"

#include <iomanip>

namespace xmt {

void TextTrace::onCommit(const CommitEvent& ev) {
  if (fOp_ != Op::kOpCount && ev.in.op != fOp_) return;
  emit(ev.time, ev.cluster, ev.tcu, "commit", ev.pc, &ev.in, ev.memAddr);
}

void TextTrace::onPackage(const char* stage, const Package& pkg,
                          SimTime time) {
  // A package hop carries no instruction, so any opcode filter drops it.
  if (level_ != TraceLevel::kCycle || fOp_ != Op::kOpCount) return;
  emit(time, pkg.srcCluster, pkg.srcTcu, stage, 0, nullptr, pkg.addr);
}

void TextTrace::emit(SimTime time, int cluster, int tcu, const char* stage,
                     std::uint32_t pc, const Instruction* in,
                     std::uint32_t addr) {
  if (fCluster_ != -2 && (cluster != fCluster_ || tcu != fTcu_)) return;
  ++count_;
  out_ << std::setw(10) << time << " ";
  if (cluster == kMasterCluster)
    out_ << "master      ";
  else
    out_ << "c" << std::setw(2) << cluster << "/t" << std::setw(2) << tcu
         << "    ";
  out_ << std::setw(8) << stage << "  pc=0x" << std::hex << pc << std::dec;
  if (in) out_ << "  " << disassemble(*in);
  if (addr != 0) out_ << "  addr=0x" << std::hex << addr << std::dec;
  out_ << "\n";
}

}  // namespace xmt
