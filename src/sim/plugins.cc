#include "src/sim/plugins.h"

#include <algorithm>
#include <sstream>

namespace xmt {

void HotMemoryFilter::onCommit(const CommitEvent& ev) {
  const Instruction& in = ev.in;
  if (!in.isMemory() || in.op == Op::kFence || in.op == Op::kPref) return;
  ++counts_[ev.memAddr / granularity_ * granularity_];
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> HotMemoryFilter::top()
    const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> v(counts_.begin(),
                                                         counts_.end());
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (v.size() > static_cast<std::size_t>(topN_)) v.resize(topN_);
  return v;
}

std::string HotMemoryFilter::report() const {
  std::ostringstream ss;
  ss << "hottest memory locations (top " << topN_ << "):\n";
  for (const auto& [addr, count] : top())
    ss << "  0x" << std::hex << addr << std::dec << ": " << count
       << " accesses\n";
  return ss.str();
}

void HotLineFilter::onCommit(const CommitEvent& ev) {
  ++counts_[ev.in.srcLine];
}

std::vector<std::pair<std::int32_t, std::uint64_t>> HotLineFilter::top()
    const {
  std::vector<std::pair<std::int32_t, std::uint64_t>> v(counts_.begin(),
                                                        counts_.end());
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (v.size() > static_cast<std::size_t>(topN_)) v.resize(topN_);
  return v;
}

std::string HotLineFilter::report() const {
  std::ostringstream ss;
  ss << "hottest assembly lines (top " << topN_ << "):\n";
  for (const auto& [line, count] : top())
    ss << "  line " << line << ": " << count << " executions\n";
  return ss.str();
}

void RaceCheckPlugin::onMemAccess(const MemAccess& a) {
  if (!a.parallel) return;
  // An access conflicting on several of its bytes is one race, not size
  // races: remember the first conflicting byte of each flavour and report
  // once after the shadow update loop.
  bool sawWW = false, sawRW = false;
  DynRace ww{}, rw{};
  for (std::uint32_t off = 0; off < a.size; ++off) {
    std::uint32_t byte = a.addr + off;
    Shadow& s = shadow_[byte];
    if (s.spawnSeq != a.spawnSeq) s = Shadow{a.spawnSeq};
    if (a.write) {
      if (s.hasWrite && s.writerTid != a.tid &&
          !(a.atomic && s.writeAtomic)) {
        if (!sawWW) ww = {byte, true, s.writerTid, a.tid, a.srcLine};
        sawWW = true;
      } else if (s.hasRead && !(a.atomic && s.readAtomic) &&
                 (s.multiReader || s.readerTid != a.tid)) {
        if (!sawRW) rw = {byte, false, s.readerTid, a.tid, a.srcLine};
        sawRW = true;
      }
      s.hasWrite = true;
      s.writerTid = a.tid;
      s.writeAtomic = a.atomic;
    }
    if (!a.write || a.atomic) {  // psm also reads
      if (s.hasWrite && s.writerTid != a.tid &&
          !(a.atomic && s.writeAtomic)) {
        if (!sawRW) rw = {byte, false, s.writerTid, a.tid, a.srcLine};
        sawRW = true;
      }
      if (!s.hasRead) {
        s.hasRead = true;
        s.readerTid = a.tid;
        s.readAtomic = a.atomic;
      } else {
        if (s.readerTid != a.tid) s.multiReader = true;
        s.readAtomic = s.readAtomic && a.atomic;
      }
    }
  }
  if (sawWW) races_.push_back(ww);
  if (sawRW && !sawWW) races_.push_back(rw);
}

std::set<std::string> RaceCheckPlugin::racySymbols(const Program& prog) const {
  std::set<std::string> out;
  for (const DynRace& r : races_) {
    const std::string* best = nullptr;
    for (const auto& [name, sym] : prog.symbols) {
      if (sym.isText || sym.size == 0) continue;
      if (r.addr >= sym.addr && r.addr < sym.addr + sym.size) {
        best = &name;
        break;
      }
    }
    if (best) {
      out.insert(*best);
    } else if (r.addr >= kStackTop - (1u << 20)) {
      out.insert("<stack>");
    } else {
      out.insert("<unknown>");
    }
  }
  return out;
}

std::string RaceCheckPlugin::report() const {
  std::ostringstream ss;
  if (races_.empty()) {
    ss << "race check: no races observed\n";
    return ss.str();
  }
  ss << "race check: " << races_.size() << " conflicting accesses\n";
  std::size_t shown = 0;
  for (const DynRace& r : races_) {
    if (shown++ == 10) {
      ss << "  ...\n";
      break;
    }
    ss << "  0x" << std::hex << r.addr << std::dec << ": "
       << (r.writeWrite ? "write/write" : "read/write") << " between threads "
       << r.tidA << " and " << r.tidB << " (asm line " << r.srcLine << ")\n";
  }
  return ss.str();
}

}  // namespace xmt
