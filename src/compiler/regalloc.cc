#include "src/compiler/regalloc.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/error.h"
#include "src/compiler/analysis/cfg.h"
#include "src/compiler/analysis/dataflow.h"

namespace xmt {

namespace {

// Allocatable registers. at (1) and k1 (27) are reserved as spill
// scratch; zero/tid/gp/sp/fp/ra are never allocated.
const int kCallerSaved[] = {kT4, kT5, kT6, kT7, kT8, kT9,
                            kT0, kT1, kT2, kT3, kV1, kV0,
                            kA3, kA2, kA1, kA0};
const int kCalleeSaved[] = {kS0, kS1, kS2, kS3, kS4, kS5, kS6, kS7};

struct Interval {
  int vreg = -1;
  int start = 0;
  int end = 0;
  bool crossesCall = false;
  bool touchesParallel = false;
};

void usesOf(const IrInstr& in, std::vector<int>& out) {
  out.clear();
  analysis::collectUses(in, out);
}

}  // namespace

FrameInfo allocateRegisters(IrFunc& fn) {
  // --- Positions ---
  std::vector<int> blockStart(fn.blocks.size()), blockEnd(fn.blocks.size());
  int pos = 0;
  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    blockStart[bi] = pos;
    pos += static_cast<int>(fn.blocks[bi].instrs.size()) * 2;
    blockEnd[bi] = pos;
  }

  // --- Liveness (block level) ---
  std::size_t nb = fn.blocks.size();
  const analysis::DataflowResult live =
      analysis::computeLiveness(fn, analysis::buildCfg(fn)).flow;
  std::vector<int> uses;

  // --- Intervals ---
  std::map<int, Interval> ivals;
  auto touch = [&](int v, int p, bool parallel) {
    auto [it, fresh] = ivals.try_emplace(v);
    Interval& iv = it->second;
    if (fresh) {
      iv.vreg = v;
      iv.start = p;
      iv.end = p;
    } else {
      iv.start = std::min(iv.start, p);
      iv.end = std::max(iv.end, p);
    }
    iv.touchesParallel |= parallel;
  };
  std::vector<int> callPositions;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    const IrBlock& b = fn.blocks[bi];
    live.in[bi].forEach([&](std::size_t v) {
      touch(static_cast<int>(v), blockStart[bi], b.parallel);
    });
    live.out[bi].forEach([&](std::size_t v) {
      touch(static_cast<int>(v), blockEnd[bi], b.parallel);
    });
    int p = blockStart[bi];
    for (const IrInstr& ins : b.instrs) {
      usesOf(ins, uses);
      for (int u : uses) touch(u, p, b.parallel);
      if (ins.dst >= 0) touch(ins.dst, p + 1, b.parallel);
      if (ins.op == IOp::kCall) callPositions.push_back(p);
      p += 2;
    }
  }
  for (auto& [v, iv] : ivals)
    for (int cp : callPositions)
      if (iv.start < cp && iv.end > cp) {
        iv.crossesCall = true;
        break;
      }

  // Broadcast live-in protection. A TCU's registers are snapshot from the
  // master once, at spawn onset; when the TCU is re-dispatched for further
  // virtual threads the snapshot is NOT refreshed. Therefore any value
  // defined in serial code and read inside a parallel region must keep its
  // register for the WHOLE region — a body temporary reusing it would
  // corrupt every virtual thread after the first on each TCU. Extend such
  // intervals to the end of each parallel region that uses them.
  {
    // Maximal runs of contiguous parallel blocks.
    std::vector<std::pair<int, int>> regions;  // (startPos, endPos)
    std::vector<int> regionEndOfBlock(nb, -1);
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (!fn.blocks[bi].parallel) continue;
      if (bi > 0 && fn.blocks[bi - 1].parallel && !regions.empty())
        regions.back().second = blockEnd[bi];
      else
        regions.emplace_back(blockStart[bi], blockEnd[bi]);
    }
    // Second pass: record each parallel block's region end.
    {
      std::size_t ri = 0;
      for (std::size_t bi = 0; bi < nb; ++bi) {
        if (!fn.blocks[bi].parallel) continue;
        while (ri < regions.size() && regions[ri].second < blockStart[bi])
          ++ri;
        XMT_CHECK(ri < regions.size());
        regionEndOfBlock[bi] = regions[ri].second;
      }
    }
    // A vreg has a serial def if any def happens in a serial block.
    std::set<int> serialDefs;
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (fn.blocks[bi].parallel) continue;
      for (const IrInstr& ins : fn.blocks[bi].instrs)
        if (ins.dst >= 0) serialDefs.insert(ins.dst);
    }
    for (std::size_t bi = 0; bi < nb; ++bi) {
      if (!fn.blocks[bi].parallel) continue;
      for (const IrInstr& ins : fn.blocks[bi].instrs) {
        usesOf(ins, uses);
        for (int u : uses) {
          if (!serialDefs.count(u)) continue;
          auto it = ivals.find(u);
          if (it != ivals.end())
            it->second.end =
                std::max(it->second.end, regionEndOfBlock[bi]);
        }
      }
    }
  }

  // --- Fixed (physical) intervals block their registers ---
  std::vector<std::vector<std::pair<int, int>>> fixed(kNumRegs);
  std::vector<Interval> work;
  for (auto& [v, iv] : ivals) {
    if (v < kNumRegs)
      fixed[static_cast<std::size_t>(v)].emplace_back(iv.start, iv.end);
    else
      work.push_back(iv);
  }
  auto conflictsFixed = [&](int reg, const Interval& iv) {
    for (auto [s, e] : fixed[static_cast<std::size_t>(reg)])
      if (iv.start <= e && s <= iv.end) return true;
    return false;
  };

  std::sort(work.begin(), work.end(), [](const Interval& a, const Interval& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.vreg < b.vreg;
  });

  // --- Linear scan ---
  std::map<int, int> regOf;     // vreg -> phys
  std::vector<int> spilled;
  struct Active {
    int end;
    int vreg;
    int reg;
  };
  std::vector<Active> active;
  FrameInfo frame;
  frame.frameWords = fn.frameWords;
  frame.saveRa = fn.hasCalls;

  auto regFree = [&](int reg, const Interval& iv) {
    for (const Active& a : active)
      if (a.reg == reg) return false;
    return !conflictsFixed(reg, iv);
  };

  for (const Interval& iv : work) {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Active& a) {
                                  return a.end < iv.start;
                                }),
                 active.end());
    int chosen = -1;
    if (!iv.crossesCall) {
      for (int r : kCallerSaved)
        if (regFree(r, iv)) {
          chosen = r;
          break;
        }
    }
    if (chosen < 0) {
      for (int r : kCalleeSaved)
        if (regFree(r, iv)) {
          chosen = r;
          break;
        }
    }
    if (chosen < 0 && iv.crossesCall) {
      // Last resort for call-crossing values when s-regs ran out: none —
      // caller-saved would be clobbered. Spill.
    }
    if (chosen < 0) {
      if (iv.touchesParallel)
        throw CompileError(
            0,
            "register spill inside a spawn block in function '" + fn.name +
                "': too many live variables; no parallel stack exists");
      spilled.push_back(iv.vreg);
      continue;
    }
    regOf[iv.vreg] = chosen;
    if (chosen >= kS0 && chosen <= kS7) frame.usedCalleeSaved.insert(chosen);
    active.push_back({iv.end, iv.vreg, chosen});
  }

  // --- Spill slots ---
  std::map<int, int> slotOf;
  for (int v : spilled) {
    slotOf[v] = frame.frameWords;
    frame.frameWords += 1;
  }

  // --- Rewrite ---
  for (auto& b : fn.blocks) {
    std::vector<IrInstr> out;
    out.reserve(b.instrs.size());
    for (auto& ins : b.instrs) {
      int scratchIdx = 0;
      auto mapUse = [&](int v) -> int {
        if (v < kNumRegs) return v;
        auto r = regOf.find(v);
        if (r != regOf.end()) return r->second;
        auto s = slotOf.find(v);
        XMT_CHECK(s != slotOf.end());
        XMT_CHECK(!b.parallel);
        int scratch = scratchIdx++ == 0 ? kAt : kK1;
        IrInstr load(IOp::kLoadW);
        load.dst = scratch;
        load.a = -2;  // frame-relative marker, resolved by the emitter
        load.imm = s->second * 4;
        load.srcLine = ins.srcLine;
        out.push_back(load);
        return scratch;
      };
      if (ins.a >= 0) ins.a = mapUse(ins.a);
      if (ins.b >= 0) ins.b = mapUse(ins.b);
      for (auto& v : ins.args) v = mapUse(v);

      int spillStoreSlot = -1;
      if (ins.dst >= 0) {
        if (ins.dst < kNumRegs) {
          // fixed
        } else {
          auto r = regOf.find(ins.dst);
          if (r != regOf.end()) {
            ins.dst = r->second;
          } else {
            auto s = slotOf.find(ins.dst);
            XMT_CHECK(s != slotOf.end());
            XMT_CHECK(!b.parallel);
            spillStoreSlot = s->second;
            ins.dst = kAt;
          }
        }
      }
      out.push_back(ins);
      if (spillStoreSlot >= 0) {
        IrInstr store(IOp::kStoreW);
        store.a = -2;  // frame-relative
        store.imm = spillStoreSlot * 4;
        store.b = kAt;
        store.srcLine = ins.srcLine;
        out.push_back(store);
      }
    }
    b.instrs = std::move(out);
  }
  return frame;
}

}  // namespace xmt
