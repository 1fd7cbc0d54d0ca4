#include "src/compiler/postpass.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/assembler/assembler.h"
#include "src/common/error.h"

namespace xmt {

namespace {

// The assembler's reading of the text, with label-only lines folded onto
// the next line so that every line is one instruction or directive (a
// trailing label-only line stays as it is).
std::vector<AsmLine> foldedLines(const std::string& text) {
  std::vector<AsmLine> out;
  std::vector<std::string> pending;
  for (AsmLine& l : tokenizeAsm(text)) {
    pending.insert(pending.end(), l.labels.begin(), l.labels.end());
    if (l.mnemonic.empty()) continue;
    l.labels = std::move(pending);
    pending.clear();
    out.push_back(std::move(l));
  }
  if (!pending.empty()) {
    AsmLine tail;
    tail.labels = std::move(pending);
    out.push_back(std::move(tail));
  }
  return out;
}

std::map<std::string, std::size_t> labelIndex(
    const std::vector<AsmLine>& lines) {
  std::map<std::string, std::size_t> at;
  for (std::size_t i = 0; i < lines.size(); ++i)
    for (const auto& lbl : lines[i].labels) at[lbl] = i;
  return at;
}

std::string render(const std::vector<AsmLine>& lines) {
  std::ostringstream out;
  for (const auto& l : lines) {
    for (const auto& lbl : l.labels) out << lbl << ":\n";
    if (!l.mnemonic.empty()) {
      out << "  " << l.mnemonic;
      for (std::size_t i = 0; i < l.operands.size(); ++i)
        out << (i == 0 ? " " : ", ") << l.operands[i];
      out << "\n";
    }
  }
  return out.str();
}

bool isBranch(const std::string& m) {
  return m == "beq" || m == "bne" || m == "blt" || m == "ble" || m == "bgt" ||
         m == "bge" || m == "beqz" || m == "bnez";
}

bool endsFlow(const std::string& m) {
  return m == "j" || m == "jr" || m == "join" || m == "halt" || m == "b";
}

// Branch/jump target label, or empty.
std::string targetOf(const AsmLine& l) {
  if (l.mnemonic == "j" || l.mnemonic == "b") return l.operands.at(0);
  if (isBranch(l.mnemonic)) return l.operands.back();
  return {};
}

[[noreturn]] void fail(DiagCode code, int line, const std::string& msg,
                       std::string symbol = {}, int otherLine = -1) {
  Diagnostic d;
  d.code = code;
  d.severity = Severity::kError;
  d.line = line;
  d.otherLine = otherLine;
  d.symbol = std::move(symbol);
  d.message = "post-pass: " + msg;
  throw PostPassError(std::move(d));
}

}  // namespace

PostPassReport runPostPass(const std::string& asmText) {
  std::vector<AsmLine> lines = foldedLines(asmText);
  std::map<std::string, std::size_t> labelAt = labelIndex(lines);
  PostPassReport report;
  int fixLabelCounter = 0;

  for (std::size_t si = 0; si < lines.size(); ++si) {
    if (lines[si].mnemonic != "spawn") continue;
    ++report.regionsChecked;
    const int spawnLine = lines[si].number;
    if (lines[si].operands.size() != 2)
      fail(DiagCode::kPostPassBadSpawn, spawnLine,
           "spawn needs two label operands");
    const std::string regionLbl = lines[si].operands[0];
    auto s = labelAt.find(lines[si].operands[0]);
    auto e = labelAt.find(lines[si].operands[1]);
    if (s == labelAt.end() || e == labelAt.end())
      fail(DiagCode::kPostPassUnknownLabel, spawnLine,
           "spawn references unknown label",
           s == labelAt.end() ? lines[si].operands[0]
                              : lines[si].operands[1]);
    std::size_t start = s->second;
    std::size_t end = e->second;
    if (start > end)
      fail(DiagCode::kPostPassBadSpawn, spawnLine, "inverted spawn region",
           regionLbl);

    for (int attempt = 0; attempt < 8; ++attempt) {
      // Reachability from the region entry.
      std::set<std::size_t> visited;
      std::vector<std::size_t> work{start};
      while (!work.empty()) {
        std::size_t i = work.back();
        work.pop_back();
        if (i >= lines.size() || !visited.insert(i).second) continue;
        const AsmLine& l = lines[i];
        if (l.mnemonic == "spawn")
          fail(DiagCode::kPostPassNestedSpawn, l.number,
               "nested spawn inside a spawn region", regionLbl, spawnLine);
        if (l.mnemonic == "halt")
          fail(DiagCode::kPostPassHaltInRegion, l.number,
               "halt inside a spawn region", regionLbl, spawnLine);
        if (l.mnemonic == "jr")
          fail(DiagCode::kPostPassCallInRegion, l.number,
               "jr inside a spawn region (no calls in parallel code)",
               regionLbl, spawnLine);
        std::string tgt = targetOf(l);
        if (!tgt.empty()) {
          auto t = labelAt.find(tgt);
          if (t == labelAt.end())
            fail(DiagCode::kPostPassUnknownLabel, l.number,
                 "branch to unknown label " + tgt, tgt);
          work.push_back(t->second);
        }
        if (!endsFlow(l.mnemonic)) work.push_back(i + 1);
      }
      // Misplaced = reachable but outside [start, end).
      std::vector<std::size_t> misplaced;
      for (std::size_t i : visited)
        if (i < start || i >= end) misplaced.push_back(i);
      if (misplaced.empty()) break;
      if (attempt == 7)
        fail(DiagCode::kPostPassLayout, spawnLine,
             "could not repair spawn-region layout", regionLbl);

      // Take the first contiguous misplaced run.
      std::sort(misplaced.begin(), misplaced.end());
      std::size_t runBegin = misplaced[0];
      std::size_t runEnd = runBegin;
      for (std::size_t i : misplaced) {
        if (i == runEnd + 1 || i == runBegin) runEnd = i;
        else break;
      }
      // If the run's last line can fall through, give the successor a label
      // and append an explicit jump (keeps semantics when relocated).
      std::vector<AsmLine> chunk(
          lines.begin() + static_cast<std::ptrdiff_t>(runBegin),
          lines.begin() + static_cast<std::ptrdiff_t>(runEnd + 1));
      if (!endsFlow(chunk.back().mnemonic)) {
        std::size_t succ = runEnd + 1;
        if (succ >= lines.size())
          fail(DiagCode::kPostPassLayout, chunk.back().number,
               "misplaced block falls off the end", regionLbl, spawnLine);
        std::string lbl;
        if (!lines[succ].labels.empty()) {
          lbl = lines[succ].labels[0];
        } else {
          lbl = "__pp_succ" + std::to_string(fixLabelCounter++);
          lines[succ].labels.push_back(lbl);
        }
        AsmLine jmp;
        jmp.mnemonic = "j";
        jmp.operands.push_back(lbl);
        chunk.push_back(jmp);
      }

      // Find the join line inside the region (layout position of the
      // repair point).
      std::size_t joinIdx = end;
      for (std::size_t i = start; i < end; ++i)
        if (lines[i].mnemonic == "join") joinIdx = i;
      if (joinIdx == end)
        fail(DiagCode::kPostPassMissingJoin, spawnLine,
             "spawn region without a join", regionLbl);

      // Give the join a label and make the preceding fall-through explicit.
      std::string joinLbl;
      if (!lines[joinIdx].labels.empty()) {
        joinLbl = lines[joinIdx].labels[0];
      } else {
        joinLbl = "__pp_join" + std::to_string(fixLabelCounter++);
        lines[joinIdx].labels.push_back(joinLbl);
      }
      std::vector<AsmLine> insertion;
      if (joinIdx > start && !endsFlow(lines[joinIdx - 1].mnemonic)) {
        AsmLine jmp;
        jmp.mnemonic = "j";
        jmp.operands.push_back(joinLbl);
        insertion.push_back(jmp);
      }
      insertion.insert(insertion.end(), chunk.begin(), chunk.end());

      // Remove the misplaced run (careful with index shifts): remove first
      // if it sits after the join, then insert.
      if (runBegin > joinIdx) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(runBegin),
                    lines.begin() + static_cast<std::ptrdiff_t>(runEnd + 1));
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(joinIdx),
                     insertion.begin(), insertion.end());
      } else {
        // Misplaced run before the region: insert first, then remove.
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(joinIdx),
                     insertion.begin(), insertion.end());
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(runBegin),
                    lines.begin() + static_cast<std::ptrdiff_t>(runEnd + 1));
      }
      ++report.relocatedBlocks;

      // Rebuild the label index and region bounds, then re-verify.
      labelAt = labelIndex(lines);
      // This spawn line may have moved.
      for (std::size_t i = 0; i < lines.size(); ++i)
        if (lines[i].mnemonic == "spawn" &&
            lines[i].operands == lines[si].operands)
          si = i;
      start = labelAt.at(lines[si].operands[0]);
      end = labelAt.at(lines[si].operands[1]);
    }
  }

  // Hidden fault-injection hook for the differential-fuzzing harness: a
  // deliberate miscompile reachable only through the environment, so the
  // three-way oracle and the reducer can be tested against a known-real bug
  // (DESIGN.md §8). Never set outside tests.
  //   drop-fence — deletes every fence (timing-dependent store/spawn races)
  //   dup-psm    — duplicates every psm (accumulators deterministically off)
  if (const char* inject = std::getenv("XMT_XMTSMITH_INJECT")) {
    const std::string kind = inject;
    std::vector<AsmLine> out;
    out.reserve(lines.size());
    std::vector<std::string> carry;  // labels of deleted lines move forward
    for (const auto& l : lines) {
      if (kind == "drop-fence" && l.mnemonic == "fence") {
        carry.insert(carry.end(), l.labels.begin(), l.labels.end());
        continue;
      }
      out.push_back(l);
      if (!carry.empty()) {
        out.back().labels.insert(out.back().labels.begin(), carry.begin(),
                                 carry.end());
        carry.clear();
      }
      if (kind == "dup-psm" && l.mnemonic == "psm") {
        AsmLine dup = l;
        dup.labels.clear();
        out.push_back(std::move(dup));
      }
    }
    if (!carry.empty() && !out.empty())
      out.back().labels.insert(out.back().labels.end(), carry.begin(),
                               carry.end());
    lines = std::move(out);
  }

  report.asmText = render(lines);
  return report;
}

}  // namespace xmt
