#include "src/compiler/analysis/asmmutate.h"

#include <algorithm>
#include <sstream>

#include "src/assembler/assembler.h"

namespace xmt::analysis {

namespace {

std::string render(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool hasLabel(const AsmLine& l, const std::string& name) {
  return std::find(l.labels.begin(), l.labels.end(), name) != l.labels.end();
}

bool isControlFlow(const std::string& m) {
  return m == "beq" || m == "bne" || m == "blt" || m == "ble" || m == "bgt" ||
         m == "bge" || m == "beqz" || m == "bnez" || m == "b" || m == "j" ||
         m == "jal" || m == "jalr" || m == "jr" || m == "spawn" ||
         m == "join" || m == "halt";
}

bool drains(const std::string& m) {
  return m == "fence" || m == "join" || m == "halt";
}

}  // namespace

const char* mutantClassName(MutantClass c) {
  switch (c) {
    case MutantClass::kDropFence: return "drop-fence";
    case MutantClass::kHoistStoreAcrossPs: return "hoist-store-across-ps";
    case MutantClass::kBlockOutOfRegion: return "block-out-of-region";
    case MutantClass::kInRegionSpill: return "in-region-spill";
    case MutantClass::kUndefSpawnReg: return "undef-spawn-reg";
  }
  return "?";
}

std::vector<Mutant> generateMutants(const std::string& asmText) {
  std::vector<Mutant> out;
  // Mutants re-emit the raw lines verbatim; the assembler's tokenizer says
  // what each one is. tok[i] reads raw line i: no labels and no mnemonic
  // for blank and comment-only lines, and directives count as no
  // instruction.
  std::vector<std::string> lines;
  {
    std::istringstream in(asmText);
    std::string raw;
    while (std::getline(in, raw)) lines.push_back(std::move(raw));
  }
  const std::size_t n = lines.size();
  std::vector<AsmLine> tok(n);
  for (AsmLine& t : tokenizeAsm(asmText)) {
    if (!t.mnemonic.empty() && t.mnemonic[0] == '.') {
      t.mnemonic.clear();
      t.operands.clear();
    }
    tok[static_cast<std::size_t>(t.number - 1)] = std::move(t);
  }

  auto emit = [&](MutantClass cls, std::string desc,
                  std::vector<std::string> body) {
    out.push_back({cls, std::move(desc), render(body)});
  };

  // --- Fence mutants: straight-line swnb → fence → ps/psm chains. A label
  // or any control transfer resets the chain (the path is no longer
  // provably unique), and a second fence makes a single drop harmless.
  {
    std::ptrdiff_t swnbAt = -1, fenceAt = -1;
    int fencesSinceStore = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const AsmLine& l = tok[i];
      if (!l.labels.empty() || isControlFlow(l.mnemonic)) {
        swnbAt = -1;
        fenceAt = -1;
        fencesSinceStore = 0;
        continue;
      }
      if (l.mnemonic == "fence") {
        fenceAt = static_cast<std::ptrdiff_t>(i);
        ++fencesSinceStore;
        continue;
      }
      if (l.mnemonic == "swnb") {
        swnbAt = static_cast<std::ptrdiff_t>(i);
        fenceAt = -1;
        fencesSinceStore = 0;
        continue;
      }
      if ((l.mnemonic == "ps" || l.mnemonic == "psm") && swnbAt >= 0 &&
          fenceAt >= 0 && fencesSinceStore == 1) {
        std::vector<std::string> body(lines);
        body.erase(body.begin() + fenceAt);
        emit(MutantClass::kDropFence,
             "dropped fence (line " + std::to_string(fenceAt + 1) +
                 ") guarding '" + l.mnemonic + "'",
             std::move(body));

        body = lines;
        std::string store = body[static_cast<std::size_t>(swnbAt)];
        body.erase(body.begin() + swnbAt);
        body.insert(body.begin() + fenceAt, store);  // now after the fence
        emit(MutantClass::kHoistStoreAcrossPs,
             "hoisted swnb (line " + std::to_string(swnbAt + 1) +
                 ") across its fence, adjacent to '" + l.mnemonic + "'",
             std::move(body));
        swnbAt = -1;  // one mutant pair per chain
      }
    }
  }

  // --- Region mutants: operate on each spawn region.
  for (std::size_t si = 0; si < n; ++si) {
    if (tok[si].mnemonic != "spawn" || tok[si].operands.size() != 2)
      continue;
    std::ptrdiff_t start = -1, end = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (hasLabel(tok[i], tok[si].operands[0]))
        start = static_cast<std::ptrdiff_t>(i);
      if (hasLabel(tok[i], tok[si].operands[1]))
        end = static_cast<std::ptrdiff_t>(i);
    }
    if (start < 0 || end < 0 || start >= end) continue;
    const std::string tag = std::to_string(out.size());

    // Relocate the first plain in-region instruction past the region —
    // Fig. 9a reproduced at the text level. The relocated copy jumps back
    // so the mutant differs from the original only in layout.
    for (std::ptrdiff_t i = start + 1; i < end; ++i) {
      const AsmLine& l = tok[static_cast<std::size_t>(i)];
      if (l.mnemonic.empty() || isControlFlow(l.mnemonic) ||
          drains(l.mnemonic))
        continue;
      std::vector<std::string> body(lines);
      std::string moved = body[static_cast<std::size_t>(i)];
      body[static_cast<std::size_t>(i)] = "  j __mut_blk" + tag;
      body.insert(body.begin() + i + 1, "__mut_ret" + tag + ":");
      body.push_back("__mut_blk" + tag + ":");
      body.push_back(moved);
      body.push_back("  j __mut_ret" + tag);
      emit(MutantClass::kBlockOutOfRegion,
           "moved in-region instruction '" +
               moved.substr(moved.find_first_not_of(" \t")) +
               "' past the region (Fig. 9a layout)",
           std::move(body));
      break;
    }

    // Insert an sp-relative spill at the region entry.
    {
      std::vector<std::string> body(lines);
      body.insert(body.begin() + start + 1, "  sw t4, 0(sp)");
      emit(MutantClass::kInRegionSpill,
           "inserted 'sw t4, 0(sp)' at region entry (no parallel stack)",
           std::move(body));
    }

    // Read a register the program never mentions at the region entry: it
    // cannot be locally defined or a meaningful broadcast value.
    {
      static const char* kCandidates[] = {"t9", "t8", "t7", "t6", "s7",
                                          "s6", "s5", "s4", "s3", "s2"};
      std::string unused;
      for (const char* cand : kCandidates) {
        bool mentioned = false;
        for (const AsmLine& l : tok)
          for (const std::string& op : l.operands)
            if (op == cand || op.find(std::string(cand) + ")") !=
                                  std::string::npos)
              mentioned = true;
        if (!mentioned) {
          unused = cand;
          break;
        }
      }
      if (!unused.empty()) {
        std::vector<std::string> body(lines);
        body.insert(body.begin() + start + 1,
                    "  add " + unused + ", " + unused + ", " + unused);
        emit(MutantClass::kUndefSpawnReg,
             "read of never-defined register " + unused + " at region entry",
             std::move(body));
      }
    }
  }
  return out;
}

}  // namespace xmt::analysis
