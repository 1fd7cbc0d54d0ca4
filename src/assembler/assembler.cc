#include "src/assembler/assembler.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include "src/common/error.h"

namespace xmt {

std::size_t Program::textIndex(std::uint32_t addr) const {
  if (addr < kTextBase || (addr - kTextBase) % 4 != 0)
    throw SimError("bad instruction address 0x" + std::to_string(addr));
  std::size_t idx = (addr - kTextBase) / 4;
  if (idx >= text.size())
    throw SimError("instruction address out of range");
  return idx;
}

const Symbol& Program::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  if (it == symbols.end()) throw AsmError("undefined symbol '" + name + "'");
  return it->second;
}

bool Program::hasSymbol(const std::string& name) const {
  return symbols.count(name) != 0;
}

namespace {

// Splits an assembly operand list on commas, respecting quoted strings.
std::vector<std::string> splitOperands(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  bool inStr = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (inStr) {
      cur += c;
      if (c == '\\' && i + 1 < s.size()) cur += s[++i];
      else if (c == '"') inStr = false;
      continue;
    }
    if (c == '"') { inStr = true; cur += c; continue; }
    if (c == ',') { out.push_back(cur); cur.clear(); continue; }
    cur += c;
  }
  if (!cur.empty()) out.push_back(cur);
  // Trim each piece.
  for (auto& p : out) {
    std::size_t b = 0, e = p.size();
    while (b < e && std::isspace(static_cast<unsigned char>(p[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(p[e - 1]))) --e;
    p = p.substr(b, e - b);
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}
bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '$';
}

// Strips comments (# or ;) outside of strings.
std::string stripComment(const std::string& raw) {
  std::string out;
  bool inStr = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (inStr) {
      out += c;
      if (c == '\\' && i + 1 < raw.size()) out += raw[++i];
      else if (c == '"') inStr = false;
      continue;
    }
    if (c == '"') { inStr = true; out += c; continue; }
    if (c == '#' || c == ';') break;
    out += c;
  }
  return out;
}

}  // namespace

std::vector<AsmLine> tokenizeAsm(const std::string& source) {
  std::vector<AsmLine> lines;
  std::istringstream in(source);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string s = stripComment(raw);
    AsmLine line;
    line.number = lineno;
    std::size_t i = 0;
    auto skipWs = [&] {
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    };
    // Labels: ident ':'
    for (;;) {
      skipWs();
      std::size_t save = i;
      if (i < s.size() && isIdentStart(s[i])) {
        std::size_t j = i;
        while (j < s.size() && isIdentChar(s[j])) ++j;
        std::size_t k = j;
        while (k < s.size() && std::isspace(static_cast<unsigned char>(s[k])))
          ++k;
        if (k < s.size() && s[k] == ':') {
          line.labels.push_back(s.substr(i, j - i));
          i = k + 1;
          continue;
        }
      }
      i = save;
      break;
    }
    skipWs();
    if (i < s.size()) {
      std::size_t j = i;
      while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j])))
        ++j;
      line.mnemonic = s.substr(i, j - i);
      line.operands = splitOperands(s.substr(j));
    }
    if (!line.labels.empty() || !line.mnemonic.empty())
      lines.push_back(std::move(line));
  }
  return lines;
}

namespace {

std::int64_t parseIntValue(const std::string& s, int lineno) {
  const char* c = s.c_str();
  char* end = nullptr;
  long long v = std::strtoll(c, &end, 0);
  if (end == c || *end != '\0')
    throw AsmError(lineno, "bad integer '" + s + "'");
  return v;
}

// The boundary of `.align n`: 2^n bytes. n is limited to [0, 16]: a shift
// by a negative n or one of 32 or more is undefined, and an alignment past
// 64 KiB would only pad the data segment.
constexpr std::int64_t kMaxAlignLog2 = 16;

std::uint32_t alignBoundary(const AsmLine& line) {
  if (line.operands.size() != 1)
    throw AsmError(line.number, ".align needs one operand");
  auto n = parseIntValue(line.operands[0], line.number);
  if (n < 0 || n > kMaxAlignLog2)
    throw AsmError(line.number, ".align exponent " + std::to_string(n) +
                                    " is outside [0, " +
                                    std::to_string(kMaxAlignLog2) + "]");
  return 1u << n;
}

std::uint32_t parseWordValue(const std::string& s, int lineno) {
  if (!s.empty() && (s.back() == 'f' || s.back() == 'F') &&
      s.find('.') != std::string::npos) {
    float f = std::strtof(s.c_str(), nullptr);
    std::uint32_t bits;
    std::memcpy(&bits, &f, 4);
    return bits;
  }
  return static_cast<std::uint32_t>(parseIntValue(s, lineno));
}

std::string parseStringLiteral(const std::string& s, int lineno) {
  if (s.size() < 2 || s.front() != '"' || s.back() != '"')
    throw AsmError(lineno, "expected string literal");
  std::string out;
  for (std::size_t i = 1; i + 1 < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 2 < s.size() + 1) {
      char n = s[++i];
      switch (n) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case '0': out += '\0'; break;
        case '\\': out += '\\'; break;
        case '"': out += '"'; break;
        default: out += n; break;
      }
    } else {
      out += c;
    }
  }
  return out;
}

class AssemblerImpl {
 public:
  explicit AssemblerImpl(const std::string& source)
      : lines_(tokenizeAsm(source)) {}

  Program run() {
    pass1();
    pass2();
    finalize();
    return std::move(prog_);
  }

 private:
  enum class Seg { kText, kData };

  // Pass 1: lay out segments and record symbol addresses.
  void pass1() {
    Seg seg = Seg::kText;
    std::uint32_t textAddr = kTextBase;
    std::uint32_t dataAddr = kDataBase;
    auto defineLabels = [&](const AsmLine& line) {
      std::uint32_t addr = (seg == Seg::kText) ? textAddr : dataAddr;
      for (const auto& lbl : line.labels) {
        if (prog_.symbols.count(lbl))
          throw AsmError(line.number, "duplicate label '" + lbl + "'");
        Symbol sym;
        sym.addr = addr;
        sym.isText = (seg == Seg::kText);
        prog_.symbols[lbl] = sym;
      }
    };
    for (const auto& line : lines_) {
      if (line.mnemonic == ".text") { seg = Seg::kText; defineLabels(line); continue; }
      if (line.mnemonic == ".data") { seg = Seg::kData; defineLabels(line); continue; }
      defineLabels(line);
      if (line.mnemonic.empty()) continue;
      if (line.mnemonic[0] == '.') {
        std::uint32_t grow = directiveSize(line, seg, dataAddr);
        if (seg == Seg::kData)
          dataAddr += grow;
        else if (grow != 0)
          throw AsmError(line.number, "data directive in .text segment");
        continue;
      }
      // Every instruction, pseudo-instructions included, is one word.
      if (seg != Seg::kText)
        throw AsmError(line.number, "instruction in .data segment");
      textAddr += 4;
    }
    fixDataSymbolSizes(dataAddr);
    dataSize_ = dataAddr - kDataBase;
  }

  void fixDataSymbolSizes(std::uint32_t dataEnd) {
    // Deterministic extents: size of each data symbol = gap to the next data
    // symbol address (or segment end). More robust than incremental growth
    // when several labels alias the same address.
    std::vector<std::pair<std::uint32_t, std::string>> datasyms;
    for (auto& [name, sym] : prog_.symbols)
      if (!sym.isText) datasyms.emplace_back(sym.addr, name);
    std::sort(datasyms.begin(), datasyms.end());
    for (std::size_t i = 0; i < datasyms.size(); ++i) {
      std::uint32_t end =
          (i + 1 < datasyms.size()) ? datasyms[i + 1].first : dataEnd;
      auto& sym = prog_.symbols[datasyms[i].second];
      sym.size = end - sym.addr;
    }
  }

  // Returns byte growth of the data segment for a directive (pass 1).
  std::uint32_t directiveSize(const AsmLine& line, Seg seg,
                              std::uint32_t dataAddr) {
    const std::string& d = line.mnemonic;
    if (d == ".global") {
      if (line.operands.size() != 1)
        throw AsmError(line.number, ".global needs one symbol");
      globals_.push_back(line.operands[0]);
      return 0;
    }
    if (d == ".word" || d == ".float")
      return static_cast<std::uint32_t>(4 * line.operands.size());
    if (d == ".space") {
      if (line.operands.size() != 1)
        throw AsmError(line.number, ".space needs one operand");
      auto n = parseIntValue(line.operands[0], line.number);
      if (n < 0) throw AsmError(line.number, ".space with negative size");
      return static_cast<std::uint32_t>(n);
    }
    if (d == ".align") {
      std::uint32_t a = alignBoundary(line);
      std::uint32_t aligned = (dataAddr + a - 1) & ~(a - 1);
      return aligned - dataAddr;
    }
    if (d == ".asciiz") {
      if (line.operands.size() != 1)
        throw AsmError(line.number, ".asciiz needs one string");
      return static_cast<std::uint32_t>(
          parseStringLiteral(line.operands[0], line.number).size() + 1);
    }
    if (seg == Seg::kData || d == ".text" || d == ".data") return 0;
    throw AsmError(line.number, "unknown directive '" + d + "'");
  }

  std::int32_t resolveValue(const std::string& s, int lineno) {
    if (s.empty()) throw AsmError(lineno, "empty operand");
    if (isIdentStart(s[0]) && parseReg(s) < 0) {
      auto it = prog_.symbols.find(s);
      if (it == prog_.symbols.end())
        throw AsmError(lineno, "undefined symbol '" + s + "'");
      return static_cast<std::int32_t>(it->second.addr);
    }
    return static_cast<std::int32_t>(parseIntValue(s, lineno));
  }

  int reqReg(const std::string& s, int lineno) {
    int r = parseReg(s);
    if (r < 0) throw AsmError(lineno, "bad register '" + s + "'");
    return r;
  }

  // Parses "imm(rs)" or "sym(rs)" or "sym" (rs = zero).
  void parseMemOperand(const std::string& s, int lineno, Instruction& in) {
    auto lp = s.find('(');
    if (lp == std::string::npos) {
      in.imm = resolveValue(s, lineno);
      in.rs = kZero;
      return;
    }
    auto rp = s.rfind(')');
    if (rp == std::string::npos || rp < lp)
      throw AsmError(lineno, "bad memory operand '" + s + "'");
    std::string off = s.substr(0, lp);
    std::string base = s.substr(lp + 1, rp - lp - 1);
    in.imm = off.empty() ? 0 : resolveValue(off, lineno);
    in.rs = static_cast<std::uint8_t>(reqReg(base, lineno));
  }

  void pass2() {
    prog_.data.assign(dataSize_, 0);
    Seg seg = Seg::kText;
    std::uint32_t dataAddr = kDataBase;
    for (const auto& line : lines_) {
      if (line.mnemonic.empty()) continue;
      if (line.mnemonic == ".text") { seg = Seg::kText; continue; }
      if (line.mnemonic == ".data") { seg = Seg::kData; continue; }
      if (line.mnemonic[0] == '.') {
        emitDirective(line, seg, dataAddr);
        continue;
      }
      emitInstruction(line);
    }
  }

  void emitDirective(const AsmLine& line, Seg seg, std::uint32_t& dataAddr) {
    const std::string& d = line.mnemonic;
    auto putWord = [&](std::uint32_t w) {
      std::size_t off = dataAddr - kDataBase;
      XMT_CHECK(off + 4 <= prog_.data.size());
      std::memcpy(prog_.data.data() + off, &w, 4);
      dataAddr += 4;
    };
    if (d == ".word") {
      for (const auto& opnd : line.operands) {
        if (!opnd.empty() && isIdentStart(opnd[0]) && parseReg(opnd) < 0)
          putWord(static_cast<std::uint32_t>(resolveValue(opnd, line.number)));
        else
          putWord(parseWordValue(opnd, line.number));
      }
    } else if (d == ".float") {
      for (const auto& opnd : line.operands) {
        float f = std::strtof(opnd.c_str(), nullptr);
        std::uint32_t bits;
        std::memcpy(&bits, &f, 4);
        putWord(bits);
      }
    } else if (d == ".space") {
      dataAddr += static_cast<std::uint32_t>(
          parseIntValue(line.operands[0], line.number));
    } else if (d == ".align") {
      std::uint32_t a = alignBoundary(line);
      dataAddr = (dataAddr + a - 1) & ~(a - 1);
    } else if (d == ".asciiz") {
      std::string s = parseStringLiteral(line.operands[0], line.number);
      std::size_t off = dataAddr - kDataBase;
      XMT_CHECK(off + s.size() + 1 <= prog_.data.size());
      std::memcpy(prog_.data.data() + off, s.data(), s.size());
      prog_.data[off + s.size()] = 0;
      dataAddr += static_cast<std::uint32_t>(s.size() + 1);
    }
    (void)seg;
  }

  void emitInstruction(const AsmLine& line) {
    std::string mn = line.mnemonic;
    std::vector<std::string> ops = line.operands;
    // Pseudo-instruction expansion.
    if (mn == "b") { mn = "j"; }
    else if (mn == "beqz") { mn = "beq"; ops.insert(ops.begin() + 1, "zero"); }
    else if (mn == "bnez") { mn = "bne"; ops.insert(ops.begin() + 1, "zero"); }
    else if (mn == "neg") { mn = "sub"; ops.insert(ops.begin() + 1, "zero"); }
    else if (mn == "not") { mn = "nor"; ops.push_back("zero"); }

    Op op = opByName(mn);
    if (op == Op::kOpCount)
      throw AsmError(line.number, "unknown instruction '" + mn + "'");
    const OpInfo& info = opInfo(op);
    Instruction in;
    in.op = op;
    in.srcLine = line.number;
    auto need = [&](std::size_t n) {
      if (ops.size() != n)
        throw AsmError(line.number, mn + " expects " + std::to_string(n) +
                                        " operands");
    };
    switch (info.format) {
      case OpFormat::kR3:
        need(3);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.rs = static_cast<std::uint8_t>(reqReg(ops[1], line.number));
        in.rt = static_cast<std::uint8_t>(reqReg(ops[2], line.number));
        break;
      case OpFormat::kR2I:
        need(3);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.rs = static_cast<std::uint8_t>(reqReg(ops[1], line.number));
        in.imm = resolveValue(ops[2], line.number);
        break;
      case OpFormat::kRI:
        need(2);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.imm = resolveValue(ops[1], line.number);
        break;
      case OpFormat::kRL:
        need(2);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.imm = resolveValue(ops[1], line.number);
        break;
      case OpFormat::kR2:
        need(2);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.rs = static_cast<std::uint8_t>(reqReg(ops[1], line.number));
        break;
      case OpFormat::kMem:
        if (op == Op::kPref) {  // pref has no register operand
          need(1);
          in.rt = kZero;
          parseMemOperand(ops[0], line.number, in);
          break;
        }
        need(2);
        in.rt = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        parseMemOperand(ops[1], line.number, in);
        break;
      case OpFormat::kBr2:
        need(3);
        in.rs = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        in.rt = static_cast<std::uint8_t>(reqReg(ops[1], line.number));
        in.imm = resolveValue(ops[2], line.number);
        break;
      case OpFormat::kJump:
        need(1);
        in.imm = resolveValue(ops[0], line.number);
        break;
      case OpFormat::kR1:
        need(1);
        in.rs = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        break;
      case OpFormat::kR1L:
        need(2);
        break;
      case OpFormat::kGr: {
        need(2);
        in.rd = static_cast<std::uint8_t>(reqReg(ops[0], line.number));
        const std::string& g = ops[1];
        if (g.size() < 3 || g.compare(0, 2, "gr") != 0)
          throw AsmError(line.number, "expected global register grN");
        // The suffix must be fully numeric: atoi would quietly turn "grx"
        // into gr0 and "gr1junk" into gr1.
        int n = 0;
        for (std::size_t i = 2; i < g.size(); ++i) {
          char c = g[i];
          if (!std::isdigit(static_cast<unsigned char>(c)))
            throw AsmError(line.number,
                           "bad global register '" + g + "': expected grN");
          n = n * 10 + (c - '0');
          if (n >= kNumGlobalRegs)
            throw AsmError(line.number, "global register out of range");
        }
        in.rt = static_cast<std::uint8_t>(n);
        break;
      }
      case OpFormat::kSpawn:
        need(2);
        in.imm = resolveValue(ops[0], line.number);
        in.imm2 = resolveValue(ops[1], line.number);
        break;
      case OpFormat::kImm:
        need(1);
        in.imm = resolveValue(ops[0], line.number);
        break;
      case OpFormat::kNone:
        need(0);
        break;
    }
    prog_.text.push_back(in);
  }

  void finalize() {
    for (const auto& g : globals_) {
      auto it = prog_.symbols.find(g);
      if (it == prog_.symbols.end())
        throw AsmError(".global for undefined symbol '" + g + "'");
      it->second.isGlobal = true;
    }
    if (prog_.hasSymbol("main")) {
      const Symbol& m = prog_.symbol("main");
      if (!m.isText) throw AsmError("'main' is not a text symbol");
      prog_.entry = m.addr;
    }
  }

  std::vector<AsmLine> lines_;
  Program prog_;
  std::vector<std::string> globals_;
  std::uint32_t dataSize_ = 0;
};

}  // namespace

Program assemble(const std::string& source) {
  return AssemblerImpl(source).run();
}

}  // namespace xmt
