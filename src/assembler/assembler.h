// Two-pass assembler for XMT assembly text.
//
// This is the C++ counterpart of the SableCC-generated front-end the paper
// describes: it reads an assembly file and instantiates instruction objects
// for the simulator. Directives:
//
//   .text / .data          switch segment
//   label:                 define a label in the current segment
//   .global name           export `name` to the host / memory-map interface
//   .word v, v, ...        emit 32-bit words (values or symbol names)
//   .float v, v, ...       emit 32-bit IEEE-754 floats
//   .space n               reserve n zero bytes
//   .align n               align to 2^n bytes (0 <= n <= 16)
//   .asciiz "text"         NUL-terminated string with C escapes
//
// Pseudo-instructions expanded by the assembler: b, beqz, bnez, neg, not.
// Branch/jump targets and `la` resolve to absolute byte addresses.
#pragma once

#include <string>
#include <vector>

#include "src/assembler/program.h"

namespace xmt {

/// One non-blank line of assembly as the assembler reads it: comments (`#`
/// or `;`, outside string literals) are stripped, leading `label:`s are
/// split off, and the rest is a mnemonic (directive or instruction) with
/// comma-separated, trimmed operands. Label-only lines have an empty
/// mnemonic. This is the only reader of assembly text; the compiler
/// post-pass and the asmverify mutation harness work on its output.
struct AsmLine {
  int number = 0;  // 1-based line in the source text
  std::vector<std::string> labels;
  std::string mnemonic;
  std::vector<std::string> operands;
};

/// Tokenizes `source` into its non-blank lines. Never throws.
std::vector<AsmLine> tokenizeAsm(const std::string& source);

/// Assembles `source` into a program image. Throws AsmError with a line
/// number on any syntax or resolution failure.
Program assemble(const std::string& source);

}  // namespace xmt
