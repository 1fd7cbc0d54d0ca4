// Compiler post-pass (the SableCC stage of the paper, Section IV-B).
//
// Takes the assembly produced by the core pass, verifies it complies with
// XMT semantics, and repairs the basic-block layout problem of Fig. 9: all
// code of a spawn block must be placed between the spawn and join
// instructions, because the hardware broadcasts exactly that range to the
// TCUs. A basic block that is reachable from the spawn-block entry but laid
// out outside the region is relocated to just before the join, with an
// explicit jump inserted so the preceding code still reaches the join
// (Fig. 9b). The text is read with the assembler's tokenizer (tokenizeAsm),
// so the post-pass accepts exactly the syntax `assemble` does; the output
// is re-rendered one label or statement per line, without comments.
#pragma once

#include <string>

#include "src/compiler/diag.h"

namespace xmt {

struct PostPassReport {
  std::string asmText;     // verified / repaired assembly
  int relocatedBlocks = 0; // how many misplaced blocks were pulled back
  int regionsChecked = 0;
};

/// A post-pass verification failure carrying the structured finding:
/// Diagnostic::line is the assembly line of the offending instruction and
/// Diagnostic::symbol names the spawn-region start label when the failure
/// is attributable to one region. Derives AsmError so existing catch sites
/// keep working.
class PostPassError : public AsmError {
 public:
  explicit PostPassError(Diagnostic d)
      : AsmError(d.line, d.message + " [" + diagCodeTag(d.code) + "]"),
        diag_(std::move(d)) {}
  const Diagnostic& diag() const { return diag_; }
  DiagCode code() const { return diag_.code; }

 private:
  Diagnostic diag_;
};

/// Verifies and repairs assembly text. Throws PostPassError when the layout
/// cannot be repaired or other XMT rules are violated (nested spawn inside
/// a region, missing join, halt inside a region).
PostPassReport runPostPass(const std::string& asmText);

}  // namespace xmt
