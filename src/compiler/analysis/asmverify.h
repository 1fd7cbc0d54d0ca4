// Assembly-level XMT legality and memory-model verifier.
//
// The paper's post-pass (Section IV-B) is supposed to *verify* that emitted
// assembly complies with XMT semantics; runPostPass only repairs basic-block
// layout. This pass closes the gap: it works on the decoded Instruction
// records of the post-pass output (the Program the driver assembled once,
// not pattern-matched text), builds a machine-code CFG over the text
// segment, and runs dataflow over *physical* registers to check the rules
// of Section IV-A at the level the hardware sees:
//
//   1. Every path to a `ps`/`psm` with an outstanding non-blocking store
//      carries a `fence` (the prefix-sum unit does not order against the
//      store queue). `sw`/`sb` block until acknowledged and never go dirty;
//      `join` and `halt` drain the store queue and act as implicit fences —
//      exactly the cycle model's behaviour. The paper-strict reading (no
//      swnb outstanding at join/spawn either) is available behind
//      AsmVerifyOptions::strictJoinFence.
//   2. All control flow of a spawn region stays inside [start, end): every
//      branch target and every fall-through of a reachable in-region
//      instruction must land in the region, and each path must end at a
//      `join`. This is an independent oracle for the Fig. 9 layout repair —
//      the TCUs fetch only the broadcast range and trap outside it.
//   3. No spawn/halt/jal/jalr/jr inside a region (no nesting, no calls, no
//      parallel-mode halt) and no reference to `sp` (there is no parallel
//      stack; spills inside regions are illegal).
//   4. Every register read inside a region is locally defined on all paths,
//      a master-defined broadcast value (the spawn hardware copies the
//      master register file to every TCU), or a TCU-local special
//      (tid/zero).
//   5. No register written inside a region is consumed by the serial
//      continuation: TCU register files are discarded at join, so such a
//      write is the Fig. 8 lost-update bug (caught at the machine level,
//      which covers `outline=false` compilations that bypass the IR check).
//
// The verifier only reports; it never mutates the assembly. It must accept
// every program the driver accepts (meta-oracle: all registry workloads at
// every opt level/option combo, plus the fuzz corpus, verify clean) and
// flag every class of the asmmutate fault-injection harness.
#pragma once

#include <string>
#include <vector>

#include "src/assembler/program.h"
#include "src/compiler/diag.h"

namespace xmt::analysis {

struct AsmVerifyOptions {
  // Paper-strict Section IV-A: also require the store queue to be empty at
  // `join` and `spawn`. The hardware drains outstanding swnb at both, so
  // the relaxed default matches the cycle model (and the compiler, which
  // relies on the implicit drain at join).
  bool strictJoinFence = false;
  // Flag only the spawn half of the strict rule: an swnb possibly
  // outstanding when `spawn` broadcasts. This is the master-side window
  // that outlined codegen hides from the drop-fence fault injection
  // (DESIGN.md section 8.5): the spawn helper contains no stores, so no
  // fence is ever emitted there and the relaxed verifier clears the dirty
  // bit at spawn. The narrow knob lets the fuzzer assert the window is
  // fenced without also requiring fences before every join.
  bool strictSpawnFence = false;
};

/// Verifies an assembled program. Returns one Diagnostic per finding
/// (severity kWarning; callers promote under -Werror-asm).
/// Diagnostic::line is the assembly source line (Instruction::srcLine).
/// The compiler driver calls this on the Program it assembled once from
/// its final text (CompileResult::program).
std::vector<Diagnostic> verifyAssembly(const Program& prog,
                                       const AsmVerifyOptions& opts = {});

/// Assembles `asmText` and verifies the result: the form for text the
/// compiler did not produce (hand-written assembly, mutants). Never throws
/// on malformed input: text that does not assemble yields a single
/// kAsmUnassemblable finding.
std::vector<Diagnostic> verifyAssembly(const std::string& asmText,
                                       const AsmVerifyOptions& opts = {});

}  // namespace xmt::analysis
