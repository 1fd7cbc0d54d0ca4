// XMTC compiler driver: pre-pass (inlining, clustering, outlining), core
// pass (lowering, optimization, register allocation, emission), post-pass
// (verification and layout repair) — the three-stage structure of
// Section IV.
#pragma once

#include <string>
#include <vector>

#include "src/assembler/program.h"
#include "src/compiler/diag.h"

namespace xmt {

struct CompilerOptions {
  int optLevel = 1;               // 0 disables generic IR optimization
  bool nonBlockingStores = true;  // Section IV-C latency tolerance
  bool prefetch = true;           // compiler prefetching (ref. [8])
  int prefetchDepth = 4;          // outstanding prefetches per load group
  bool clusterThreads = false;    // virtual-thread clustering (Section IV-C)
  int clusterCount = 1024;        // coarsened thread count
  bool inlineParallel = true;     // inline calls inside spawn blocks
  bool outline = true;            // the CIL outlining pre-pass; disabling it
                                  // demonstrates the paper's illegal
                                  // dataflow (Fig. 8) — unsafe!
  bool layoutQuirk = false;       // mimic GCC's Fig. 9a layout bug
  bool postPass = true;           // verification + layout repair
  bool analyzeRaces = false;      // static spawn-region race lint (--analyze)
  bool werrorRace = false;        // promote race findings to CompileError
  // Value-range lints (xmtai abstract interpreter), default-on. They fire
  // only on provable or strictly-bounded facts, so a warning-free program
  // stays warning-free; disable with -Wno-xmt-* in the driver.
  bool lintBounds = true;         // -Wxmt-bounds: out-of-extent accesses
  bool lintDivZero = true;        // -Wxmt-div-zero: trapping divisions
  bool lintShift = true;          // -Wxmt-shift: shift amounts outside [0,31]
  bool lintPsDiscipline = true;   // -Wxmt-ps-discipline: non-positive ps
                                  // increments (interprocedural)
  bool verifyAsm = true;          // assembly-level legality verifier
                                  // (asmverify) on the final assembly
  bool werrorAsm = false;         // promote verifier findings to errors
};

struct CompileResult {
  std::string asmText;            // final assembly (after the post-pass)
  Program program;                // asmText assembled; srcLine indexes it
  std::string transformedSource;  // XMTC after the source-to-source passes
  int relocatedBlocks = 0;        // post-pass Fig. 9 repairs performed
  std::vector<Diagnostic> diagnostics;  // race-lint + asm-verifier findings
};

/// Compiles XMTC source to XMT assembly and assembles that text once; the
/// asm verifier checks the same `program` the result carries. Throws
/// CompileError / DiagnosticError, PostPassError from the post-pass, and
/// AsmError when the compiler's own output does not assemble (a compiler
/// bug: there is no xmt-asm-unassemblable warning for it).
CompileResult compileXmtc(const std::string& source,
                          const CompilerOptions& opts = {});

/// Compiles to a loadable program image: `compileXmtc(source, opts).program`.
Program compileToProgram(const std::string& source,
                         const CompilerOptions& opts = {});

}  // namespace xmt
