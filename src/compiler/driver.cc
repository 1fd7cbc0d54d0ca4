#include "src/compiler/driver.h"

#include <iterator>

#include "src/assembler/assembler.h"
#include "src/compiler/analysis/asmverify.h"
#include "src/compiler/analysis/racecheck.h"
#include "src/compiler/analysis/xmtai.h"
#include "src/compiler/emit.h"
#include "src/compiler/lower.h"
#include "src/compiler/opt.h"
#include "src/compiler/parser.h"
#include "src/compiler/postpass.h"
#include "src/compiler/regalloc.h"
#include "src/compiler/sema.h"
#include "src/compiler/transforms.h"

namespace xmt {

CompileResult compileXmtc(const std::string& source,
                          const CompilerOptions& opts) {
  auto tu = parse(source);
  analyze(*tu);

  // Source-to-source pre-passes (the CIL stage).
  if (opts.inlineParallel) inlineParallelCalls(*tu);
  if (opts.clusterThreads) clusterVirtualThreads(*tu, opts.clusterCount);
  if (opts.outline) outlineSpawnBlocks(*tu);

  CompileResult res;
  res.transformedSource = printAst(*tu);

  analysis::AiConfig aiCfg;
  aiCfg.bounds = opts.lintBounds;
  aiCfg.divZero = opts.lintDivZero;
  aiCfg.shift = opts.lintShift;
  aiCfg.psDiscipline = opts.lintPsDiscipline;
  if (opts.analyzeRaces || aiCfg.any()) {
    // The lints run on a fresh, un-clustered, un-outlined lowering:
    // clustering rewrites $ into a loop variable and outlining hides frame
    // accesses behind pointer parameters, both of which would degrade the
    // address classification to Unknown. The IR is left unoptimized so
    // source lines map 1:1 onto accesses. Race lint and value lints share
    // one lowering and one set of interprocedural summaries.
    auto lintTu = parse(source);
    analyze(*lintTu);
    if (opts.inlineParallel) inlineParallelCalls(*lintTu);
    IrModule lintMod = lowerToIr(*lintTu);
    res.diagnostics =
        analysis::runModuleAnalysis(lintMod, opts.analyzeRaces, aiCfg);
    if (opts.werrorRace) {
      for (const Diagnostic& d : res.diagnostics) {
        if (!isRaceDiag(d)) continue;
        Diagnostic err = d;
        err.severity = Severity::kError;
        throw DiagnosticError(std::move(err));
      }
    }
  }

  // Core pass.
  IrModule mod = lowerToIr(*tu);
  std::vector<FrameInfo> frames;
  frames.reserve(mod.funcs.size());
  for (auto& fn : mod.funcs) {
    optimizeIr(fn, opts.optLevel);
    if (opts.nonBlockingStores) applyNonBlockingStores(fn);
    if (opts.prefetch) insertPrefetches(fn, opts.prefetchDepth);
    if (opts.outline) verifyParallelDataflow(fn);
    frames.push_back(allocateRegisters(fn));
  }
  res.asmText = emitAssembly(mod, frames, opts.layoutQuirk);

  // Post-pass.
  if (opts.postPass) {
    PostPassReport rep = runPostPass(res.asmText);
    res.asmText = std::move(rep.asmText);
    res.relocatedBlocks = rep.relocatedBlocks;
  }

  // The final text is assembled exactly once. The assembly-level legality
  // verifier checks that image, after any layout repair, against the
  // Section IV-A machine rules, and the result carries it to the caller.
  res.program = assemble(res.asmText);
  if (opts.verifyAsm) {
    std::vector<Diagnostic> vds = analysis::verifyAssembly(res.program);
    if (opts.werrorAsm && !vds.empty()) {
      Diagnostic err = vds.front();
      err.severity = Severity::kError;
      throw DiagnosticError(std::move(err));
    }
    res.diagnostics.insert(res.diagnostics.end(),
                           std::make_move_iterator(vds.begin()),
                           std::make_move_iterator(vds.end()));
  }
  return res;
}

Program compileToProgram(const std::string& source,
                         const CompilerOptions& opts) {
  return compileXmtc(source, opts).program;
}

}  // namespace xmt
