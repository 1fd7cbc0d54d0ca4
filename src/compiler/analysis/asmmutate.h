// Fault-injection mutation harness for the assembly-level verifier.
//
// The verifier (asmverify) is validated in two directions: a meta-oracle
// (everything the driver accepts must verify clean) and this harness, which
// perturbs *verified* assembly into programs that are guaranteed to violate
// one Section IV-A rule each, and asserts the verifier flags every mutant.
// Mutations are conservative text surgery: a mutant is only emitted when
// the surrounding code proves the perturbation introduces a violation
// (e.g. a fence is only dropped when a straight-line swnb → fence → ps/psm
// chain shows the fence is load-bearing), so "mutant not flagged" always
// means a verifier bug, never an equivalent mutant. Lines are classified by
// the assembler's tokenizer (tokenizeAsm) and re-emitted verbatim.
#pragma once

#include <string>
#include <vector>

namespace xmt::analysis {

enum class MutantClass {
  kDropFence,           // delete the fence guarding a later ps/psm
  kHoistStoreAcrossPs,  // move a swnb across its fence, next to the ps
  kBlockOutOfRegion,    // relocate an in-region instruction past the region
  kInRegionSpill,       // insert an sp-relative spill inside the region
  kUndefSpawnReg,       // in-region read of a never-written register
};

const char* mutantClassName(MutantClass c);

struct Mutant {
  MutantClass cls;
  std::string description;  // what was perturbed, for harness reports
  std::string asmText;
};

/// Generates every applicable mutant of `asmText`. Classes whose trigger
/// pattern does not occur in the input produce no mutants (e.g. a program
/// with no prefix-sums yields no fence mutants); harnesses aggregate over
/// a corpus to cover all classes.
std::vector<Mutant> generateMutants(const std::string& asmText);

}  // namespace xmt::analysis
