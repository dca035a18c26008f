//===- AccessInfo.h - affine access analysis of a statement -----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extracts the structure the paper's classifier and analytical model need
/// from a Func stage: the loop nest (pure and reduction variables with
/// extents) and every array access with per-dimension affine index
/// expressions `c0 + sum(ci * var_i)`. Keeping the indices unflattened is
/// precisely the information advantage the paper claims over the Halide
/// Auto-Scheduler ("unable to discern patterns in the source code",
/// Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CORE_ACCESSINFO_H
#define LTP_CORE_ACCESSINFO_H

#include "analysis/Affine.h"
#include "lang/Func.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ltp {

/// One array access (a load or the stage's store target).
struct ArrayAccess {
  std::string Buffer;
  bool IsOutput = false;
  /// True when the same indices are also written (self-reference of an
  /// update definition: the accumulator read-modify-write).
  bool IsSelfReference = false;
  std::vector<AffineIndex> Index; // dimension 0 (contiguous) first

  /// Set of loop variables appearing anywhere in the index.
  std::set<std::string> indexVars() const {
    std::set<std::string> Out;
    for (const AffineIndex &I : Index)
      for (const std::string &V : I.vars())
        Out.insert(V);
    return Out;
  }

  /// Order of first appearance of variables across dimensions
  /// (dimension 0 first); used by the transposition detector.
  std::vector<std::string> varOrder() const {
    std::vector<std::string> Out;
    std::set<std::string> Seen;
    for (const AffineIndex &I : Index)
      for (const std::string &V : I.vars())
        if (Seen.insert(V).second)
          Out.push_back(V);
    return Out;
  }

  /// True when \p Step iterations of loop \p Var leave the access in place
  /// or advance it by exactly one element of the contiguous dimension: the
  /// operand a vector loop over \p Var streams (or broadcasts).
  bool contiguousAlong(const std::string &Var, int64_t Step = 1) const;
};

/// One loop of the (untiled) nest with a concrete extent.
struct LoopInfo {
  std::string Name;
  int64_t Extent = 0;
  bool IsReduction = false;
};

/// Everything the classifier and the optimizers consume.
struct StageAccessInfo {
  /// Loops in default nesting order, innermost first (pure variables in
  /// argument order, then reduction variables).
  std::vector<LoopInfo> Loops;
  /// All distinct accesses; the store target is first and IsOutput.
  std::vector<ArrayAccess> Accesses;
  /// Element size of the output (the DTS model parameter).
  int64_t DTS = 4;
  /// True when the stage's reduction domain carries `where` predicates
  /// (triangular kernels); extents then overcount the true iteration
  /// space, which the model tolerates.
  bool HasPredicates = false;

  /// The variable indexing dimension 0 of the output (the "column" loop).
  std::string outputColumnVar() const;

  /// The loop the temporal optimizer streams innermost and vectorizes:
  /// the output's column loop when every access is contiguous along it,
  /// else a reduction loop every access is contiguous along (the output
  /// then stays put: a reduction into one element, `k` of syrk), else
  /// the output's column loop.
  std::string streamColumnVar() const;

  /// All variables that index dimension 0 of some access ("column index"
  /// loops, invalid outermost per Algorithm 2).
  std::set<std::string> columnVars() const;

  /// Input accesses only (excludes the output/store access).
  std::vector<const ArrayAccess *> inputs() const;
};

/// Analyzes stage \p StageIndex (-1 = pure) of \p F realized over
/// \p OutputExtents. Reduction extents must be compile-time constants
/// (predicated domains are supported; variable bounds are clamped to the
/// full extent and flagged via HasPredicates).
StageAccessInfo analyzeStage(const Func &F, int StageIndex,
                             const std::vector<int64_t> &OutputExtents);

/// Analyzes the stage that dominates the computation: the last update when
/// updates exist, the pure stage otherwise.
StageAccessInfo analyzeComputeStage(const Func &F,
                                    const std::vector<int64_t> &OutputExtents);

} // namespace ltp

#endif // LTP_CORE_ACCESSINFO_H
