//===- TemporalOptimizer.h - temporal-reuse optimizer (Algorithm 2) -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2: picks tile sizes that achieve L1 reuse at the outermost
/// intra-tile loop and L2 reuse at the innermost inter-tile loop, with
/// tile bounds from the cache-emulation Algorithm 1, working-set fit
/// checks, and the parallelism constraint of Eq. 13; then a second step
/// orders the loop nest to minimize the inter/intra-tile distance cost
/// `Corder` (Eq. 12) and fuses the outer inter-tile loops when profitable.
///
/// Search-space note (documented in DESIGN.md): `Ctotal` (Eq. 11) depends
/// on a permutation pair only through the outermost intra-tile loop (CL1)
/// and the innermost inter-tile loop (CL2) — footprints are sets, not
/// sequences. Step 1 therefore enumerates (pivot-pair x tile-size)
/// combinations instead of full permutation pairs, which is exactly the
/// paper's search with the redundant permutations collapsed; Step 2
/// enumerates the full permutations consistent with the chosen pivots to
/// minimize Corder, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CORE_TEMPORALOPTIMIZER_H
#define LTP_CORE_TEMPORALOPTIMIZER_H

#include "arch/ArchParams.h"
#include "core/AccessInfo.h"
#include "model/NestScorer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ltp {

/// Tuning knobs of the search (defaults reproduce the paper's setup).
struct TemporalOptions {
  /// Loops with extent <= this are neither tiled nor permuted (stencil
  /// taps such as 3x3 windows); they stay intra-tile at full extent.
  int64_t SmallLoopExtent = 8;
  /// Maximum number of tile-size candidates per dimension.
  int MaxCandidatesPerDim = 10;
  /// Disable the prefetch adjustment of the miss model (ablation (a)).
  bool PrefetchUnawareModel = false;
  /// Disable the L2 effective-set halving in Algorithm 1 (ablation (b)).
  bool NoL2SetHalving = false;
  /// Skip the Corder reorder step and keep a default order (ablation (c)).
  bool SkipReorderStep = false;
  /// Ignore the Eq. 13 parallelism constraint (ablation (d)).
  bool IgnoreParallelConstraint = false;
};

/// The schedule Algorithm 2 produces.
struct TemporalSchedule {
  /// Tile size per original loop (== extent means untiled).
  TileMap Tiles;
  /// Intra-tile loop order, innermost first (original loop names).
  std::vector<std::string> IntraOrder;
  /// Inter-tile loop order, innermost first; loops tiled at full extent
  /// are omitted (their inter loop has a single iteration).
  std::vector<std::string> InterOrder;
  /// Loop whose inter-tile incarnation is parallelized ("" = none).
  std::string ParallelVar;
  /// Fuse the two outermost inter-tile loops before parallelizing.
  bool FuseOuterInter = false;
  /// Column loop vectorized at this width (0 = no vectorization).
  std::string VectorVar;
  int VectorWidth = 0;
  /// Outermost intra-tile loop register-tiled (unroll-and-jam) at this
  /// factor when reuse analysis finds register-carried reuse: the output
  /// advances with the loop while some vectorized input operand does not,
  /// so jamming keeps that operand's vector load and the per-copy
  /// accumulators in registers across the intervening reduction loops
  /// (matmul/syrk/trmm). Empty/0 = no register tiling.
  std::string UnrollJamVar;
  int UnrollJamFactor = 0;
  /// Model outputs for introspection and tests.
  double Cost = 0.0;
  double OrderCostValue = 0.0;
  int64_t MaxT1 = 0;
  int64_t MaxT2 = 0;
  int64_t WsL1 = 0;
  int64_t WsL2 = 0;
};

/// Runs Algorithm 2 on the analyzed stage.
TemporalSchedule optimizeTemporal(const StageAccessInfo &Info,
                                  const ArchParams &Arch,
                                  const TemporalOptions &Options = {});

/// Applies \p Schedule to stage \p StageIndex of \p F as scheduling
/// directives (split/reorder/fuse/parallel/vectorize).
void applyTemporalSchedule(Func &F, int StageIndex,
                           const TemporalSchedule &Schedule,
                           const StageAccessInfo &Info);

/// Renders the schedule as a human-readable Halide-style string.
std::string describeTemporalSchedule(const TemporalSchedule &Schedule);

} // namespace ltp

#endif // LTP_CORE_TEMPORALOPTIMIZER_H
