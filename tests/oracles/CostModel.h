//===- CostModel.h - map-based miss model oracle (Eqs. 1-11) ----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analytical model of Section 3.2 written directly over TileMaps, one
/// equation per function, the way DESIGN.md derives it. It is the test
/// oracle for `model::NestScorer`, the dense implementation the optimizer
/// and the baselines run: `NestScorerParity` holds the two bit-exact on
/// random candidates, and CostModelTest checks this formulation against
/// the paper's worked matmul equations. Linked only into tests.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_TESTS_ORACLES_COSTMODEL_H
#define LTP_TESTS_ORACLES_COSTMODEL_H

#include "arch/ArchParams.h"
#include "core/AccessInfo.h"
#include "model/NestScorer.h"

#include <cstdint>
#include <string>

namespace ltp {

/// Footprint extent of one array dimension over the loops in \p Tiles
/// (loops absent from the map contribute nothing).
int64_t footprintDimExtent(const AffineIndex &Index, const TileMap &Tiles);

/// Prefetch-adjusted cold misses of the footprint of \p Access over the
/// loops in \p Tiles: the number of distinct contiguous segments, i.e. the
/// product of the extents of every non-column dimension (the column
/// dimension's run is covered by the next-line prefetcher).
int64_t footprintSegments(const ArrayAccess &Access, const TileMap &Tiles);

/// Footprint size in elements (product over all dimensions), the working
/// set contribution of one access.
int64_t footprintElements(const ArrayAccess &Access, const TileMap &Tiles);

/// Working set over the loops in \p Tiles, summed over all accesses
/// (Eqs. 1 and 6 generalized).
int64_t workingSetElements(const StageAccessInfo &Info, const TileMap &Tiles);

/// Estimated L1 misses (Eq. 5): \p OuterIntraVar is the outermost
/// intra-tile loop; \p Tiles must cover every loop of the nest.
double estimateL1Misses(const StageAccessInfo &Info, const TileMap &Tiles,
                        const std::string &OuterIntraVar);

/// Estimated L2 misses (Eq. 10): \p InnerInterVar is the innermost
/// inter-tile loop.
double estimateL2Misses(const StageAccessInfo &Info, const TileMap &Tiles,
                        const std::string &InnerInterVar);

/// Weighted total (Eq. 11).
double totalCost(const StageAccessInfo &Info, const TileMap &Tiles,
                 const std::string &OuterIntraVar,
                 const std::string &InnerInterVar, const ArchParams &Arch);

/// Prefetch-*unaware* variants: cold misses are footprint lines
/// (`elements / lc`) instead of segments.
double estimateL1MissesNoPrefetch(const StageAccessInfo &Info,
                                  const TileMap &Tiles,
                                  const std::string &OuterIntraVar,
                                  int64_t Lc);
double estimateL2MissesNoPrefetch(const StageAccessInfo &Info,
                                  const TileMap &Tiles,
                                  const std::string &InnerInterVar,
                                  int64_t Lc);

} // namespace ltp

#endif // LTP_TESTS_ORACLES_COSTMODEL_H
