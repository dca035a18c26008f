//===- CostModel.cpp - map-based miss model oracle (Eqs. 1-11) -----------===//

#include "tests/oracles/CostModel.h"

#include <algorithm>
#include <cassert>

using namespace ltp;

int64_t ltp::footprintDimExtent(const AffineIndex &Index,
                                const TileMap &Tiles) {
  if (!Index.IsAffine) {
    // Unknown structure: assume the whole dimension is touched once per
    // point; treat as extent 1 so the caller degrades gracefully.
    return 1;
  }
  int64_t Extent = 1;
  for (const auto &[Var, Coeff] : Index.Coeffs) {
    auto It = Tiles.find(Var);
    if (It == Tiles.end())
      continue;
    Extent += std::llabs(Coeff) * (It->second - 1);
  }
  return Extent;
}

int64_t ltp::footprintSegments(const ArrayAccess &Access,
                               const TileMap &Tiles) {
  assert(!Access.Index.empty() && "access has no dimensions");
  int64_t Segments = 1;
  for (size_t D = 1; D != Access.Index.size(); ++D)
    Segments *= footprintDimExtent(Access.Index[D], Tiles);
  return Segments;
}

int64_t ltp::footprintElements(const ArrayAccess &Access,
                               const TileMap &Tiles) {
  int64_t Elements = 1;
  for (const AffineIndex &Index : Access.Index)
    Elements *= footprintDimExtent(Index, Tiles);
  return Elements;
}

int64_t ltp::workingSetElements(const StageAccessInfo &Info,
                                const TileMap &Tiles) {
  int64_t Total = 0;
  for (const ArrayAccess &Access : Info.Accesses)
    Total += footprintElements(Access, Tiles);
  return Total;
}

namespace {

/// True when \p Access's index references \p Var with non-zero
/// coefficient in any dimension.
bool accessUsesVar(const ArrayAccess &Access, const std::string &Var) {
  for (const AffineIndex &Index : Access.Index)
    if (Index.Coeffs.contains(Var) && Index.Coeffs.at(Var) != 0)
      return true;
  return false;
}

/// Product of inter-tile trip counts over all loops (the number of tiles).
double numTiles(const StageAccessInfo &Info, const TileMap &Tiles) {
  double N = 1.0;
  for (const LoopInfo &Loop : Info.Loops) {
    auto It = Tiles.find(Loop.Name);
    assert(It != Tiles.end() && "tile map must cover every loop");
    N *= static_cast<double>(interTrip(Loop.Extent, It->second));
  }
  return N;
}

int64_t loopExtent(const StageAccessInfo &Info, const std::string &Var) {
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.Name == Var)
      return Loop.Extent;
  assert(false && "unknown loop variable");
  return 1;
}

/// Lines covered by a footprint (prefetch-unaware cold misses): the
/// column dimension contributes ceil(extent / lc) lines per segment.
int64_t footprintLines(const ArrayAccess &Access, const TileMap &Tiles,
                       int64_t Lc) {
  assert(!Access.Index.empty() && "access has no dimensions");
  int64_t ColumnExtent = footprintDimExtent(Access.Index.front(), Tiles);
  int64_t LinesPerSegment = (ColumnExtent + Lc - 1) / Lc;
  return LinesPerSegment * footprintSegments(Access, Tiles);
}

/// Shared structure of Eq. 5 and Eq. 10 with a pluggable per-footprint
/// miss function: per access, `T_pivot` fresh footprints when the pivot
/// loop indexes the access, else one reused footprint; times the trips of
/// the remaining enclosing loops.
template <typename MissFn>
double estimateLevelMisses(const StageAccessInfo &Info, const TileMap &Tiles,
                           const std::string &PivotVar, bool PivotIsIntra,
                           MissFn Misses) {
  // Footprint loops: for the L1 estimate (pivot intra), the footprint is
  // over the intra-tile loops *excluding* the pivot; for the L2 estimate
  // (pivot inter), the footprint is the whole tile.
  TileMap FootprintTiles = Tiles;
  if (PivotIsIntra)
    FootprintTiles[PivotVar] = 1;

  double PerTile = 0.0;
  int64_t PivotIterations =
      PivotIsIntra ? Tiles.at(PivotVar)
                   : interTrip(loopExtent(Info, PivotVar), Tiles.at(PivotVar));
  for (const ArrayAccess &Access : Info.Accesses) {
    double FootprintMisses =
        static_cast<double>(Misses(Access, FootprintTiles));
    if (accessUsesVar(Access, PivotVar))
      PerTile += static_cast<double>(PivotIterations) * FootprintMisses;
    else
      PerTile += FootprintMisses;
  }

  // Remaining enclosing loops: every inter-tile trip except the pivot's
  // own contribution, which is already accounted for above.
  double Enclosing = numTiles(Info, Tiles);
  if (!PivotIsIntra)
    Enclosing /=
        static_cast<double>(interTrip(loopExtent(Info, PivotVar),
                                      Tiles.at(PivotVar)));
  return PerTile * Enclosing;
}

} // namespace

double ltp::estimateL1Misses(const StageAccessInfo &Info,
                             const TileMap &Tiles,
                             const std::string &OuterIntraVar) {
  return estimateLevelMisses(
      Info, Tiles, OuterIntraVar, /*PivotIsIntra=*/true,
      [](const ArrayAccess &A, const TileMap &T) {
        return footprintSegments(A, T);
      });
}

double ltp::estimateL2Misses(const StageAccessInfo &Info,
                             const TileMap &Tiles,
                             const std::string &InnerInterVar) {
  return estimateLevelMisses(
      Info, Tiles, InnerInterVar, /*PivotIsIntra=*/false,
      [](const ArrayAccess &A, const TileMap &T) {
        return footprintSegments(A, T);
      });
}

double ltp::totalCost(const StageAccessInfo &Info, const TileMap &Tiles,
                      const std::string &OuterIntraVar,
                      const std::string &InnerInterVar,
                      const ArchParams &Arch) {
  return Arch.A2 * estimateL1Misses(Info, Tiles, OuterIntraVar) +
         Arch.A3 * estimateL2Misses(Info, Tiles, InnerInterVar);
}

double ltp::estimateL1MissesNoPrefetch(const StageAccessInfo &Info,
                                       const TileMap &Tiles,
                                       const std::string &OuterIntraVar,
                                       int64_t Lc) {
  return estimateLevelMisses(
      Info, Tiles, OuterIntraVar, /*PivotIsIntra=*/true,
      [Lc](const ArrayAccess &A, const TileMap &T) {
        return footprintLines(A, T, Lc);
      });
}

double ltp::estimateL2MissesNoPrefetch(const StageAccessInfo &Info,
                                       const TileMap &Tiles,
                                       const std::string &InnerInterVar,
                                       int64_t Lc) {
  return estimateLevelMisses(
      Info, Tiles, InnerInterVar, /*PivotIsIntra=*/false,
      [Lc](const ArrayAccess &A, const TileMap &T) {
        return footprintLines(A, T, Lc);
      });
}
