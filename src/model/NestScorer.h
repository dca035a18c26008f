//===- NestScorer.h - precompiled dense candidate scorer --------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analytical model of Section 3.2 (Eqs. 1-12), generalized from the
/// paper's matmul walkthrough to arbitrary affine accesses (DESIGN.md
/// spells out the generalization):
///
///  * the *footprint* of an access over a set of (tiled) loops extends
///    each array dimension by `sum |ci| * (Ti - 1) + 1`;
///  * with streaming prefetchers, the *cold misses* of a footprint equal
///    its number of distinct contiguous segments — the product of the
///    non-column extents (Eq. 3's "1 + 1 + Tk");
///  * `CL1` (Eq. 5) counts, per access, `T_outer` fresh footprints per
///    tile when the outermost intra-tile loop indexes the access, or one
///    reused footprint otherwise, times the number of tiles;
///  * `CL2` (Eq. 10) applies the same rule at the innermost inter-tile
///    loop over whole-tile footprints;
///  * `Ctotal = a2*CL1 + a3*CL2` (Eq. 11);
///  * `Corder` (Eq. 12) sums, per original loop, the iteration distance
///    between its inter-tile and intra-tile incarnations in the final
///    order.
///
/// The temporal search (Algorithm 2) evaluates thousands of tile
/// assignments per stage, so NestScorer compiles the stage's access
/// functions ONCE into flat per-dimension coefficient arrays: each
/// candidate scores in O(accesses x dims) integer/double arithmetic with
/// no allocation and no string hashing. A map-based formulation of the
/// same equations is kept under tests/oracles as the test oracle: the
/// parity tests hold the two bit-exact, and the oracle is checked against
/// the paper's worked matmul equations.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_MODEL_NESTSCORER_H
#define LTP_MODEL_NESTSCORER_H

#include "arch/ArchParams.h"
#include "core/AccessInfo.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {

/// Tile sizes per original loop variable. A loop tiled at its full extent
/// is effectively untiled (its inter-tile loop has one iteration).
using TileMap = std::map<std::string, int64_t>;

/// Returns ceil(Extent / Tile) — the inter-tile trip count of a loop.
int64_t interTrip(int64_t Extent, int64_t Tile);

/// Loop-order cost (Eq. 12). \p IntraOrder and \p InterOrder list original
/// loop names innermost-first; loops tiled at full extent have no
/// inter-tile loop and must be omitted from \p InterOrder.
double orderCost(const StageAccessInfo &Info, const TileMap &Tiles,
                 const std::vector<std::string> &IntraOrder,
                 const std::vector<std::string> &InterOrder);

namespace model {

class NestScorer {
public:
  NestScorer(const StageAccessInfo &Info, const ArchParams &Arch);

  /// Index of loop \p Name in the dense tile vector (Info.Loops order),
  /// or -1 when the name is not a loop.
  int loopIndex(const std::string &Name) const;

  int numLoops() const { return static_cast<int>(Extents.size()); }
  int64_t loopExtent(int Loop) const { return Extents[Loop]; }

  /// interTrip(extent, tile) of loop \p Loop under \p Tiles.
  int64_t interTripAt(int Loop, const int64_t *Tiles) const;

  /// Working set in elements over the loops' tiles, summed over all
  /// accesses (Eqs. 1 and 6 generalized). \p Tiles covers every loop.
  int64_t workingSet(const int64_t *Tiles) const;

  /// workingSet with loop \p U's tile set to 1: the Eq. 1 footprint of
  /// one iteration of the outermost intra-tile loop.
  int64_t workingSetPivotOne(const int64_t *Tiles, int U) const;

  /// Estimated L1 misses (Eq. 5) with outermost intra-tile loop \p U.
  double l1Misses(const int64_t *Tiles, int U) const;

  /// Estimated L2 misses (Eq. 10) with innermost inter-tile loop \p V.
  double l2Misses(const int64_t *Tiles, int V) const;

  /// Weighted total (Eq. 11).
  double cost(const int64_t *Tiles, int U, int V) const;

  /// Prefetch-*unaware* variants with line size \p Lc, used by the TSS/TTS
  /// baselines and the ablation: cold misses are footprint lines
  /// (`elements / lc`) instead of segments.
  double l1MissesNoPrefetch(const int64_t *Tiles, int U, int64_t Lc) const;
  double l2MissesNoPrefetch(const int64_t *Tiles, int V, int64_t Lc) const;

  /// Renders the dense tile vector as a TileMap (acceptance is rare, so
  /// the map cost stays off the hot path).
  TileMap toTileMap(const int64_t *Tiles) const;

private:
  struct Term {
    int Loop;
    int64_t AbsCoeff;
  };
  struct Dim {
    // Empty for non-affine dims: unknown structure degrades to a
    // footprint extent of 1.
    std::vector<Term> Terms;
  };
  struct Access {
    std::vector<Dim> Dims; // dimension 0 (contiguous) first
    std::vector<bool> Uses; // per loop: any dimension references it
  };

  int64_t dimExtent(const Access &A, size_t D, const int64_t *Tiles,
                    int PivotOne) const;
  int64_t segments(const Access &A, const int64_t *Tiles,
                   int PivotOne) const;
  int64_t lines(const Access &A, const int64_t *Tiles, int PivotOne,
                int64_t Lc) const;
  double numTiles(const int64_t *Tiles) const;

  template <typename MissFn>
  double levelMisses(const int64_t *Tiles, int Pivot, bool PivotIsIntra,
                     MissFn Misses) const;

  std::vector<std::string> Names;
  std::vector<int64_t> Extents;
  std::vector<Access> Accesses;
  double A2 = 1.0;
  double A3 = 1.0;
};

} // namespace model
} // namespace ltp

#endif // LTP_MODEL_NESTSCORER_H
