//===- NestScorer.cpp - precompiled dense candidate scorer ---------------===//

#include "model/NestScorer.h"

#include <cassert>

using namespace ltp;
using namespace ltp::model;

int64_t ltp::interTrip(int64_t Extent, int64_t Tile) {
  assert(Extent > 0 && Tile > 0 && "trip count of an empty loop");
  return (Extent + Tile - 1) / Tile;
}

double ltp::orderCost(const StageAccessInfo &Info, const TileMap &Tiles,
                      const std::vector<std::string> &IntraOrder,
                      const std::vector<std::string> &InterOrder) {
  auto LoopExtent = [&](const std::string &Var) {
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name == Var)
        return Loop.Extent;
    assert(false && "unknown loop variable");
    return int64_t(1);
  };
  // Build the full nest, innermost first: intra block then inter block.
  struct NestLoop {
    std::string Var;
    bool IsIntra;
    double Trip;
  };
  std::vector<NestLoop> Nest;
  for (const std::string &Var : IntraOrder)
    Nest.push_back({Var, true, static_cast<double>(Tiles.at(Var))});
  for (const std::string &Var : InterOrder)
    Nest.push_back(
        {Var, false,
         static_cast<double>(interTrip(LoopExtent(Var), Tiles.at(Var)))});

  double Total = 0.0;
  for (const std::string &Var : IntraOrder) {
    // Distance between the intra loop and its inter partner: the product
    // of the trip counts of the loops strictly between them.
    size_t IntraPos = Nest.size(), InterPos = Nest.size();
    for (size_t P = 0; P != Nest.size(); ++P) {
      if (Nest[P].Var != Var)
        continue;
      if (Nest[P].IsIntra)
        IntraPos = P;
      else
        InterPos = P;
    }
    if (InterPos == Nest.size())
      continue; // untiled loop: no inter incarnation, no distance
    assert(IntraPos < InterPos && "intra loop must be inside its inter loop");
    double Distance = 1.0;
    for (size_t P = IntraPos + 1; P != InterPos; ++P)
      Distance *= Nest[P].Trip;
    Total += Distance;
  }
  return Total;
}

NestScorer::NestScorer(const StageAccessInfo &Info, const ArchParams &Arch)
    : A2(Arch.A2), A3(Arch.A3) {
  for (const LoopInfo &Loop : Info.Loops) {
    Names.push_back(Loop.Name);
    Extents.push_back(Loop.Extent);
  }
  for (const ArrayAccess &Src : Info.Accesses) {
    Access A;
    A.Uses.assign(Names.size(), false);
    for (const AffineIndex &Index : Src.Index) {
      Dim D;
      for (const auto &[Var, Coeff] : Index.Coeffs) {
        int Loop = loopIndex(Var);
        if (Loop < 0)
          continue; // non-loop symbol: no footprint term
        // Use is decided on raw coefficients regardless of affinity;
        // the footprint terms honour IsAffine below.
        if (Coeff != 0)
          A.Uses[static_cast<size_t>(Loop)] = true;
        if (Index.IsAffine)
          D.Terms.push_back({Loop, Coeff < 0 ? -Coeff : Coeff});
      }
      if (!Index.IsAffine)
        D.Terms.clear();
      A.Dims.push_back(std::move(D));
    }
    Accesses.push_back(std::move(A));
  }
}

int NestScorer::loopIndex(const std::string &Name) const {
  for (size_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<int>(I);
  return -1;
}

int64_t NestScorer::interTripAt(int Loop, const int64_t *Tiles) const {
  return interTrip(Extents[static_cast<size_t>(Loop)],
                   Tiles[static_cast<size_t>(Loop)]);
}

int64_t NestScorer::dimExtent(const Access &A, size_t D,
                              const int64_t *Tiles, int PivotOne) const {
  int64_t Extent = 1;
  for (const Term &T : A.Dims[D].Terms) {
    int64_t Tile = T.Loop == PivotOne ? 1 : Tiles[T.Loop];
    Extent += T.AbsCoeff * (Tile - 1);
  }
  return Extent;
}

int64_t NestScorer::segments(const Access &A, const int64_t *Tiles,
                             int PivotOne) const {
  assert(!A.Dims.empty() && "access has no dimensions");
  int64_t Segments = 1;
  for (size_t D = 1; D != A.Dims.size(); ++D)
    Segments *= dimExtent(A, D, Tiles, PivotOne);
  return Segments;
}

int64_t NestScorer::lines(const Access &A, const int64_t *Tiles,
                          int PivotOne, int64_t Lc) const {
  assert(!A.Dims.empty() && "access has no dimensions");
  int64_t ColumnExtent = dimExtent(A, 0, Tiles, PivotOne);
  int64_t LinesPerSegment = (ColumnExtent + Lc - 1) / Lc;
  return LinesPerSegment * segments(A, Tiles, PivotOne);
}

int64_t NestScorer::workingSet(const int64_t *Tiles) const {
  int64_t Total = 0;
  for (const Access &A : Accesses) {
    int64_t Elements = 1;
    for (size_t D = 0; D != A.Dims.size(); ++D)
      Elements *= dimExtent(A, D, Tiles, /*PivotOne=*/-1);
    Total += Elements;
  }
  return Total;
}

int64_t NestScorer::workingSetPivotOne(const int64_t *Tiles, int U) const {
  int64_t Total = 0;
  for (const Access &A : Accesses) {
    int64_t Elements = 1;
    for (size_t D = 0; D != A.Dims.size(); ++D)
      Elements *= dimExtent(A, D, Tiles, U);
    Total += Elements;
  }
  return Total;
}

double NestScorer::numTiles(const int64_t *Tiles) const {
  double N = 1.0;
  for (size_t L = 0; L != Extents.size(); ++L)
    N *= static_cast<double>(interTrip(Extents[L], Tiles[L]));
  return N;
}

template <typename MissFn>
double NestScorer::levelMisses(const int64_t *Tiles, int Pivot,
                               bool PivotIsIntra, MissFn Misses) const {
  // Shared structure of Eq. 5 and Eq. 10: per access, `T_pivot` fresh
  // footprints when the pivot loop indexes the access, else one reused
  // footprint; times the trips of the remaining enclosing loops. For the
  // L1 estimate the footprint is over the intra-tile loops excluding the
  // pivot (pivot tile treated as 1); for the L2 estimate it is the whole
  // tile.
  const int PivotOne = PivotIsIntra ? Pivot : -1;
  const size_t P = static_cast<size_t>(Pivot);
  int64_t PivotIterations =
      PivotIsIntra ? Tiles[P] : interTrip(Extents[P], Tiles[P]);

  double PerTile = 0.0;
  for (const Access &A : Accesses) {
    double FootprintMisses = static_cast<double>(Misses(A, PivotOne));
    if (A.Uses[P])
      PerTile += static_cast<double>(PivotIterations) * FootprintMisses;
    else
      PerTile += FootprintMisses;
  }

  double Enclosing = numTiles(Tiles);
  if (!PivotIsIntra)
    Enclosing /= static_cast<double>(interTrip(Extents[P], Tiles[P]));
  return PerTile * Enclosing;
}

double NestScorer::l1Misses(const int64_t *Tiles, int U) const {
  return levelMisses(Tiles, U, /*PivotIsIntra=*/true,
                     [&](const Access &A, int PivotOne) {
                       return segments(A, Tiles, PivotOne);
                     });
}

double NestScorer::l2Misses(const int64_t *Tiles, int V) const {
  return levelMisses(Tiles, V, /*PivotIsIntra=*/false,
                     [&](const Access &A, int PivotOne) {
                       return segments(A, Tiles, PivotOne);
                     });
}

double NestScorer::cost(const int64_t *Tiles, int U, int V) const {
  return A2 * l1Misses(Tiles, U) + A3 * l2Misses(Tiles, V);
}

double NestScorer::l1MissesNoPrefetch(const int64_t *Tiles, int U,
                                      int64_t Lc) const {
  return levelMisses(Tiles, U, /*PivotIsIntra=*/true,
                     [&](const Access &A, int PivotOne) {
                       return lines(A, Tiles, PivotOne, Lc);
                     });
}

double NestScorer::l2MissesNoPrefetch(const int64_t *Tiles, int V,
                                      int64_t Lc) const {
  return levelMisses(Tiles, V, /*PivotIsIntra=*/false,
                     [&](const Access &A, int PivotOne) {
                       return lines(A, Tiles, PivotOne, Lc);
                     });
}

TileMap NestScorer::toTileMap(const int64_t *Tiles) const {
  TileMap Out;
  for (size_t L = 0; L != Names.size(); ++L)
    Out[Names[L]] = Tiles[L];
  return Out;
}
