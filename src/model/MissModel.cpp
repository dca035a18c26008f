//===- MissModel.cpp - closed-form per-level miss prediction -------------===//

#include "model/MissModel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace ltp;
using namespace ltp::model;

namespace {

/// A reuse group: accesses to the same buffer whose indices differ only
/// in constant offsets (uniformly generated references). The group is
/// charged once, over the union footprint.
struct ReuseGroup {
  const ArrayAccess *Leader = nullptr;
  /// Per dimension: constant spread (max Const - min Const) across the
  /// group's members.
  std::vector<int64_t> ConstSpread;
};

/// Per-loop movement of one group along each array dimension, under a
/// nest prefix: extent_d = 1 + ConstSpread_d + sum_v |c_dv| * move_v,
/// where move_v is the origin variable's covered range.
struct GroupGeometry {
  const ReuseGroup *Group = nullptr;
  /// Element strides of the accessed buffer, dimension 0 first.
  const std::vector<int64_t> *BufStrides = nullptr;
  /// Per nest loop: true when the group's index advances with it.
  std::vector<bool> Uses;
  /// Per nest loop: elements moved along dimension 0 per iteration
  /// (|c0| * loop stride; 0 when the loop does not touch dimension 0).
  std::vector<int64_t> Dim0Move;
};

} // namespace

MissPrediction
ltp::model::predictMisses(const StageAccessInfo &Info,
                          const analysis::ScheduledNest &Schedule,
                          const ArchParams &Arch, const BufferStrides &Strides,
                          bool NonTemporalOutput) {
  MissPrediction P;
  auto Fail = [&](const std::string &Why) {
    P.Analytic = false;
    P.WhyNot = Why;
    return P;
  };

  if (!Schedule.Complete)
    return Fail("structurally invalid schedule");
  // A fused loop advances two origin variables at once; the
  // per-variable footprint algebra below cannot express that.
  const std::vector<analysis::NestLoop> &Nest = Schedule.Loops;
  for (const analysis::NestLoop &L : Nest)
    if (L.Fused)
      return Fail("fused loops");
  if (Info.HasPredicates)
    return Fail("predicated (data-dependent) iteration domain");
  if (Nest.empty())
    return Fail("empty nest");

  const int64_t LineBytes = Arch.L1.LineBytes;
  const int64_t DTS = Info.DTS;
  if (DTS <= 0 || LineBytes <= 0 || LineBytes % DTS != 0)
    return Fail("element size does not divide the line size");

  // ---- Reuse-group formation (uniformly generated references). ----------
  std::vector<ReuseGroup> Groups;
  for (const ArrayAccess &A : Info.Accesses) {
    if (NonTemporalOutput && A.IsOutput)
      continue; // streaming stores bypass the hierarchy
    for (const AffineIndex &Index : A.Index)
      if (!Index.IsAffine)
        return Fail("non-affine subscript on " + A.Buffer);
    // Unit stride along the contiguous dimension: the line/segment
    // algebra below assumes dense or constant-offset dim-0 movement.
    if (!A.Index.empty())
      for (const auto &[Var, Coeff] : A.Index.front().Coeffs)
        if (Coeff != 0 && Coeff != 1 && Coeff != -1)
          return Fail("non-unit contiguous stride on " + A.Buffer);

    ReuseGroup *Home = nullptr;
    for (ReuseGroup &G : Groups) {
      if (G.Leader->Buffer != A.Buffer ||
          G.Leader->Index.size() != A.Index.size())
        continue;
      bool SameCoeffs = true;
      for (size_t D = 0; D != A.Index.size() && SameCoeffs; ++D)
        SameCoeffs = G.Leader->Index[D].Coeffs == A.Index[D].Coeffs;
      if (SameCoeffs) {
        Home = &G;
        break;
      }
    }
    if (!Home) {
      Groups.push_back({&A, std::vector<int64_t>(A.Index.size(), 0)});
      continue;
    }
    for (size_t D = 0; D != A.Index.size(); ++D) {
      int64_t Delta =
          std::llabs(A.Index[D].Const - Home->Leader->Index[D].Const);
      Home->ConstSpread[D] = std::max(Home->ConstSpread[D], Delta);
    }
  }
  if (Groups.empty())
    return Fail("no cached accesses");

  // ---- Per-group geometry. ----------------------------------------------
  const size_t NL = Nest.size();
  std::map<std::string, int64_t> OriginExtent;
  for (const LoopInfo &Loop : Info.Loops)
    OriginExtent[Loop.Name] = Loop.Extent;

  std::vector<GroupGeometry> Geom;
  for (const ReuseGroup &G : Groups) {
    GroupGeometry GG;
    GG.Group = &G;
    GG.Uses.assign(NL, false);
    GG.Dim0Move.assign(NL, 0);
    for (size_t J = 0; J != NL; ++J) {
      int MovedDims = 0;
      for (const AffineIndex &Index : G.Leader->Index)
        if (Index.Coeffs.contains(Nest[J].Origin) &&
            Index.Coeffs.at(Nest[J].Origin) != 0) {
          GG.Uses[J] = true;
          ++MovedDims;
        }
      // One loop moving several dimensions at once (e.g. a diagonal
      // A(i, i)) breaks the per-dimension traversal walk below.
      if (MovedDims > 1)
        return Fail("coupled subscripts on " + G.Leader->Buffer);
      const AffineIndex &Dim0 = G.Leader->Index.front();
      auto C0 = Dim0.Coeffs.find(Nest[J].Origin);
      if (C0 != Dim0.Coeffs.end() && C0->second != 0)
        GG.Dim0Move[J] = std::llabs(C0->second) * Nest[J].Stride;
    }

    auto It = Strides.find(G.Leader->Buffer);
    if (It == Strides.end())
      return Fail("unknown buffer shape for " + G.Leader->Buffer);
    const std::vector<int64_t> &BS = It->second;
    if (BS.size() != G.Leader->Index.size())
      return Fail("buffer rank mismatch for " + G.Leader->Buffer);
    if (BS.front() != 1)
      return Fail("non-contiguous innermost dimension of " +
                  G.Leader->Buffer);
    GG.BufStrides = &BS;
    Geom.push_back(std::move(GG));
  }

  // Footprint extent of group \p G along dimension \p D under the nest
  // prefix [0, K]: constant spread plus per-origin-variable movement,
  // clamped to the variable's full range.
  auto DimExtent = [&](const GroupGeometry &GG, size_t D, size_t K) {
    const AffineIndex &Index = GG.Group->Leader->Index[D];
    int64_t Extent = 1 + GG.Group->ConstSpread[D];
    for (const auto &[Var, Coeff] : Index.Coeffs) {
      if (Coeff == 0)
        continue;
      int64_t Move = 0;
      for (size_t J = 0; J != K; ++J)
        if (Nest[J].Origin == Var)
          Move += Nest[J].Stride * (Nest[J].Trip - 1);
      auto ExtIt = OriginExtent.find(Var);
      if (ExtIt != OriginExtent.end())
        Move = std::min(Move, ExtIt->second - 1);
      Extent += std::llabs(Coeff) * Move;
    }
    return Extent;
  };

  // ---- Set-based line footprints (the capacity gates). ------------------
  // Layout-contiguous dimensions merge into runs; every other dimension
  // multiplies the number of disjoint runs. Footprints are counted in
  // whole cache lines: a column of N rows occupies N lines no matter how
  // few bytes of each line it touches.
  struct SetShape {
    double Segments = 1.0;
    double LinesPerRun = 1.0;
    /// Line distance between run heads (0 when single-run or the stride
    /// is not a whole number of lines).
    int64_t StrideLines = 0;
  };
  auto GroupShape = [&](const GroupGeometry &GG, size_t K) {
    const size_t Rank = GG.Group->Leader->Index.size();
    const std::vector<int64_t> &BS = *GG.BufStrides;
    int64_t Run = DimExtent(GG, 0, K);
    size_t D = 1;
    while (D < Rank && BS[D] == Run) {
      Run *= DimExtent(GG, D, K);
      ++D;
    }
    SetShape S;
    for (size_t E = D; E < Rank; ++E)
      S.Segments *= static_cast<double>(DimExtent(GG, E, K));
    S.LinesPerRun = std::ceil(static_cast<double>(Run) *
                              static_cast<double>(DTS) /
                              static_cast<double>(LineBytes));
    if (D < Rank && (BS[D] * DTS) % LineBytes == 0)
      S.StrideLines = BS[D] * DTS / LineBytes;
    return S;
  };
  auto GroupLineBytes = [&](const GroupGeometry &GG, size_t K) {
    SetShape S = GroupShape(GG, K);
    return S.Segments * S.LinesPerRun * static_cast<double>(LineBytes);
  };
  // Total footprint (bytes of lines) of all groups under prefix [0, K).
  auto FootprintBytes = [&](size_t K) {
    double Total = 0.0;
    for (const GroupGeometry &GG : Geom)
      Total += GroupLineBytes(GG, K);
    return Total;
  };

  // Does the prefix-[0, K) footprint stay resident in a cache of
  // \p Cache's geometry? Capacity first (7/8 of the size absorbs
  // prefetcher-resident lines and LRU's imperfection at exactly-capacity
  // footprints), then set pressure: a group whose run heads are a
  // power-of-two line stride apart can land all its lines in a handful
  // of sets and thrash an associativity-bound cache long before the
  // capacity bound (the transposed-array tile of Algorithm 1).
  auto Resident = [&](size_t K, const CacheParams &Cache) {
    if (FootprintBytes(K) > static_cast<double>(Cache.SizeBytes) * 0.875)
      return false;
    const int64_t NumSets = Cache.numSets();
    for (const GroupGeometry &GG : Geom) {
      SetShape S = GroupShape(GG, K);
      if (S.Segments <= static_cast<double>(Cache.Ways) ||
          S.StrideLines <= 0)
        continue;
      int64_t G = std::gcd(S.StrideLines, NumSets);
      double HeadSets = static_cast<double>(NumSets / G);
      double EffSets = std::min(
          static_cast<double>(NumSets),
          HeadSets * std::min(S.LinesPerRun, static_cast<double>(G)));
      if (S.Segments * S.LinesPerRun >
          static_cast<double>(Cache.Ways) * EffSets)
        return false;
    }
    return true;
  };

  // Bytes *actually touched* under prefix [0, K) — per dimension the
  // product of the moving loops' trip counts (distinct index values)
  // rather than their span. A loop of trip 2 and stride 512 spans 513
  // rows but touches 2: the span-based footprint above decides what a
  // cache must HOLD (intermediate lines age out the resident ones), the
  // touched footprint decides what eviction can be PROVEN from capacity
  // alone.
  auto TouchedExtent = [&](const GroupGeometry &GG, size_t D, size_t K) {
    const AffineIndex &Index = GG.Group->Leader->Index[D];
    int64_t Pts = 1;
    for (const auto &[Var, Coeff] : Index.Coeffs) {
      if (Coeff == 0)
        continue;
      int64_t P = 1;
      for (size_t J = 0; J != K; ++J)
        if (Nest[J].Origin == Var)
          P *= Nest[J].Trip;
      auto ExtIt = OriginExtent.find(Var);
      if (ExtIt != OriginExtent.end())
        P = std::min(P, ExtIt->second);
      Pts *= P;
    }
    return std::min(Pts + GG.Group->ConstSpread[D], DimExtent(GG, D, K));
  };
  auto TouchedBytes = [&](size_t K) {
    double Total = 0.0;
    for (const GroupGeometry &GG : Geom) {
      const size_t Rank = GG.Group->Leader->Index.size();
      double Lines =
          std::ceil(static_cast<double>(TouchedExtent(GG, 0, K)) *
                    static_cast<double>(DTS) / static_cast<double>(LineBytes));
      for (size_t D = 1; D < Rank; ++D)
        Lines *= static_cast<double>(TouchedExtent(GG, D, K));
      Total += Lines * static_cast<double>(LineBytes);
    }
    return Total;
  };

  // ---- Applicability: sub-line strided traversals. ----------------------
  // A loop advancing dimension 0 by less than a line per iteration
  // revisits each line across its iterations. The set-based footprint
  // algebra cannot see traversal order, so it only stays sound when the
  // revisit distance — the footprint of one iteration of that loop —
  // stays L1-resident. Column-major walks of large arrays (every access
  // a miss in the simulator) fall back to simulation here.
  const int64_t Lc = LineBytes / DTS;
  for (const GroupGeometry &GG : Geom)
    for (size_t J = 0; J != NL; ++J)
      if (GG.Dim0Move[J] > 0 && GG.Dim0Move[J] < Lc &&
          !Resident(J, Arch.L1))
        return Fail("sub-line strided traversal of " +
                    GG.Group->Leader->Buffer);

  // ---- Traversal-ordered fresh sweep. -----------------------------------
  // Cold-sweep misses depend on the order lines are visited, not just the
  // footprint: the next-line prefetcher only covers a line whose
  // predecessor was touched recently enough for the prefetched line to
  // survive in the L1. Walk the group's moving loops inside-out, tracking
  // the contiguous byte range each stream instance covers (CurContig) and
  // the number of uncovered stream heads per sweep (M):
  //  * a sub-line dim-0 advance extends the current run (the global
  //    sub-line gate guaranteed the revisit window is L1-resident). When
  //    an earlier dim-0 advance left strided stream heads (an inverted
  //    split: s_t inside s_i) and the extension reaches the head stride,
  //    the heads tile the gap between them — the joint covered range is
  //    the whole span, and later advances compare against that;
  //  * an advance adjacent to the covered range (ByteMove <= CurContig)
  //    concatenates when the crossing is bridged — immediately for a
  //    single stream, via L1 residency of the in-between footprint
  //    otherwise. An unbridged adjacent advance is an interleaved revisit
  //    of a just-covered address range: if the prefix's touched bytes
  //    overflow the L1 the crossing lines are certainly evicted and the
  //    streams restart cold (multiply); if they fit, survival depends on
  //    how the streams' base addresses align into the sets, which no
  //    closed form over shapes can know — the walk flags it and the
  //    caller declines to the simulator;
  //  * any other advance starts fresh streams: M multiplies by the trip.
  struct FreshInfo {
    double Misses = 1.0;      ///< per-sweep L1 demand misses
    int64_t StreamStride = 0; ///< byte stride of the innermost multiplier
    bool AddrSensitive = false; ///< unprovable interleaved-revisit seen
  };
  auto FreshWalk = [&](const GroupGeometry &GG, size_t K) {
    const std::vector<int64_t> &BS = *GG.BufStrides;
    const size_t Rank = GG.Group->Leader->Index.size();
    FreshInfo F;
    for (size_t D = 1; D < Rank; ++D)
      F.Misses *= static_cast<double>(1 + GG.Group->ConstSpread[D]);
    double CurContig = static_cast<double>(1 + GG.Group->ConstSpread[0]) *
                       static_cast<double>(DTS);
    // Strided dim-0 stream heads awaiting a gap-filling sub-line merge.
    double HeadStride = 0.0;
    double HeadCount = 1.0;
    for (size_t J = 0; J != K; ++J) {
      if (!GG.Uses[J])
        continue;
      size_t MovedDim = 0;
      int64_t MoveElems = 0;
      for (size_t D = 0; D != Rank; ++D) {
        auto C = GG.Group->Leader->Index[D].Coeffs.find(Nest[J].Origin);
        if (C != GG.Group->Leader->Index[D].Coeffs.end() && C->second != 0) {
          MovedDim = D;
          MoveElems = std::llabs(C->second) * Nest[J].Stride;
        }
      }
      double ByteMove = static_cast<double>(MoveElems) *
                        static_cast<double>(BS[MovedDim]) *
                        static_cast<double>(DTS);
      double T = static_cast<double>(Nest[J].Trip);
      if (MovedDim == 0 && ByteMove < static_cast<double>(LineBytes)) {
        CurContig += ByteMove * (T - 1.0);
        if (HeadStride > 0.0 && CurContig >= HeadStride) {
          CurContig += HeadStride * (HeadCount - 1.0);
          HeadStride = 0.0;
          HeadCount = 1.0;
        }
      } else if (ByteMove <= CurContig) {
        if (F.Misses <= 1.0 || Resident(J, Arch.L1)) {
          CurContig += ByteMove * (T - 1.0);
        } else {
          // Interleaved revisit of a just-covered range. When the bytes
          // the prefix actually touches overflow the L1, eviction of the
          // crossing lines is capacity-certain and the streams restart
          // cold (multiply). When they FIT, survival hinges on how the
          // buffers' base addresses align into the sets — undecidable
          // from shapes alone, so flag for the applicability gate.
          if (TouchedBytes(J) <=
              static_cast<double>(Arch.L1.SizeBytes))
            F.AddrSensitive = true;
          F.Misses *= T;
          if (F.StreamStride == 0)
            F.StreamStride = static_cast<int64_t>(ByteMove);
        }
      } else {
        F.Misses *= T;
        if (F.StreamStride == 0)
          F.StreamStride = static_cast<int64_t>(ByteMove);
        if (MovedDim == 0) {
          HeadStride = ByteMove;
          HeadCount = T;
        }
      }
    }
    return F;
  };

  // ---- Applicability: alignment-dependent interleaved revisits. ---------
  // The full-nest walk visits every branch decision of every prefix walk
  // (the walk for prefix K is exactly the first K steps of this one), so
  // one pass per group suffices to rule the flag out everywhere.
  for (const GroupGeometry &GG : Geom)
    if (FreshWalk(GG, NL).AddrSensitive)
      return Fail("alignment-dependent interleaved streams of " +
                  GG.Group->Leader->Buffer);

  // L1 fresh misses of one cold sweep under prefix [0, K).
  auto FreshL1 = [&](const GroupGeometry &GG, size_t K) {
    if (!Arch.L1NextLinePrefetcher)
      return GroupLineBytes(GG, K) / static_cast<double>(LineBytes);
    return FreshWalk(GG, K).Misses;
  };

  // L2 fresh misses: with the next-line path on, covered line bodies are
  // prefetch-filled into the L2 as a side effect of the L1 fills, so only
  // the L1 misses reach the L2 as demand accesses. Those form a
  // constant-stride stream the per-4KB-page streamer covers after ~3
  // training misses per page when the stride fits its window.
  auto FreshL2 = [&](const GroupGeometry &GG, size_t K) {
    double Lines = GroupLineBytes(GG, K) / static_cast<double>(LineBytes);
    if (!Arch.L1NextLinePrefetcher) {
      double Pages =
          std::max(1.0, Lines * static_cast<double>(LineBytes) / 4096.0);
      return std::min(Lines, 3.0 * Pages + 1.0);
    }
    FreshInfo F = FreshWalk(GG, K);
    if (F.Misses <= 1.0)
      return 1.0; // single stream: body prefilled, only the head misses
    if (F.StreamStride > 0 &&
        F.StreamStride <= Arch.L2MaxPrefetchDistance * LineBytes &&
        Arch.L2PrefetchDegree > 0) {
      double Pages = std::max(1.0, GroupLineBytes(GG, K) / 4096.0);
      return std::min(F.Misses, std::max(1.0, 3.0 * Pages));
    }
    return F.Misses; // stream stride outside the streamer's window
  };

  // ---- Replay recurrence (the generalized Eq. 5/10 pivot collapse). -----
  // Walk the nest inside-out. An advancing loop grows the fresh footprint
  // (misses become the cold-sweep cost of the larger prefix) — unless an
  // inner non-advancing loop already overflowed the level, in which case
  // the sweep repeats and the misses multiply. A non-advancing loop whose
  // one-iteration footprint exceeds the level evicts the group between
  // iterations and multiplies the misses; if it fits, iterations replay
  // from cache for free.
  auto GroupMisses = [&](const GroupGeometry &GG, const CacheParams &Cache,
                         auto &&Fresh) {
    double M = Fresh(GG, 0);
    bool Replayed = false;
    for (size_t J = 0; J != NL; ++J) {
      if (GG.Uses[J]) {
        if (Replayed)
          M *= static_cast<double>(Nest[J].Trip);
        else
          M = Fresh(GG, J + 1);
      } else if (!Resident(J, Cache)) {
        M *= static_cast<double>(Nest[J].Trip);
        Replayed = true;
      }
    }
    return M;
  };

  // LTP_MODEL_DEBUG=1 prints the per-group attribution (calibration aid).
  static const bool Debug = std::getenv("LTP_MODEL_DEBUG") != nullptr;
  for (const GroupGeometry &GG : Geom) {
    double G1 = GroupMisses(GG, Arch.L1, FreshL1);
    double G2 = GroupMisses(GG, Arch.L2, FreshL2);
    if (Debug) {
      std::fprintf(stderr, "  model %-8s L1=%-10.4g L2=%-10.4g nest",
                   GG.Group->Leader->Buffer.c_str(), G1, G2);
      for (size_t J = 0; J != NL; ++J)
        std::fprintf(stderr, " %s[%lld/%lld]%s", Nest[J].Origin.c_str(),
                     static_cast<long long>(Nest[J].Trip),
                     static_cast<long long>(Nest[J].Stride),
                     GG.Uses[J] ? "*" : "");
      std::fprintf(stderr, "\n");
    }
    P.L1Misses += G1;
    P.L2Misses += G2;
  }
  P.Analytic = true;
  return P;
}
