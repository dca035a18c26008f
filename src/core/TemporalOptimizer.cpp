//===- TemporalOptimizer.cpp - temporal-reuse optimizer (Algorithm 2) ----===//

#include "core/TemporalOptimizer.h"

#include "analysis/IRVerify.h"
#include "model/CacheEmu.h"
#include "model/NestScorer.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <set>

using namespace ltp;

namespace {

/// Doubling tile-size candidates: Step, 2*Step, 4*Step, ... plus the
/// bound and the full extent when they qualify. Sorted ascending, unique.
std::vector<int64_t> tileCandidates(int64_t Step, int64_t Bound,
                                    int64_t Extent, bool IncludeFull,
                                    int MaxCount) {
  Bound = std::min(Bound, Extent);
  std::set<int64_t> Set;
  for (int64_t T = std::max<int64_t>(1, Step); T <= Bound && T > 0; T *= 2)
    Set.insert(T);
  if (Bound >= 1)
    Set.insert(Bound);
  if (IncludeFull && Extent <= Bound)
    Set.insert(Extent);
  std::vector<int64_t> Out(Set.begin(), Set.end());
  // Keep the largest candidates when trimming: small tiles rarely win and
  // the bound itself must stay in play.
  if (static_cast<int>(Out.size()) > MaxCount)
    Out.erase(Out.begin(), Out.end() - MaxCount);
  return Out;
}

const LoopInfo *findLoop(const StageAccessInfo &Info,
                         const std::string &Name) {
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.Name == Name)
      return &Loop;
  return nullptr;
}

/// Recursively enumerates tile choices for the dense tile vector slots in
/// `Choices[Depth..]` and calls \p Visit for every complete assignment.
void enumerateTiles(
    const std::vector<std::pair<int, std::vector<int64_t>>> &Choices,
    size_t Depth, int64_t *Tiles, const std::function<void()> &Visit) {
  if (Depth == Choices.size()) {
    Visit();
    return;
  }
  for (int64_t T : Choices[Depth].second) {
    Tiles[Choices[Depth].first] = T;
    enumerateTiles(Choices, Depth + 1, Tiles, Visit);
  }
}

/// All permutations of \p Items via Heap's algorithm, visiting each.
void forEachPermutation(std::vector<std::string> Items,
                        const std::function<void(
                            const std::vector<std::string> &)> &Visit) {
  std::sort(Items.begin(), Items.end());
  do {
    Visit(Items);
  } while (std::next_permutation(Items.begin(), Items.end()));
}

} // namespace

TemporalSchedule ltp::optimizeTemporal(const StageAccessInfo &Info,
                                       const ArchParams &Arch,
                                       const TemporalOptions &Options) {
  obs::ScopedSpan Span("opt.temporal");
  assert(Info.Loops.size() >= 2 && "temporal optimizer needs a loop nest");
  // The column loop is the one streamed innermost and vectorized: every
  // operand is contiguous or invariant along it (a reduction loop such as
  // syrk's `k` when the output's own column loop strides an input).
  const std::string Column = Info.streamColumnVar();
  const LoopInfo *ColumnLoop = findLoop(Info, Column);
  assert(ColumnLoop && "output column variable is not a loop");
  const int64_t Bc = ColumnLoop->Extent;
  const int64_t Lc =
      std::max<int64_t>(1, Arch.L1.LineBytes / Info.DTS);

  // Loops that participate in tiling and permutation.
  std::vector<const LoopInfo *> BigLoops;
  std::vector<const LoopInfo *> SmallLoops;
  for (const LoopInfo &Loop : Info.Loops) {
    if (Loop.Extent > Options.SmallLoopExtent)
      BigLoops.push_back(&Loop);
    else
      SmallLoops.push_back(&Loop);
  }

  const int64_t L1Elems = Arch.L1.SizeBytes / Info.DTS;
  const int64_t L2Elems = Arch.L2.SizeBytes / Info.DTS;
  const int64_t L2Budget = Options.NoL2SetHalving ? L2Elems : L2Elems / 2;
  const int TotalThreads = Arch.totalThreads();
  const int64_t MaxExtent = [&] {
    int64_t M = 1;
    for (const LoopInfo &Loop : Info.Loops)
      M = std::max(M, Loop.Extent);
    return M;
  }();

  // Column-tile candidates: multiples of the vector width. The column
  // intra-tile loop is vectorized, so its tile stays within the back
  // end's vector-extent limit.
  const int64_t MaxVectorTile =
      Arch.VectorWidth > 1 ? analysis::IRVerifyOptions::MaxVectorExtent : Bc;
  std::vector<int64_t> ColumnCandidates =
      tileCandidates(Arch.VectorWidth, std::min(Bc, MaxVectorTile), Bc,
                     /*IncludeFull=*/true, Options.MaxCandidatesPerDim);

  TemporalSchedule Best;
  Best.Cost = -1.0;

  // Decision provenance (--explain): one record per candidate visited,
  // including the reason a candidate was pruned. Kept strictly out of the
  // search itself so enabling it cannot perturb the chosen schedule.
  const bool Explain = obs::explainEnabled();
  static obs::Counter &CandidateCounter = obs::counter("opt.candidates");

  // The stage's access functions are compiled once into the dense
  // NestScorer, so every candidate scores without string hashing or map
  // lookups.
  const model::NestScorer Scorer(Info, Arch);
  const size_t NumLoops = Info.Loops.size();
  std::vector<int64_t> Dense(NumLoops, 1);
  const int ColumnIdx = Scorer.loopIndex(Column);
  assert(ColumnIdx >= 0 && "column variable is not a loop");

  // Near-tie volume tiebreak multiplies in name order, matching the
  // TileMap iteration that computes the best candidate's volume.
  std::vector<int> VolOrder(NumLoops);
  for (size_t I = 0; I != NumLoops; ++I)
    VolOrder[I] = static_cast<int>(I);
  std::sort(VolOrder.begin(), VolOrder.end(), [&](int A, int B) {
    return Info.Loops[A].Name < Info.Loops[B].Name;
  });

  // Parallel-candidate loops (Eq. 13), resolved to dense indices once,
  // and every loop's extent by dense index (to count tiled loops).
  std::vector<std::pair<const LoopInfo *, int>> ParCandidates;
  for (const LoopInfo *Loop : BigLoops)
    if (!Loop->IsReduction && Loop->Name != Column)
      ParCandidates.emplace_back(Loop, Scorer.loopIndex(Loop->Name));
  std::vector<int64_t> DenseExtents(NumLoops);
  for (const LoopInfo &Loop : Info.Loops)
    DenseExtents[static_cast<size_t>(Scorer.loopIndex(Loop.Name))] =
        Loop.Extent;

  // Algorithm 1 bounds per column tile: L1 rows of width Tc, then L2 rows
  // with the constant-stride prefetcher active. They depend on Tc alone,
  // so they are emulated once here rather than for every (u, v) pair —
  // and not at all when no loop can be u.
  std::vector<std::pair<int64_t, int64_t>> TileBounds; // (MaxT1, MaxT2)
  const bool HasPivot = std::any_of(
      BigLoops.begin(), BigLoops.end(),
      [&](const LoopInfo *Loop) { return Loop->Name != Column; });
  if (HasPivot) {
    for (int64_t Tc : ColumnCandidates) {
      obs::ScopedSpan EmuSpan("opt.cacheemu", [&] {
        return strFormat("tc=%lld", static_cast<long long>(Tc));
      });
      TileBounds.emplace_back(
          algorithm1Bound(Arch, EmuLevel::L1, Info.DTS, Tc, Bc, MaxExtent),
          algorithm1Bound(Arch, EmuLevel::L2, Info.DTS, Tc, Bc, MaxExtent,
                          !Options.NoL2SetHalving));
    }
  }

  // ---- Step 1: tile sizes + reuse pivots. --------------------------------
  // u: outermost intra-tile loop (L1 reuse); v: innermost inter-tile loop
  // (L2 reuse). Ctotal depends on the permutations only through (u, v).
  for (const LoopInfo *U : BigLoops) {
    if (U->Name == Column)
      continue; // the column loop must not be the outermost intra loop
    const int UIdx = Scorer.loopIndex(U->Name);
    for (const LoopInfo *V : BigLoops) {
      const int VIdx = Scorer.loopIndex(V->Name);
      for (size_t TcIdx = 0; TcIdx != ColumnCandidates.size(); ++TcIdx) {
        const int64_t Tc = ColumnCandidates[TcIdx];
        const int64_t MaxT1 = TileBounds[TcIdx].first;
        const int64_t MaxT2 = TileBounds[TcIdx].second;

        // Build per-loop candidate lists.
        std::vector<std::pair<int, std::vector<int64_t>>> Choices;
        bool Feasible = true;
        for (const LoopInfo *Loop : BigLoops) {
          if (Loop->Name == Column)
            continue;
          std::vector<int64_t> Cands;
          if (Loop == U && Loop == V) {
            // Same loop carries both reuse pivots: honour both the L1
            // bound and the must-be-tiled requirement of the innermost
            // inter-tile loop.
            Cands = tileCandidates(
                2, std::min({MaxT1, MaxT2, Loop->Extent - 1}),
                Loop->Extent, /*IncludeFull=*/false,
                Options.MaxCandidatesPerDim);
          } else if (Loop == U) {
            Cands = tileCandidates(2, std::min(MaxT1, Loop->Extent),
                                   Loop->Extent, /*IncludeFull=*/false,
                                   Options.MaxCandidatesPerDim);
          } else if (Loop == V) {
            // The innermost inter-tile loop must actually be tiled.
            Cands = tileCandidates(2, std::min(MaxT2, Loop->Extent - 1),
                                   Loop->Extent, /*IncludeFull=*/false,
                                   Options.MaxCandidatesPerDim);
          } else {
            Cands = tileCandidates(Lc, Loop->Extent, Loop->Extent,
                                   /*IncludeFull=*/true, 4);
          }
          if (Cands.empty())
            Feasible = false;
          Choices.emplace_back(Scorer.loopIndex(Loop->Name), Cands);
        }
        if (!Feasible)
          continue;
        if (V->Name == Column && (Tc >= Bc || Tc > MaxT2))
          continue; // v must be tiled and within the L2 emulation bound

        for (const LoopInfo &Loop : Info.Loops)
          Dense[static_cast<size_t>(Scorer.loopIndex(Loop.Name))] =
              Loop.Extent;
        Dense[static_cast<size_t>(ColumnIdx)] = Tc;

        // Only called under --explain; the predicted misses are recomputed
        // with the search's own scorer so the record is self-contained even
        // for candidates pruned before their cost was evaluated.
        auto Record = [&](bool Accepted, const char *Reason, double Cost) {
          TileMap Tiles = Scorer.toTileMap(Dense.data());
          std::vector<std::string> Parts;
          for (const auto &[Var, T] : Tiles)
            Parts.push_back(strFormat("%s=%lld", Var.c_str(),
                                      static_cast<long long>(T)));
          obs::CandidateRecord R;
          R.Candidate = "tiles{" + join(Parts, ", ") + "} u=" + U->Name +
                        " v=" + V->Name;
          R.PredL1Misses = Scorer.l1Misses(Dense.data(), UIdx);
          R.PredL2Misses = Scorer.l2Misses(Dense.data(), VIdx);
          R.Cost = Cost;
          R.Accepted = Accepted;
          R.Reason = Reason;
          obs::recordCandidate(std::move(R));
        };

        enumerateTiles(Choices, 0, Dense.data(), [&] {
          CandidateCounter.add();

          // Working-set fit: wsL1 is the footprint of one iteration of
          // the outermost intra-tile loop (Eq. 1); wsL2 is the whole
          // tile (Eq. 6) against the prefetch-reduced L2 budget.
          const int64_t WsL1 = Scorer.workingSetPivotOne(Dense.data(), UIdx);
          if (WsL1 > L1Elems) {
            if (Explain)
              Record(false, "ws-L1 overflow", -1.0);
            return;
          }
          const int64_t WsL2 = Scorer.workingSet(Dense.data());
          if (WsL2 > L2Budget) {
            if (Explain)
              Record(false, "ws-L2 overflow", -1.0);
            return;
          }

          // Eq. 13: the loop we will parallelize must give every thread
          // at least one inter-tile iteration, and Step 2 must be able to
          // put it outermost: it cannot be v, the innermost inter-tile
          // loop, unless v is the only tiled loop. Nests whose only pure
          // loop is the column loop (1-D outputs such as atax/mvt) have no
          // parallel candidate; the constraint is then vacuous.
          int TiledLoops = 0;
          for (size_t I = 0; I != NumLoops; ++I)
            TiledLoops += Dense[I] < DenseExtents[I];
          std::string ParallelVar;
          int64_t BestTrip = 1;
          for (const auto &[Loop, Idx] : ParCandidates) {
            if (Idx == VIdx && TiledLoops > 1)
              continue;
            int64_t Trip = interTrip(Loop->Extent,
                                     Dense[static_cast<size_t>(Idx)]);
            if (Trip > BestTrip) {
              BestTrip = Trip;
              ParallelVar = Loop->Name;
            }
          }
          if (!Options.IgnoreParallelConstraint && TotalThreads > 1 &&
              !ParCandidates.empty() && BestTrip < TotalThreads) {
            if (Explain)
              Record(false, "parallelism constraint", -1.0);
            return;
          }

          const double Cost =
              Options.PrefetchUnawareModel
                  ? Arch.A2 * Scorer.l1MissesNoPrefetch(Dense.data(), UIdx,
                                                        Lc) +
                        Arch.A3 * Scorer.l2MissesNoPrefetch(Dense.data(),
                                                            VIdx, Lc)
                  : Scorer.cost(Dense.data(), UIdx, VIdx);
          if (Best.Cost >= 0.0) {
            if (Cost > Best.Cost * (1.0 + 1e-9)) {
              if (Explain)
                Record(false, "cost above best", Cost);
              return;
            }
            // Near-tie: prefer the larger intra-tile volume — fewer,
            // fatter tiles mean less loop overhead and give the back-end
            // compiler more room to register-block (not captured by the
            // miss model).
            if (Cost >= Best.Cost * (1.0 - 1e-9)) {
              double NewVolume = 1.0, OldVolume = 1.0;
              for (int I : VolOrder)
                NewVolume *=
                    static_cast<double>(Dense[static_cast<size_t>(I)]);
              for (const auto &[Var, T] : Best.Tiles)
                OldVolume *= static_cast<double>(T);
              if (NewVolume <= OldVolume) {
                if (Explain)
                  Record(false, "near-tie, smaller tile volume", Cost);
                return;
              }
            }
          }

          if (Explain)
            Record(true, "best so far", Cost);
          Best.Cost = Cost;
          Best.Tiles = Scorer.toTileMap(Dense.data());
          Best.MaxT1 = MaxT1;
          Best.MaxT2 = MaxT2;
          Best.WsL1 = WsL1;
          Best.WsL2 = WsL2;
          Best.ParallelVar = ParallelVar;
          // Stash the pivots in the order fields; Step 2 rebuilds them.
          Best.IntraOrder = {U->Name};
          Best.InterOrder = {V->Name};
        });
      }
    }
  }
  if (Best.Cost < 0.0) {
    // No feasible tiling — e.g. the only big loop is the column loop (a
    // 1-D kernel with a small reduction window), or the caches are too
    // small for any candidate. Fall back to an untiled schedule: default
    // order, vectorized column loop. The statement still benefits from
    // the prefetchers, matching the paper's treatment of untileable
    // nests.
    for (const LoopInfo &Loop : Info.Loops)
      Best.Tiles[Loop.Name] = Loop.Extent;
    Best.Cost = 0.0;
    Best.IntraOrder.clear();
    Best.IntraOrder.push_back(Column);
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name != Column)
        Best.IntraOrder.push_back(Loop.Name);
    Best.InterOrder.clear();
    // Parallelize the largest pure non-column loop (if any).
    int64_t BestExtent = 0;
    for (const LoopInfo &Loop : Info.Loops)
      if (!Loop.IsReduction && Loop.Name != Column &&
          Loop.Extent > BestExtent) {
        BestExtent = Loop.Extent;
        Best.ParallelVar = Loop.Name;
      }
    if (!Best.ParallelVar.empty()) {
      // Keep the parallel loop outermost in the intra order.
      Best.IntraOrder.erase(std::remove(Best.IntraOrder.begin(),
                                        Best.IntraOrder.end(),
                                        Best.ParallelVar),
                            Best.IntraOrder.end());
      Best.IntraOrder.push_back(Best.ParallelVar);
    }
    if (Arch.VectorWidth > 1 && Bc >= Arch.VectorWidth &&
        Bc <= analysis::IRVerifyOptions::MaxVectorExtent) {
      Best.VectorVar = Column;
      Best.VectorWidth = Arch.VectorWidth;
    }
    if (Explain) {
      obs::CandidateRecord R;
      R.Candidate = "untiled intra[" + join(Best.IntraOrder, ",") + "]";
      R.Accepted = true;
      R.Reason = "no feasible tiling; untiled fallback";
      obs::recordCandidate(std::move(R));
    }
    return Best;
  }

  const std::string U = Best.IntraOrder.front();
  const std::string V = Best.InterOrder.front();

  obs::ScopedSpan Step2Span("opt.step2");

  // ---- Step 2: loop order minimizing Corder (Eq. 12). --------------------
  // Intra order (innermost first): column loop innermost, then the small
  // loops, then the remaining big loops with u outermost. Inter order:
  // v innermost; the parallel loop outermost.
  std::vector<std::string> IntraFixedPrefix;
  IntraFixedPrefix.push_back(Column);
  for (const LoopInfo *Loop : SmallLoops)
    if (Loop->Name != Column)
      IntraFixedPrefix.push_back(Loop->Name);

  std::vector<std::string> IntraMiddles;
  for (const LoopInfo *Loop : BigLoops)
    if (Loop->Name != Column && Loop->Name != U)
      IntraMiddles.push_back(Loop->Name);

  std::vector<std::string> TiledLoops;
  for (const LoopInfo &Loop : Info.Loops)
    if (Best.Tiles.at(Loop.Name) < Loop.Extent)
      TiledLoops.push_back(Loop.Name);

  std::vector<std::string> InterMiddles;
  for (const std::string &Name : TiledLoops)
    if (Name != V && Name != Best.ParallelVar)
      InterMiddles.push_back(Name);

  auto BuildIntra =
      [&](const std::vector<std::string> &Middles) {
        std::vector<std::string> Order = IntraFixedPrefix;
        Order.insert(Order.end(), Middles.begin(), Middles.end());
        Order.push_back(U);
        return Order;
      };
  auto BuildInter =
      [&](const std::vector<std::string> &Middles) {
        std::vector<std::string> Order;
        if (std::count(TiledLoops.begin(), TiledLoops.end(), V))
          Order.push_back(V);
        Order.insert(Order.end(), Middles.begin(), Middles.end());
        if (!Best.ParallelVar.empty() && Best.ParallelVar != V &&
            std::count(TiledLoops.begin(), TiledLoops.end(),
                       Best.ParallelVar))
          Order.push_back(Best.ParallelVar);
        return Order;
      };

  if (Options.SkipReorderStep) {
    Best.IntraOrder = BuildIntra(IntraMiddles);
    Best.InterOrder = BuildInter(InterMiddles);
    Best.OrderCostValue =
        orderCost(Info, Best.Tiles, Best.IntraOrder, Best.InterOrder);
  } else {
    double BestOrder = -1.0;
    forEachPermutation(IntraMiddles, [&](const std::vector<std::string>
                                             &IntraPerm) {
      std::vector<std::string> Intra = BuildIntra(IntraPerm);
      forEachPermutation(InterMiddles, [&](const std::vector<std::string>
                                               &InterPerm) {
        std::vector<std::string> Inter = BuildInter(InterPerm);
        double C = orderCost(Info, Best.Tiles, Intra, Inter);
        if (BestOrder < 0.0 || C < BestOrder) {
          BestOrder = C;
          Best.IntraOrder = Intra;
          Best.InterOrder = Inter;
        }
      });
    });
    Best.OrderCostValue = BestOrder;
  }

  // Step 1 only picks a tiled parallel loop that Step 2 can put outermost.
  assert((Best.ParallelVar.empty() ||
          (!Best.InterOrder.empty() &&
           Best.InterOrder.back() == Best.ParallelVar)) &&
         "the parallel loop must be the outermost inter-tile loop");

  // Fuse the two outermost inter-tile loops when the outermost alone does
  // not expose enough parallelism (Section 3.2: "we fuse the outer
  // inter-tile loops when possible to reduce loop overhead and further
  // exploit parallelism").
  if (Best.InterOrder.size() >= 2 && !Best.ParallelVar.empty()) {
    const std::string &Second = Best.InterOrder[Best.InterOrder.size() - 2];
    const LoopInfo *OuterLoop = findLoop(Info, Best.ParallelVar);
    const LoopInfo *SecondLoop = findLoop(Info, Second);
    int64_t OuterTrip =
        interTrip(OuterLoop->Extent, Best.Tiles.at(Best.ParallelVar));
    if (!SecondLoop->IsReduction && OuterTrip < 2 * TotalThreads)
      Best.FuseOuterInter = true;
  }

  // Vectorize the column intra-tile loop.
  if (Arch.VectorWidth > 1 &&
      Best.Tiles.at(Column) >= Arch.VectorWidth) {
    Best.VectorVar = Column;
    Best.VectorWidth = Arch.VectorWidth;
  }

  // Register tiling: unroll-and-jam the outermost intra-tile loop when it
  // carries register-level reuse — the output is indexed by it while some
  // input that the vectorized column loop streams through is not, so each
  // jammed copy reuses that operand's vector load and keeps its own
  // accumulator in registers across the reduction loops (the matmul/
  // syrk pattern). The back end re-checks dependence legality and falls
  // back to a plain unroll pragma when the jam cannot be proven safe. A
  // predicated stage (trmm's triangular domain) puts its guard between
  // the jam and vector loops, where no jammed form applies and the
  // fallback unroll only doubles the run time: no jam there.
  if (!Best.VectorVar.empty() && U != Column && !Info.HasPredicates) {
    const LoopInfo *ULoop = findLoop(Info, U);
    const ArrayAccess *Output = nullptr;
    for (const ArrayAccess &A : Info.Accesses)
      if (A.IsOutput)
        Output = &A;
    bool OutputAdvances =
        Output && Output->indexVars().contains(U) && ULoop &&
        !ULoop->IsReduction;
    bool InputReused = false;
    for (const ArrayAccess *In : Info.inputs()) {
      std::set<std::string> Vars = In->indexVars();
      if (Vars.contains(Best.VectorVar) && !Vars.contains(U))
        InputReused = true;
    }
    // Each jam copy costs one accumulator load+store per vector
    // iteration, repaid across the reduction trips between the jam and
    // vector loops. Long trips afford eight copies (eight independent
    // accumulator chains cover FMA latency on two issue ports, and
    // AVX2's sixteen vector registers fit them); short trips cap at
    // four so the accumulator traffic stays amortized.
    int64_t RedTrips = 1;
    for (size_t I = 1; I + 1 < Best.IntraOrder.size(); ++I) {
      const std::string &Mid = Best.IntraOrder[I];
      auto It = Best.Tiles.find(Mid);
      const LoopInfo *MidLoop = findLoop(Info, Mid);
      RedTrips *= It != Best.Tiles.end() ? It->second
                  : MidLoop             ? MidLoop->Extent
                                        : 1;
    }
    int64_t Factor =
        std::min<int64_t>(RedTrips >= 32 ? 8 : 4, Best.Tiles.at(U));
    if (OutputAdvances && InputReused && Factor >= 2) {
      Best.UnrollJamVar = U;
      Best.UnrollJamFactor = static_cast<int>(Factor);
    }
  }

  return Best;
}

void ltp::applyTemporalSchedule(Func &F, int StageIndex,
                                const TemporalSchedule &Schedule,
                                const StageAccessInfo &Info) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);

  // Splits.
  std::set<std::string> Tiled;
  for (const LoopInfo &Loop : Info.Loops) {
    int64_t T = Schedule.Tiles.at(Loop.Name);
    if (T < Loop.Extent) {
      S.split(Loop.Name, Loop.Name + "_t", Loop.Name + "_i", T);
      Tiled.insert(Loop.Name);
    }
  }

  // Reorder, innermost first: intra block then inter block.
  std::vector<VarName> Order;
  for (const std::string &Name : Schedule.IntraOrder)
    Order.push_back(Tiled.contains(Name) ? Name + "_i" : Name);
  for (const std::string &Name : Schedule.InterOrder)
    Order.push_back(Name + "_t");
  S.reorder(Order);

  // Fusion + parallelization of the outer inter-tile loops.
  if (Schedule.FuseOuterInter && Schedule.InterOrder.size() >= 2) {
    const std::string Outer = Schedule.InterOrder.back() + "_t";
    const std::string Second =
        Schedule.InterOrder[Schedule.InterOrder.size() - 2] + "_t";
    S.fuse(Outer, Second, "fused_outer");
    S.parallel("fused_outer");
  } else if (!Schedule.ParallelVar.empty()) {
    // An untiled parallel variable (the no-feasible-tiling fallback) has
    // no inter-tile loop; parallelize the loop itself.
    S.parallel(Tiled.contains(Schedule.ParallelVar)
                   ? Schedule.ParallelVar + "_t"
                   : Schedule.ParallelVar);
  }

  // Vectorization of the column loop.
  if (!Schedule.VectorVar.empty() && Schedule.VectorWidth > 1) {
    std::string Name = Tiled.contains(Schedule.VectorVar)
                           ? Schedule.VectorVar + "_i"
                           : Schedule.VectorVar;
    S.vectorize(Name);
  }

  // Register tiling of the outermost intra-tile loop.
  if (!Schedule.UnrollJamVar.empty() && Schedule.UnrollJamFactor > 1) {
    std::string Name = Tiled.contains(Schedule.UnrollJamVar)
                           ? Schedule.UnrollJamVar + "_i"
                           : Schedule.UnrollJamVar;
    S.unrollJam(Name, Schedule.UnrollJamFactor);
  }
}

std::string ltp::describeTemporalSchedule(const TemporalSchedule &Schedule) {
  std::vector<std::string> TileText;
  for (const auto &[Var, Tile] : Schedule.Tiles)
    TileText.push_back(strFormat("%s=%lld", Var.c_str(),
                                 static_cast<long long>(Tile)));
  std::string Out = "tiles{" + join(TileText, ", ") + "}";
  Out += " intra[" + join(Schedule.IntraOrder, ",") + "]";
  Out += " inter[" + join(Schedule.InterOrder, ",") + "]";
  if (!Schedule.ParallelVar.empty())
    Out += Schedule.FuseOuterInter
               ? " parallel(fused:" + Schedule.ParallelVar + ")"
               : " parallel(" + Schedule.ParallelVar + ")";
  if (!Schedule.VectorVar.empty())
    Out += strFormat(" vectorize(%s, %d)", Schedule.VectorVar.c_str(),
                     Schedule.VectorWidth);
  if (!Schedule.UnrollJamVar.empty())
    Out += strFormat(" unroll_jam(%s, %d)", Schedule.UnrollJamVar.c_str(),
                     Schedule.UnrollJamFactor);
  Out += strFormat(" cost=%.3g order=%.3g maxT1=%lld maxT2=%lld",
                   Schedule.Cost, Schedule.OrderCostValue,
                   static_cast<long long>(Schedule.MaxT1),
                   static_cast<long long>(Schedule.MaxT2));
  return Out;
}
