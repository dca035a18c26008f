//===- Baselines.cpp - comparison schedulers (Section 5) -----------------===//

#include "baselines/Baselines.h"

#include "model/CacheEmu.h"
#include "model/NestScorer.h"

#include <algorithm>
#include <cassert>

using namespace ltp;

namespace {

/// Parallel outer + vectorized inner for one stage.
void parVecStage(Func &F, int StageIndex, const StageAccessInfo &Info,
                 const ArchParams &Arch) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);
  // Reorder so reduction loops sit between the column loop and the outer
  // pure loops — the classic hand-written i/k/j nest for matmul-likes.
  std::vector<VarName> Order;
  const std::string Column = Info.Loops.front().Name;
  Order.push_back(Column);
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.IsReduction)
      Order.push_back(Loop.Name);
  std::string OutermostPure;
  for (const LoopInfo &Loop : Info.Loops)
    if (!Loop.IsReduction && Loop.Name != Column) {
      Order.push_back(Loop.Name);
      OutermostPure = Loop.Name;
    }
  if (Order.size() > 1)
    S.reorder(Order);
  if (!OutermostPure.empty() && Arch.NCores > 1)
    S.parallel(OutermostPure);
  if (Arch.VectorWidth > 1 &&
      Info.Loops.front().Extent >= Arch.VectorWidth)
    S.vectorize(Column);
}

int64_t floorPow2(int64_t V) {
  int64_t P = 1;
  while (P * 2 <= V)
    P *= 2;
  return P;
}

} // namespace

void ltp::applyBaselineSchedule(Func &F,
                                const std::vector<int64_t> &OutputExtents,
                                const ArchParams &Arch) {
  F.clearSchedules();
  for (int StageIdx = -1; StageIdx != F.numUpdates(); ++StageIdx) {
    StageAccessInfo Info = analyzeStage(F, StageIdx, OutputExtents);
    parVecStage(F, StageIdx, Info, Arch);
  }
}

void ltp::applyAutoSchedulerSchedule(
    Func &F, const std::vector<int64_t> &OutputExtents,
    const ArchParams &Arch) {
  F.clearSchedules();

  // Init stages get the plain treatment; the compute stage is tiled.
  int ComputeStage = F.computeStageIndex();
  for (int StageIdx = -1; StageIdx != F.numUpdates(); ++StageIdx) {
    StageAccessInfo Info = analyzeStage(F, StageIdx, OutputExtents);
    if (StageIdx != ComputeStage) {
      parVecStage(F, StageIdx, Info, Arch);
      continue;
    }

    // Square power-of-two tile over the pure (output) dimensions, sized so
    // the footprint with unit reduction slices fits the single modeled
    // cache level (L2). Reduction loops are never tiled — the documented
    // Auto-Scheduler limitation the paper contrasts against.
    std::vector<const LoopInfo *> PureLoops;
    for (const LoopInfo &Loop : Info.Loops)
      if (!Loop.IsReduction)
        PureLoops.push_back(&Loop);
    const int64_t Budget = Arch.L2.SizeBytes / Info.DTS;
    const model::NestScorer Scorer(Info, Arch);

    int64_t Tile = std::max<int64_t>(Arch.VectorWidth, 8);
    for (;;) {
      int64_t Next = Tile * 2;
      std::vector<int64_t> Tiles;
      for (const LoopInfo &Loop : Info.Loops)
        Tiles.push_back(Loop.IsReduction ? 1 : std::min(Next, Loop.Extent));
      bool Fits = Scorer.workingSet(Tiles.data()) <= Budget;
      bool Grew = false;
      for (const LoopInfo *Loop : PureLoops)
        Grew |= std::min(Next, Loop->Extent) > std::min(Tile, Loop->Extent);
      if (!Fits || !Grew)
        break;
      Tile = Next;
    }

    Stage Sched = ComputeStage < 0 ? F.pureStage() : F.update(ComputeStage);
    std::vector<VarName> Order;
    std::vector<std::string> InterNames;
    for (const LoopInfo *Loop : PureLoops) {
      int64_t T = std::min(Tile, floorPow2(Loop->Extent));
      if (T < Loop->Extent) {
        Sched.split(Loop->Name, Loop->Name + "_t", Loop->Name + "_i", T);
        Order.push_back(Loop->Name + "_i");
        InterNames.push_back(Loop->Name + "_t");
      } else {
        Order.push_back(Loop->Name);
      }
    }
    // Reduction loops run between the intra-tile block and the tile loops
    // (the output tile stays resident while the reduction streams).
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.IsReduction)
        Order.push_back(Loop.Name);
    for (const std::string &Name : InterNames)
      Order.push_back(Name);
    Sched.reorder(Order);
    if (!InterNames.empty() && Arch.NCores > 1)
      Sched.parallel(InterNames.back());
    const LoopInfo &Column = Info.Loops.front();
    if (Arch.VectorWidth > 1 && Column.Extent >= Arch.VectorWidth) {
      std::string Name =
          std::min(Tile, floorPow2(Column.Extent)) < Column.Extent
              ? Column.Name + "_i"
              : Column.Name;
      Sched.vectorize(Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// TSS / TTS tile-size selection
//===----------------------------------------------------------------------===//

namespace {

/// Shared search used by TSS and TTS: prefetch-unaware miss model with
/// per-model cache budgets and emulation bounds. Loop permutations are
/// granted for free (Section 5.2), so the pivot search mirrors the
/// proposed optimizer's; only the model differs.
struct LevelBudgets {
  CacheParams InnerCache;  // the level the intra-tile working set targets
  CacheParams OuterCache;  // the level whole tiles target
  int64_t InnerBudgetElems;
  int64_t OuterBudgetElems;
};

TemporalSchedule optimizePrefetchUnaware(const StageAccessInfo &Info,
                                         const ArchParams &Arch,
                                         const LevelBudgets &Budgets) {
  const std::string Column = Info.outputColumnVar();
  const LoopInfo *ColumnLoop = nullptr;
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.Name == Column)
      ColumnLoop = &Loop;
  assert(ColumnLoop && "column loop missing");
  const int64_t Bc = ColumnLoop->Extent;
  const int64_t Lc = std::max<int64_t>(1, Arch.L1.LineBytes / Info.DTS);

  std::vector<const LoopInfo *> BigLoops;
  std::vector<const LoopInfo *> SmallLoops;
  for (const LoopInfo &Loop : Info.Loops) {
    if (Loop.Extent > 8)
      BigLoops.push_back(&Loop);
    else
      SmallLoops.push_back(&Loop);
  }

  const model::NestScorer Scorer(Info, Arch);
  const int ColumnIdx = Scorer.loopIndex(Column);
  std::vector<int64_t> Tiles(Info.Loops.size());
  TemporalSchedule Best;
  Best.Cost = -1.0;
  for (const LoopInfo *U : BigLoops) {
    if (U->Name == Column)
      continue;
    const int UIdx = Scorer.loopIndex(U->Name);
    // The emulated bound on Tu depends on (U, Tc) only: one call per
    // column tile, shared by every V.
    std::vector<int64_t> MaxTUs;
    for (int64_t Tc = Arch.VectorWidth; Tc <= Bc; Tc *= 2) {
      CacheEmuParams Emu;
      Emu.Cache = Budgets.InnerCache;
      Emu.L1LineBytes = Arch.L1.LineBytes;
      Emu.DTS = Info.DTS;
      Emu.PrevTileElems = Tc;
      Emu.RowStrideElems = Bc;
      Emu.EffectiveWaysDivisor = std::max(1, Arch.NThreadsPerCore);
      Emu.MaxRows = U->Extent;
      Emu.NoPrefetchPadding = true;
      MaxTUs.push_back(emulateMaxTileDim(Emu));
    }
    for (const LoopInfo *V : BigLoops) {
      if (V->Name == Column)
        continue; // keep the column dimension for the intra tile only
      const int VIdx = Scorer.loopIndex(V->Name);
      size_t TcIdx = 0;
      for (int64_t Tc = Arch.VectorWidth; Tc <= Bc; Tc *= 2) {
        const int64_t MaxTU = MaxTUs[TcIdx++];

        for (int64_t Tu = 2; Tu <= std::min(MaxTU, U->Extent); Tu *= 2) {
          for (int64_t Tv = 2; Tv < V->Extent; Tv *= 2) {
            for (size_t L = 0; L != Info.Loops.size(); ++L)
              Tiles[L] = Info.Loops[L].Extent;
            Tiles[ColumnIdx] = std::min(Tc, Bc);
            Tiles[UIdx] = Tu;
            Tiles[VIdx] = Tv;
            for (const LoopInfo *Loop : BigLoops)
              if (Loop != U && Loop != V && Loop->Name != Column)
                Tiles[Scorer.loopIndex(Loop->Name)] =
                    std::min<int64_t>(Loop->Extent, 64);

            if (Scorer.workingSetPivotOne(Tiles.data(), UIdx) >
                Budgets.InnerBudgetElems)
              continue;
            if (Scorer.workingSet(Tiles.data()) > Budgets.OuterBudgetElems)
              continue;

            double Cost =
                Arch.A2 * Scorer.l1MissesNoPrefetch(Tiles.data(), UIdx, Lc) +
                Arch.A3 * Scorer.l2MissesNoPrefetch(Tiles.data(), VIdx, Lc);
            if (Best.Cost >= 0.0 && Cost >= Best.Cost)
              continue;
            Best.Cost = Cost;
            Best.Tiles = Scorer.toTileMap(Tiles.data());
            Best.IntraOrder = {U->Name};
            Best.InterOrder = {V->Name};
            Best.MaxT1 = MaxTU;
          }
        }
      }
    }
  }
  assert(Best.Cost >= 0.0 && "no feasible TSS/TTS tiling found");

  // Assemble the orders: column innermost, small loops, middles, u
  // outermost intra; tiled loops v-first inter with the parallel loop
  // outermost.
  const std::string U = Best.IntraOrder.front();
  const std::string V = Best.InterOrder.front();
  Best.IntraOrder.clear();
  Best.IntraOrder.push_back(Column);
  for (const LoopInfo *Loop : SmallLoops)
    Best.IntraOrder.push_back(Loop->Name);
  for (const LoopInfo *Loop : BigLoops)
    if (Loop->Name != Column && Loop->Name != U)
      Best.IntraOrder.push_back(Loop->Name);
  Best.IntraOrder.push_back(U);

  Best.InterOrder.clear();
  Best.InterOrder.push_back(V);
  std::string ParallelVar;
  for (const LoopInfo &Loop : Info.Loops) {
    if (Best.Tiles.at(Loop.Name) >= Loop.Extent || Loop.Name == V)
      continue;
    Best.InterOrder.push_back(Loop.Name);
    if (!Loop.IsReduction)
      ParallelVar = Loop.Name;
  }
  // Keep the parallel candidate outermost.
  if (!ParallelVar.empty()) {
    Best.InterOrder.erase(std::remove(Best.InterOrder.begin(),
                                      Best.InterOrder.end(), ParallelVar),
                          Best.InterOrder.end());
    Best.InterOrder.push_back(ParallelVar);
    Best.ParallelVar = ParallelVar;
  } else {
    const LoopInfo *VLoop = nullptr;
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name == V)
        VLoop = &Loop;
    if (VLoop && !VLoop->IsReduction && Best.InterOrder.size() == 1)
      Best.ParallelVar = V;
  }

  if (Arch.VectorWidth > 1 && Best.Tiles.at(Column) >= Arch.VectorWidth) {
    Best.VectorVar = Column;
    Best.VectorWidth = Arch.VectorWidth;
  }
  return Best;
}

} // namespace

TemporalSchedule ltp::optimizeTSS(const StageAccessInfo &Info,
                                  const ArchParams &Arch) {
  // TSS: intra-tile reuse in L1, whole tiles in L2; associativity aware
  // via the emulation bound, prefetching ignored entirely.
  LevelBudgets Budgets;
  Budgets.InnerCache = Arch.L1;
  Budgets.OuterCache = Arch.L2;
  Budgets.InnerBudgetElems = Arch.L1.SizeBytes / Info.DTS;
  Budgets.OuterBudgetElems = Arch.L2.SizeBytes / Info.DTS;
  return optimizePrefetchUnaware(Info, Arch, Budgets);
}

TemporalSchedule ltp::optimizeTTS(const StageAccessInfo &Info,
                                  const ArchParams &Arch) {
  // TurboTiling: intra-tile reuse in L2, whole tiles in the LLC (assumed
  // to be kept warm by the prefetchers), so tiles come out much larger
  // than TSS's; the miss model still counts prefetched references.
  LevelBudgets Budgets;
  Budgets.InnerCache = Arch.L2;
  Budgets.OuterCache = Arch.L3.SizeBytes > 0 ? Arch.L3 : Arch.L2;
  Budgets.InnerBudgetElems = Arch.L2.SizeBytes / Info.DTS;
  int64_t LLCBytes = Arch.L3.SizeBytes > 0
                         ? Arch.L3.SizeBytes / std::max(1, Arch.NCores)
                         : Arch.L2.SizeBytes;
  Budgets.OuterBudgetElems = LLCBytes / Info.DTS;
  return optimizePrefetchUnaware(Info, Arch, Budgets);
}
