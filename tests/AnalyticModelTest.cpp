//===- AnalyticModelTest.cpp - analytic model vs its oracles ---------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Pins the analytic scoring path against its reference implementations:
//
//  1. NestScorerParity — the dense precompiled scorer must reproduce the
//     map-based cost-model entry points bit for bit on randomized tile
//     assignments (same integer algebra, same double accumulation
//     order), so scoring through it cannot change a chosen schedule.
//  2. MissModelVsSimulator — predictMisses must agree with the
//     trace-driven AccessProgram simulator within a pinned tolerance on
//     every schedule where it claims applicability (identity, optimized
//     and seeded random schedules over the kernel suite), and must give
//     a reason whenever it declines.
//  3. ChosenScheduleParity — end to end, the optimizer must pick exactly
//     the pinned schedule for every Table-4 kernel on every paper
//     platform at the default, paper and an unaligned (1000) size, and
//     for the extended suite.
//
// The tolerance in (2) is deliberately asymmetric: relative agreement
// within 3x, or an absolute gap under 1024 lines. The absolute slack
// absorbs effects that are O(pages) rather than O(footprint) — streamer
// training misses and base-address-dependent set conflicts the simulator
// sees but a closed form cannot (the simulator places buffers at their
// real heap addresses, so its small counts vary run to run).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/AccessInfo.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "tests/oracles/CostModel.h"
#include "model/MissModel.h"
#include "model/NestScorer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string>
#include <vector>

using namespace ltp;

namespace {

// ---- 1. NestScorer: bit-for-bit CostModel parity. ----------------------

TEST(NestScorerParity, MatchesCostModelOnRandomCandidates) {
  const ArchParams Arch = intelI7_6700();
  for (const char *Name : {"matmul", "doitgen", "convlayer", "tpm",
                           "syr2k", "copy"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    ASSERT_NE(Def, nullptr) << Name;
    BenchmarkInstance Instance = Def->Create(Def->DefaultSize);
    for (size_t I = 0; I != Instance.Stages.size(); ++I) {
      Func &F = Instance.Stages[I];
      int ComputeStage = F.computeStageIndex();
      StageAccessInfo Info =
          analyzeStage(F, ComputeStage, Instance.StageExtents[I]);
      if (Info.Loops.size() < 2)
        continue;
      model::NestScorer Scorer(Info, Arch);
      const int64_t Lc =
          std::max<int64_t>(1, Arch.L1.LineBytes / Info.DTS);

      std::mt19937 Rng(0xC0FFEE ^ static_cast<uint32_t>(I));
      for (int Draw = 0; Draw != 64; ++Draw) {
        std::vector<int64_t> Dense(Info.Loops.size(), 1);
        TileMap Tiles;
        for (const LoopInfo &Loop : Info.Loops) {
          int64_t T = std::uniform_int_distribution<int64_t>(
              1, Loop.Extent)(Rng);
          Tiles[Loop.Name] = T;
          Dense[static_cast<size_t>(Scorer.loopIndex(Loop.Name))] = T;
        }
        size_t UPick = std::uniform_int_distribution<size_t>(
            0, Info.Loops.size() - 1)(Rng);
        size_t VPick = std::uniform_int_distribution<size_t>(
            0, Info.Loops.size() - 1)(Rng);
        const std::string &U = Info.Loops[UPick].Name;
        const std::string &V = Info.Loops[VPick].Name;
        const int UIdx = Scorer.loopIndex(U);
        const int VIdx = Scorer.loopIndex(V);
        std::string Context = std::string(Name) + " stage " +
                              std::to_string(I) + " draw " +
                              std::to_string(Draw);

        EXPECT_EQ(Scorer.workingSet(Dense.data()),
                  workingSetElements(Info, Tiles))
            << Context;
        {
          TileMap PivotOne = Tiles;
          PivotOne[U] = 1;
          EXPECT_EQ(Scorer.workingSetPivotOne(Dense.data(), UIdx),
                    workingSetElements(Info, PivotOne))
              << Context;
        }
        // Doubles compared with EXPECT_EQ on purpose: the scorer promises
        // the same accumulation order, not merely a close value.
        EXPECT_EQ(Scorer.l1Misses(Dense.data(), UIdx),
                  estimateL1Misses(Info, Tiles, U))
            << Context;
        EXPECT_EQ(Scorer.l2Misses(Dense.data(), VIdx),
                  estimateL2Misses(Info, Tiles, V))
            << Context;
        EXPECT_EQ(Scorer.cost(Dense.data(), UIdx, VIdx),
                  totalCost(Info, Tiles, U, V, Arch))
            << Context;
        EXPECT_EQ(Scorer.l1MissesNoPrefetch(Dense.data(), UIdx, Lc),
                  estimateL1MissesNoPrefetch(Info, Tiles, U, Lc))
            << Context;
        EXPECT_EQ(Scorer.l2MissesNoPrefetch(Dense.data(), VIdx, Lc),
                  estimateL2MissesNoPrefetch(Info, Tiles, V, Lc))
            << Context;
      }
    }
  }
}

// ---- 2. MissModel: simulator agreement within the pinned tolerance. ----

/// Simulation-feasible per-kernel sizes: footprints still exceed the L2,
/// iteration counts stay in the low tens of millions so the whole sweep
/// runs in well under a minute.
int64_t missModelTestSize(const std::string &Name, int64_t Default) {
  if (Name == "convlayer")
    return 48;
  if (Name == "doitgen")
    return 64;
  if (Name == "3mm")
    return 192;
  if (Name == "syrk" || Name == "syr2k")
    return 128;
  if (Name == "matmul" || Name == "gemm" || Name == "trmm")
    return 256;
  return std::min<int64_t>(Default, 2048);
}

/// The pinned tolerance (see the file header): within 3x relative, or
/// within 1024 misses absolute.
bool withinTolerance(double Pred, double Sim) {
  if (std::abs(Pred - Sim) <= 1024.0)
    return true;
  if (Sim <= 0.0 || Pred <= 0.0)
    return false;
  double R = Pred / Sim;
  return R <= 3.0 && R >= 1.0 / 3.0;
}

/// Sums predictMisses over every stage of \p Instance. Returns false
/// (with \p WhyNot set) when any stage declines.
bool predictPipeline(BenchmarkInstance &Instance, const ArchParams &Arch,
                     double &L1, double &L2, std::string &WhyNot) {
  model::BufferStrides Strides;
  for (const auto &[BufName, Buf] : Instance.Buffers)
    Strides[BufName] = Buf.Strides;
  L1 = L2 = 0.0;
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    bool NT = F.isStoreNonTemporal();
    for (int S = -1; S < F.numUpdates(); ++S) {
      StageAccessInfo Info = analyzeStage(F, S, Instance.StageExtents[I]);
      analysis::LegalityReport Legality =
          analysis::verifyStageSchedule(F, S, Instance.StageExtents[I]);
      model::MissPrediction P =
          model::predictMisses(Info, Legality.Nest, Arch, Strides, NT);
      if (!P.Analytic) {
        WhyNot = P.WhyNot;
        return false;
      }
      L1 += P.L1Misses;
      L2 += P.L2Misses;
    }
  }
  return true;
}

/// The autotuner-style random schedule draw used by the calibration
/// sweep: dividing split factors, shuffled order below the innermost.
void applyRandomDividingSchedule(BenchmarkInstance &Instance,
                                 uint32_t Seed) {
  std::mt19937 Rng(Seed);
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    F.clearSchedules();
    int CS = F.computeStageIndex();
    StageAccessInfo Info = analyzeStage(F, CS, Instance.StageExtents[I]);
    Stage S = CS < 0 ? F.pureStage() : F.update(CS);
    std::vector<std::string> Order;
    for (const LoopInfo &Loop : Info.Loops) {
      int MaxLog = 0;
      while ((int64_t(1) << (MaxLog + 1)) <= Loop.Extent &&
             Loop.Extent % (int64_t(1) << (MaxLog + 1)) == 0)
        ++MaxLog;
      if (MaxLog >= 3 && std::uniform_int_distribution<int>(0, 1)(Rng)) {
        int Log = std::uniform_int_distribution<int>(3, MaxLog)(Rng);
        S.split(Loop.Name, Loop.Name + "_t", Loop.Name + "_i",
                int64_t(1) << Log);
        Order.push_back(Loop.Name + "_i");
        Order.push_back(Loop.Name + "_t");
      } else {
        Order.push_back(Loop.Name);
      }
    }
    if (Order.size() > 1) {
      std::shuffle(Order.begin() + 1, Order.end(), Rng);
      S.reorder(std::vector<VarName>(Order.begin(), Order.end()));
    }
  }
}

/// One prediction-vs-simulation comparison on the instance's current
/// schedules. Tallies analytic rows; fallback rows must carry a reason.
void checkInstance(BenchmarkInstance &Instance, const ArchParams &Arch,
                   const std::string &Context, int &AnalyticRows) {
  double L1 = 0.0, L2 = 0.0;
  std::string WhyNot;
  if (!predictPipeline(Instance, Arch, L1, L2, WhyNot)) {
    EXPECT_FALSE(WhyNot.empty())
        << Context << ": fallback without a reason";
    return;
  }
  ++AnalyticRows;
  ErrorOr<SimResult> Sim = simulatePipeline(Instance, Arch);
  ASSERT_TRUE(static_cast<bool>(Sim)) << Context << ": " << Sim.getError();
  const SimResult &R = *Sim;
  EXPECT_TRUE(withinTolerance(
      L1, static_cast<double>(R.Stats.L1.DemandMisses)))
      << Context << ": L1 predicted " << L1 << " vs simulated "
      << R.Stats.L1.DemandMisses;
  EXPECT_TRUE(withinTolerance(
      L2, static_cast<double>(R.Stats.L2.DemandMisses)))
      << Context << ": L2 predicted " << L2 << " vs simulated "
      << R.Stats.L2.DemandMisses;
}

TEST(MissModelVsSimulator, WithinPinnedToleranceWhenApplicable) {
  const ArchParams Arch = intelI7_6700();
  int AnalyticRows = 0;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    int64_t Size = missModelTestSize(Def.Name, Def.DefaultSize);
    {
      BenchmarkInstance Instance = Def.Create(Size);
      checkInstance(Instance, Arch, Def.Name + " (identity)",
                    AnalyticRows);
    }
    {
      BenchmarkInstance Instance = Def.Create(Size);
      for (size_t S = 0; S != Instance.Stages.size(); ++S)
        optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
      checkInstance(Instance, Arch, Def.Name + " (optimized)",
                    AnalyticRows);
    }
    for (uint32_t Seed : {1u, 2u, 3u}) {
      BenchmarkInstance Instance = Def.Create(Size);
      applyRandomDividingSchedule(Instance, Seed);
      checkInstance(Instance, Arch,
                    Def.Name + " (rand" + std::to_string(Seed) + ")",
                    AnalyticRows);
    }
  }
  // The applicability conditions are strict, not vacuous: the streaming
  // kernels and the optimizer's own tiled schedules must stay analytic.
  EXPECT_GE(AnalyticRows, 10)
      << "the closed form declined almost everything";
}

// ---- 3. End to end: the optimizer picks the pinned schedules. ---------

struct GoldenSchedule {
  const char *Kernel;
  const char *Arch;
  int64_t Size;
  size_t Stage;
  /// OptimizationResult::Description and printSchedule of the stage.
  const char *Description;
  const char *Schedule;
};

// Expected schedules in grid order. They were recorded while a
// closed-form tile bound and a sim-only scoring mode still existed, and
// both agreed on every entry: the paper sizes exercised the closed form,
// size 1000 the emulator.
const GoldenSchedule Goldens[] = {
    {"convlayer", "5930k", 96, 0,
     "temporal: tiles{b=1, ko=24, rc=24, rx=3, ry=3, x=96, y=2} intra[x,b,rx,ry,ko,y,rc] inter[y] parallel(y) vectorize(x, 8) cost=1.24e+05 order=24 maxT1=96 maxT2=96",
     "split(y, y_t, y_i, 2); reorder(x, b, rx, ry, ko, y_i, rc, y_t); parallel(y_t); vectorize(x);"},
    {"convlayer", "5930k", 256, 0,
     "temporal: tiles{b=4, ko=16, rc=4, rx=3, ry=3, x=64, y=4} intra[x,b,rx,ry,rc,ko,y] inter[rc,x,ko,y] parallel(y) vectorize(x, 8) cost=3.04e+07 order=1.48e+05 maxT1=256 maxT2=256",
     "split(x, x_t, x_i, 64); split(y, y_t, y_i, 4); split(ko, ko_t, ko_i, 16); split(rc, rc_t, rc_i, 4); reorder(x_i, b, rx, ry, rc_i, ko_i, y_i, rc_t, x_t, ko_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"convlayer", "5930k", 1000, 0,
     "temporal: tiles{b=2, ko=16, rc=16, rx=3, ry=3, x=32, y=8} intra[x,rx,ry,b,ko,rc,y] inter[b,x,ko,rc,y] parallel(y) vectorize(x, 8) cost=2.29e+09 order=3.42e+05 maxT1=852 maxT2=1000",
     "split(x, x_t, x_i, 32); split(y, y_t, y_i, 8); split(ko, ko_t, ko_i, 16); split(b, b_t, b_i, 2); split(rc, rc_t, rc_i, 16); reorder(x_i, rx, ry, b_i, ko_i, rc_i, y_i, b_t, x_t, ko_t, rc_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"convlayer", "6700", 96, 0,
     "temporal: tiles{b=1, ko=24, rc=24, rx=3, ry=3, x=96, y=2} intra[x,b,rx,ry,ko,y,rc] inter[y] parallel(y) vectorize(x, 8) cost=1.24e+05 order=24 maxT1=96 maxT2=96",
     "split(y, y_t, y_i, 2); reorder(x, b, rx, ry, ko, y_i, rc, y_t); parallel(y_t); vectorize(x);"},
    {"convlayer", "6700", 256, 0,
     "temporal: tiles{b=4, ko=16, rc=4, rx=3, ry=3, x=64, y=4} intra[x,b,rx,ry,rc,ko,y] inter[rc,x,ko,y] parallel(y) vectorize(x, 8) cost=3.04e+07 order=1.48e+05 maxT1=256 maxT2=256",
     "split(x, x_t, x_i, 64); split(y, y_t, y_i, 4); split(ko, ko_t, ko_i, 16); split(rc, rc_t, rc_i, 4); reorder(x_i, b, rx, ry, rc_i, ko_i, y_i, rc_t, x_t, ko_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"convlayer", "6700", 1000, 0,
     "temporal: tiles{b=2, ko=16, rc=16, rx=3, ry=3, x=32, y=8} intra[x,rx,ry,b,ko,rc,y] inter[b,x,ko,rc,y] parallel(y) vectorize(x, 8) cost=2.29e+09 order=3.42e+05 maxT1=852 maxT2=1000",
     "split(x, x_t, x_i, 32); split(y, y_t, y_i, 8); split(ko, ko_t, ko_i, 16); split(b, b_t, b_i, 2); split(rc, rc_t, rc_i, 16); reorder(x_i, rx, ry, b_i, ko_i, rc_i, y_i, b_t, x_t, ko_t, rc_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"convlayer", "a15", 96, 0,
     "temporal: tiles{b=1, ko=24, rc=8, rx=3, ry=3, x=96, y=16} intra[x,b,rx,ry,ko,rc,y] inter[rc,y] parallel(y) vectorize(x, 4) cost=1.46e+05 order=19 maxT1=96 maxT2=96",
     "split(y, y_t, y_i, 16); split(rc, rc_t, rc_i, 8); reorder(x, b, rx, ry, ko, rc_i, y_i, rc_t, y_t); parallel(y_t); vectorize(x);"},
    {"convlayer", "a15", 256, 0,
     "temporal: tiles{b=4, ko=16, rc=4, rx=3, ry=3, x=64, y=8} intra[x,b,rx,ry,rc,ko,y] inter[rc,x,ko,y] parallel(y) vectorize(x, 4) cost=3.41e+07 order=2.96e+05 maxT1=256 maxT2=256",
     "split(x, x_t, x_i, 64); split(y, y_t, y_i, 8); split(ko, ko_t, ko_i, 16); split(rc, rc_t, rc_i, 4); reorder(x_i, b, rx, ry, rc_i, ko_i, y_i, rc_t, x_t, ko_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"convlayer", "a15", 1000, 0,
     "temporal: tiles{b=8, ko=16, rc=16, rx=3, ry=3, x=32, y=4} intra[x,rx,ry,y,rc,ko,b] inter[y,x,rc,b,ko] parallel(fused:ko) vectorize(x, 4) cost=3.15e+09 order=2e+07 maxT1=1000 maxT2=1000",
     "split(x, x_t, x_i, 32); split(y, y_t, y_i, 4); split(ko, ko_t, ko_i, 16); split(b, b_t, b_i, 8); split(rc, rc_t, rc_i, 16); reorder(x_i, rx, ry, y_i, rc_i, ko_i, b_i, y_t, x_t, rc_t, b_t, ko_t); fuse(ko_t, b_t, fused_outer); parallel(fused_outer); vectorize(x_i);"},
    {"doitgen", "5930k", 128, 0,
     "temporal: tiles{p=128, q=8, r=16, s=32} intra[p,s,r,q] inter[s,r,q] parallel(fused:q) vectorize(p, 8) unroll_jam(q, 8) cost=5.41e+05 order=192 maxT1=128 maxT2=128",
     "split(q, q_t, q_i, 8); split(r, r_t, r_i, 16); split(s, s_t, s_i, 32); reorder(p, s_i, r_i, q_i, s_t, r_t, q_t); fuse(q_t, r_t, fused_outer); parallel(fused_outer); vectorize(p); unroll_jam(q_i, 8);"},
    {"doitgen", "5930k", 256, 0,
     "temporal: tiles{p=64, q=4, r=32, s=64} intra[p,s,r,q] inter[p,s,r,q] parallel(q) vectorize(p, 8) unroll_jam(q, 4) cost=9.96e+06 order=8.9e+03 maxT1=256 maxT2=256",
     "split(p, p_t, p_i, 64); split(q, q_t, q_i, 4); split(r, r_t, r_i, 32); split(s, s_t, s_i, 64); reorder(p_i, s_i, r_i, q_i, p_t, s_t, r_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 4);"},
    {"doitgen", "5930k", 1000, 0,
     "temporal: tiles{p=32, q=16, r=8, s=128} intra[p,r,s,q] inter[r,p,s,q] parallel(q) vectorize(p, 8) unroll_jam(q, 8) cost=2.85e+09 order=2.15e+06 maxT1=852 maxT2=1000",
     "split(p, p_t, p_i, 32); split(q, q_t, q_i, 16); split(r, r_t, r_i, 8); split(s, s_t, s_i, 128); reorder(p_i, r_i, s_i, q_i, r_t, p_t, s_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 8);"},
    {"doitgen", "6700", 128, 0,
     "temporal: tiles{p=128, q=8, r=16, s=32} intra[p,s,r,q] inter[s,r,q] parallel(q) vectorize(p, 8) unroll_jam(q, 8) cost=5.41e+05 order=192 maxT1=128 maxT2=128",
     "split(q, q_t, q_i, 8); split(r, r_t, r_i, 16); split(s, s_t, s_i, 32); reorder(p, s_i, r_i, q_i, s_t, r_t, q_t); parallel(q_t); vectorize(p); unroll_jam(q_i, 8);"},
    {"doitgen", "6700", 256, 0,
     "temporal: tiles{p=64, q=4, r=32, s=64} intra[p,s,r,q] inter[p,s,r,q] parallel(q) vectorize(p, 8) unroll_jam(q, 4) cost=9.96e+06 order=8.9e+03 maxT1=256 maxT2=256",
     "split(p, p_t, p_i, 64); split(q, q_t, q_i, 4); split(r, r_t, r_i, 32); split(s, s_t, s_i, 64); reorder(p_i, s_i, r_i, q_i, p_t, s_t, r_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 4);"},
    {"doitgen", "6700", 1000, 0,
     "temporal: tiles{p=32, q=16, r=8, s=128} intra[p,r,s,q] inter[r,p,s,q] parallel(q) vectorize(p, 8) unroll_jam(q, 8) cost=2.85e+09 order=2.15e+06 maxT1=852 maxT2=1000",
     "split(p, p_t, p_i, 32); split(q, q_t, q_i, 16); split(r, r_t, r_i, 8); split(s, s_t, s_i, 128); reorder(p_i, r_i, s_i, q_i, r_t, p_t, s_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 8);"},
    {"doitgen", "a15", 128, 0,
     "temporal: tiles{p=128, q=16, r=16, s=32} intra[p,s,r,q] inter[s,r,q] parallel(q) vectorize(p, 4) unroll_jam(q, 8) cost=8.6e+05 order=352 maxT1=128 maxT2=128",
     "split(q, q_t, q_i, 16); split(r, r_t, r_i, 16); split(s, s_t, s_i, 32); reorder(p, s_i, r_i, q_i, s_t, r_t, q_t); parallel(q_t); vectorize(p); unroll_jam(q_i, 8);"},
    {"doitgen", "a15", 256, 0,
     "temporal: tiles{p=64, q=8, r=32, s=64} intra[p,s,r,q] inter[p,s,r,q] parallel(q) vectorize(p, 4) unroll_jam(q, 8) cost=1.49e+07 order=1.77e+04 maxT1=256 maxT2=256",
     "split(p, p_t, p_i, 64); split(q, q_t, q_i, 8); split(r, r_t, r_i, 32); split(s, s_t, s_i, 64); reorder(p_i, s_i, r_i, q_i, p_t, s_t, r_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 8);"},
    {"doitgen", "a15", 1000, 0,
     "temporal: tiles{p=32, q=16, r=16, s=128} intra[p,r,s,q] inter[r,p,s,q] parallel(q) vectorize(p, 4) unroll_jam(q, 8) cost=4.83e+09 order=2.11e+06 maxT1=1000 maxT2=1000",
     "split(p, p_t, p_i, 32); split(q, q_t, q_i, 16); split(r, r_t, r_i, 16); split(s, s_t, s_i, 128); reorder(p_i, r_i, s_i, q_i, r_t, p_t, s_t, q_t); parallel(q_t); vectorize(p_i); unroll_jam(q_i, 8);"},
    {"matmul", "5930k", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "5930k", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "5930k", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "6700", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "6700", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "6700", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "a15", 1024, 0,
     "temporal: tiles{i=32, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.92e+06 order=288 maxT1=64 maxT2=256",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "a15", 2048, 0,
     "temporal: tiles{i=16, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.33e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"matmul", "a15", 1000, 0,
     "temporal: tiles{i=32, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.86e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 768, 0,
     "temporal: tiles{i=32, j=768, k1=8} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k1, k1_t, k1_i, 8); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 768, 1,
     "temporal: tiles{i=32, j=768, k2=8} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k2, k2_t, k2_i, 8); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 768, 2,
     "temporal: tiles{i=32, j=768, k3=8} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k3, k3_t, k3_i, 8); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 2048, 0,
     "temporal: tiles{i=8, j=2048, k1=2} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k1, k1_t, k1_i, 2); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 2048, 1,
     "temporal: tiles{i=8, j=2048, k2=2} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k2, k2_t, k2_i, 2); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 2048, 2,
     "temporal: tiles{i=8, j=2048, k3=2} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k3, k3_t, k3_i, 2); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 1000, 0,
     "temporal: tiles{i=16, j=1000, k1=4} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k1, k1_t, k1_i, 4); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 1000, 1,
     "temporal: tiles{i=16, j=1000, k2=4} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k2, k2_t, k2_i, 4); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "5930k", 1000, 2,
     "temporal: tiles{i=16, j=1000, k3=4} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k3, k3_t, k3_i, 4); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 768, 0,
     "temporal: tiles{i=32, j=768, k1=8} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k1, k1_t, k1_i, 8); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 768, 1,
     "temporal: tiles{i=32, j=768, k2=8} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k2, k2_t, k2_i, 8); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 768, 2,
     "temporal: tiles{i=32, j=768, k3=8} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=5.38e+05 order=128 maxT1=64 maxT2=341",
     "split(i, i_t, i_i, 32); split(k3, k3_t, k3_i, 8); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 2048, 0,
     "temporal: tiles{i=8, j=2048, k1=2} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k1, k1_t, k1_i, 2); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 2048, 1,
     "temporal: tiles{i=8, j=2048, k2=2} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k2, k2_t, k2_i, 2); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 2048, 2,
     "temporal: tiles{i=8, j=2048, k3=2} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k3, k3_t, k3_i, 2); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 1000, 0,
     "temporal: tiles{i=16, j=1000, k1=4} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k1, k1_t, k1_i, 4); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 1000, 1,
     "temporal: tiles{i=16, j=1000, k2=4} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k2, k2_t, k2_i, 4); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "6700", 1000, 2,
     "temporal: tiles{i=16, j=1000, k3=4} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k3, k3_t, k3_i, 4); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 768, 0,
     "temporal: tiles{i=64, j=768, k1=8} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=8.26e+05 order=160 maxT1=86 maxT2=341",
     "split(i, i_t, i_i, 64); split(k1, k1_t, k1_i, 8); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 768, 1,
     "temporal: tiles{i=64, j=768, k2=8} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=8.26e+05 order=160 maxT1=86 maxT2=341",
     "split(i, i_t, i_i, 64); split(k2, k2_t, k2_i, 8); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 768, 2,
     "temporal: tiles{i=64, j=768, k3=8} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=8.26e+05 order=160 maxT1=86 maxT2=341",
     "split(i, i_t, i_i, 64); split(k3, k3_t, k3_i, 8); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 2048, 0,
     "temporal: tiles{i=16, j=2048, k1=2} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.33e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k1, k1_t, k1_i, 2); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 2048, 1,
     "temporal: tiles{i=16, j=2048, k2=2} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.33e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k2, k2_t, k2_i, 2); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 2048, 2,
     "temporal: tiles{i=16, j=2048, k3=2} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.33e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k3, k3_t, k3_i, 2); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 1000, 0,
     "temporal: tiles{i=32, j=1000, k1=4} intra[j,k1,i] inter[k1,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.86e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k1, k1_t, k1_i, 4); reorder(j, k1_i, i_i, k1_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 1000, 1,
     "temporal: tiles{i=32, j=1000, k2=4} intra[j,k2,i] inter[k2,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.86e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k2, k2_t, k2_i, 4); reorder(j, k2_i, i_i, k2_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"3mm", "a15", 1000, 2,
     "temporal: tiles{i=32, j=1000, k3=4} intra[j,k3,i] inter[k3,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.86e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k3, k3_t, k3_i, 4); reorder(j, k3_i, i_i, k3_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "5930k", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "5930k", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "5930k", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "6700", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "6700", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.52e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "6700", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) unroll_jam(i, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "a15", 1024, 0,
     "temporal: tiles{i=32, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.92e+06 order=288 maxT1=64 maxT2=256",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "a15", 2048, 0,
     "temporal: tiles{i=16, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.33e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"gemm", "a15", 1000, 0,
     "temporal: tiles{i=32, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) unroll_jam(i, 4) cost=2.86e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); unroll_jam(i_i, 4);"},
    {"trmm", "5930k", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "5930k", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.1e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "5930k", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "6700", 1024, 0,
     "temporal: tiles{i=16, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "6700", 2048, 0,
     "temporal: tiles{i=8, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.1e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(i, i_t, i_i, 8); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "6700", 1000, 0,
     "temporal: tiles{i=16, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 8) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "a15", 1024, 0,
     "temporal: tiles{i=32, j=1024, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) cost=1.88e+06 order=288 maxT1=64 maxT2=256",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "a15", 2048, 0,
     "temporal: tiles{i=16, j=2048, k=2} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) cost=1.08e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(i, i_t, i_i, 16); split(k, k_t, k_i, 2); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"trmm", "a15", 1000, 0,
     "temporal: tiles{i=32, j=1000, k=4} intra[j,k,i] inter[k,i] parallel(i) vectorize(j, 4) cost=1.83e+06 order=282 maxT1=66 maxT2=197",
     "split(i, i_t, i_i, 32); split(k, k_t, k_i, 4); reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j);"},
    {"syrk", "5930k", 1024, 0,
     "temporal: tiles{i=4, j=16, k=1024} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "5930k", 2048, 0,
     "temporal: tiles{i=2, j=8, k=2048} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.1e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "5930k", 1000, 0,
     "temporal: tiles{i=4, j=16, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "6700", 1024, 0,
     "temporal: tiles{i=4, j=16, k=1024} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.9e+06 order=272 maxT1=32 maxT2=256",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "6700", 2048, 0,
     "temporal: tiles{i=2, j=8, k=2048} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.1e+07 order=1.03e+03 maxT1=16 maxT2=128",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "6700", 1000, 0,
     "temporal: tiles{i=4, j=16, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.83e+06 order=266 maxT1=49 maxT2=197",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "a15", 1024, 0,
     "temporal: tiles{i=4, j=32, k=1024} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=1.88e+06 order=288 maxT1=64 maxT2=256",
     "split(j, j_t, j_i, 32); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "a15", 2048, 0,
     "temporal: tiles{i=2, j=16, k=2048} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=1.08e+07 order=1.04e+03 maxT1=32 maxT2=128",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syrk", "a15", 1000, 0,
     "temporal: tiles{i=4, j=32, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=1.83e+06 order=282 maxT1=66 maxT2=197",
     "split(j, j_t, j_i, 32); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "5930k", 768, 0,
     "temporal: tiles{i=4, j=16, k=768} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.41e+06 order=208 maxT1=64 maxT2=341",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "5930k", 2048, 0,
     "temporal: tiles{i=2, j=8, k=1024} intra[k,i,j] inter[i,k,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=3.15e+07 order=1.84e+04 maxT1=32 maxT2=128",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); split(k, k_t, k_i, 1024); reorder(k_i, i_i, j_i, i_t, k_t, j_t); parallel(j_t); vectorize(k_i); unroll_jam(j_i, 4);"},
    {"syr2k", "5930k", 1000, 0,
     "temporal: tiles{i=2, j=8, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=3.76e+06 order=508 maxT1=49 maxT2=197",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "6700", 768, 0,
     "temporal: tiles{i=4, j=16, k=768} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=1.41e+06 order=208 maxT1=64 maxT2=341",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "6700", 2048, 0,
     "temporal: tiles{i=2, j=8, k=1024} intra[k,i,j] inter[i,k,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=3.15e+07 order=1.84e+04 maxT1=32 maxT2=128",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); split(k, k_t, k_i, 1024); reorder(k_i, i_i, j_i, i_t, k_t, j_t); parallel(j_t); vectorize(k_i); unroll_jam(j_i, 4);"},
    {"syr2k", "6700", 1000, 0,
     "temporal: tiles{i=2, j=8, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 8) unroll_jam(j, 4) cost=3.76e+06 order=508 maxT1=49 maxT2=197",
     "split(j, j_t, j_i, 8); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "a15", 768, 0,
     "temporal: tiles{i=4, j=32, k=768} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=1.38e+06 order=224 maxT1=86 maxT2=341",
     "split(j, j_t, j_i, 32); split(i, i_t, i_i, 4); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"syr2k", "a15", 2048, 0,
     "temporal: tiles{i=2, j=16, k=1024} intra[k,i,j] inter[i,k,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=3.05e+07 order=3.48e+04 maxT1=64 maxT2=128",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 2); split(k, k_t, k_i, 1024); reorder(k_i, i_i, j_i, i_t, k_t, j_t); parallel(j_t); vectorize(k_i); unroll_jam(j_i, 4);"},
    {"syr2k", "a15", 1000, 0,
     "temporal: tiles{i=2, j=16, k=1000} intra[k,i,j] inter[i,j] parallel(j) vectorize(k, 4) unroll_jam(j, 4) cost=3.67e+06 order=516 maxT1=66 maxT2=197",
     "split(j, j_t, j_i, 16); split(i, i_t, i_i, 2); reorder(k, i_i, j_i, i_t, j_t); parallel(j_t); vectorize(k); unroll_jam(j_i, 4);"},
    {"tpm", "5930k", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 8) cost=2.95e+05 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "5930k", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 8) cost=1.31e+06 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "5930k", 1000, 0,
     "spatial: tile x x y = 16 x 62 (maxTy 1000), wsL1=272 wsL2=1984, parallel(y_t) vectorize(x_i, 8) cost=7.86e+04 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 62); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "6700", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 8) cost=2.95e+05 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "6700", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 8) cost=1.31e+06 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "6700", 1000, 0,
     "spatial: tile x x y = 16 x 125 (maxTy 1000), wsL1=272 wsL2=4000, parallel(y_t) vectorize(x_i, 8) cost=7.05e+04 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 125); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tpm", "a15", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 4) cost=2.95e+05",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"tpm", "a15", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 4) cost=1.31e+06",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"tpm", "a15", 1000, 0,
     "spatial: tile x x y = 16 x 250 (maxTy 1000), wsL1=272 wsL2=8000, parallel(y_t) vectorize(x_i, 4) cost=6.65e+04",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 250); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"tp", "5930k", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 8) cost=3.28e+04 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "5930k", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 8) cost=2.62e+05 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "5930k", 1000, 0,
     "spatial: tile x x y = 16 x 62 (maxTy 1000), wsL1=272 wsL2=1984, parallel(y_t) vectorize(x_i, 8) cost=1.61e+04 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 62); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "6700", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 8) cost=3.28e+04 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "6700", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 8) cost=2.62e+05 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "6700", 1000, 0,
     "spatial: tile x x y = 16 x 125 (maxTy 1000), wsL1=272 wsL2=4000, parallel(y_t) vectorize(x_i, 8) cost=8e+03 +NTI",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 125); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i); store_nontemporal;"},
    {"tp", "a15", 2048, 0,
     "spatial: tile x x y = 16 x 128 (maxTy 128), wsL1=272 wsL2=4096, parallel(y_t) vectorize(x_i, 4) cost=3.28e+04",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 128); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"tp", "a15", 4096, 0,
     "spatial: tile x x y = 16 x 64 (maxTy 64), wsL1=272 wsL2=2048, parallel(y_t) vectorize(x_i, 4) cost=2.62e+05",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 64); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"tp", "a15", 1000, 0,
     "spatial: tile x x y = 16 x 250 (maxTy 1000), wsL1=272 wsL2=8000, parallel(y_t) vectorize(x_i, 4) cost=4e+03",
     "split(x, x_t, x_i, 16); split(y, y_t, y_i, 250); reorder(x_i, y_i, x_t, y_t); parallel(y_t); vectorize(x_i);"},
    {"copy", "5930k", 2048, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "5930k", 4096, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "5930k", 1000, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "6700", 2048, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "6700", 4096, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "6700", 1000, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"copy", "a15", 2048, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    {"copy", "a15", 4096, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    {"copy", "a15", 1000, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    {"mask", "5930k", 2048, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "5930k", 4096, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "5930k", 1000, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "6700", 2048, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "6700", 4096, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "6700", 1000, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
    {"mask", "a15", 2048, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    {"mask", "a15", 4096, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    {"mask", "a15", 1000, 0,
     "no-transform: parallel+vectorize",
     "parallel(y); vectorize(x);"},
    // Extended suite, DefaultSize on 6700.
    {"atax", "6700", 1024, 0,
     "temporal: tiles{i=16, jr=1024} intra[jr,i] inter[i] parallel(i) vectorize(jr, 8) unroll_jam(i, 4) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); reorder(jr, i_i, i_t); parallel(i_t); vectorize(jr); unroll_jam(i_i, 4);"},
    {"atax", "6700", 1024, 1,
     "temporal: tiles{ir=16, j=1024} intra[j,ir] inter[ir] vectorize(j, 8) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(ir, ir_t, ir_i, 16); reorder(j, ir_i, ir_t); vectorize(j);"},
    {"bicg", "6700", 1024, 0,
     "temporal: tiles{ir=16, j=1024} intra[j,ir] inter[ir] vectorize(j, 8) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(ir, ir_t, ir_i, 16); reorder(j, ir_i, ir_t); vectorize(j);"},
    {"bicg", "6700", 1024, 1,
     "temporal: tiles{i=16, jr=1024} intra[jr,i] inter[i] parallel(i) vectorize(jr, 8) unroll_jam(i, 4) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); reorder(jr, i_i, i_t); parallel(i_t); vectorize(jr); unroll_jam(i_i, 4);"},
    {"mvt", "6700", 1024, 0,
     "temporal: tiles{i=16, jr=1024} intra[jr,i] inter[i] parallel(i) vectorize(jr, 8) unroll_jam(i, 4) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); reorder(jr, i_i, i_t); parallel(i_t); vectorize(jr); unroll_jam(i_i, 4);"},
    {"gemver", "6700", 1024, 0,
     "no-transform: parallel+vectorize +NTI",
     "parallel(i); vectorize(j); store_nontemporal;"},
    {"gemver", "6700", 1024, 1,
     "temporal: tiles{i=1024, jr2=16} intra[i,jr2] inter[jr2] vectorize(i, 8) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(jr2, jr2_t, jr2_i, 16); reorder(i, jr2_i, jr2_t); vectorize(i);"},
    {"gemver", "6700", 1024, 2,
     "temporal: tiles{i=16, jr3=1024} intra[jr3,i] inter[i] parallel(i) vectorize(jr3, 8) unroll_jam(i, 4) cost=6.47e+03 order=1 maxT1=32 maxT2=256",
     "split(i, i_t, i_i, 16); reorder(jr3, i_i, i_t); parallel(i_t); vectorize(jr3); unroll_jam(i_i, 4);"},
    {"jacobi2d", "6700", 2048, 0,
     "no-transform(stencil): parallel+vectorize +NTI",
     "parallel(y); vectorize(x); store_nontemporal;"},
};

TEST(ChosenScheduleParity, MatchesPinnedSchedulesOnAllKernels) {
  struct GridCase {
    const BenchmarkDef *Def;
    const char *ArchName;
    ArchParams Arch;
    int64_t Size;
  };
  const std::pair<const char *, ArchParams> Platforms[] = {
      {"5930k", intelI7_5930K()},
      {"6700", intelI7_6700()},
      {"a15", armCortexA15()}};
  std::vector<GridCase> Grid;
  for (const BenchmarkDef &Def : allBenchmarks())
    for (const auto &[Name, Arch] : Platforms)
      for (int64_t Size : {Def.DefaultSize, Def.PaperSize, int64_t(1000)})
        Grid.push_back({&Def, Name, Arch, Size});
  for (const BenchmarkDef &Def : extendedBenchmarks())
    Grid.push_back({&Def, "6700", intelI7_6700(), Def.DefaultSize});

  size_t Next = 0;
  for (const GridCase &Case : Grid) {
    BenchmarkInstance Instance = Case.Def->Shape(Case.Size);
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      ASSERT_LT(Next, std::size(Goldens)) << "grid outgrew the goldens";
      const GoldenSchedule &G = Goldens[Next++];
      const std::string Context = Case.Def->Name + " on " + Case.ArchName +
                                  " size " + std::to_string(Case.Size) +
                                  " stage " + std::to_string(S);
      ASSERT_EQ(Case.Def->Name, G.Kernel) << Context;
      ASSERT_STREQ(Case.ArchName, G.Arch) << Context;
      ASSERT_EQ(Case.Size, G.Size) << Context;
      ASSERT_EQ(S, G.Stage) << Context;
      Func &F = Instance.Stages[S];
      OptimizationResult R =
          optimize(F, Instance.StageExtents[S], Case.Arch);
      EXPECT_EQ(R.Description, G.Description) << Context;
      int ComputeStage = F.computeStageIndex();
      EXPECT_EQ(printSchedule(F, ComputeStage), G.Schedule) << Context;
    }
  }
  EXPECT_EQ(Next, std::size(Goldens));
}

} // namespace
