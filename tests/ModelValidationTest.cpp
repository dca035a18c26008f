//===- ModelValidationTest.cpp - analytical model vs cache simulator -------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The analytical model (Eqs. 1-12) earns its keep only if its miss
// estimates track what a cache with streaming prefetchers actually does.
// These tests sweep tile configurations of matmul on a scaled platform
// and check that:
//
//   1. the prefetch-adjusted CL1 estimate is rank-correlated with the
//      simulator's L1 demand misses across tile sweeps (the model needs
//      ordering, not absolute counts, to pick tiles);
//   2. the prefetch adjustment moves the estimate *toward* the simulator
//      relative to the prefetch-unaware count (the paper's core claim);
//   3. the working-set predicate agrees with the simulator about when a
//      tile starts thrashing the L1.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"
#include "tests/oracles/CostModel.h"
#include "core/Optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace ltp;

namespace {

/// A small platform so 64^3 matmul stresses it: 4KB/8-way L1,
/// 32KB/8-way L2, no L3.
ArchParams tinyArch() {
  ArchParams Arch = intelI7_6700();
  Arch.L1 = CacheParams{4 * 1024, 64, 8};
  Arch.L2 = CacheParams{32 * 1024, 64, 8};
  Arch.L3 = CacheParams{0, 64, 1};
  Arch.NCores = 1;
  Arch.NThreadsPerCore = 1;
  return Arch;
}

/// Applies a fixed matmul tiling (intra order j,k,i; inter k,i) and
/// returns {model CL1, simulated L1 misses}.
std::pair<double, double> modelAndSim(int64_t N, int64_t Ti, int64_t Tj,
                                      int64_t Tk, const ArchParams &Arch) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(N);
  Func &F = Instance.Stages[0];
  StageAccessInfo Info =
      analyzeComputeStage(F, Instance.StageExtents[0]);

  TileMap Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};
  double Model = estimateL1Misses(Info, Tiles, "i");

  TemporalSchedule Sched;
  Sched.Tiles = Tiles;
  Sched.IntraOrder = {"j", "k", "i"};
  Sched.InterOrder = {};
  if (Tj < N)
    Sched.InterOrder.push_back("j");
  if (Tk < N)
    Sched.InterOrder.push_back("k");
  if (Ti < N)
    Sched.InterOrder.push_back("i");
  F.clearSchedules();
  applyTemporalSchedule(F, F.numUpdates() - 1, Sched, Info);

  // Simulate only the update stage (the pure init adds a constant).
  ErrorOr<SimResult> Sim = simulatePipeline(Instance, Arch);
  EXPECT_TRUE(static_cast<bool>(Sim)) << Sim.getError();
  return {Model, Sim ? static_cast<double>(Sim->Stats.L1.DemandMisses) : -1.0};
}

TEST(ModelValidationTest, CL1TracksSimulatedMissOrdering) {
  // Sweep tile shapes at fixed volume-ish and check rank correlation.
  const int64_t N = 64;
  ArchParams Arch = tinyArch();
  struct Point {
    double Model;
    double Sim;
  };
  std::vector<Point> Points;
  for (auto [Ti, Tj, Tk] :
       {std::tuple<int64_t, int64_t, int64_t>{8, 64, 8},
        {16, 64, 8},
        {32, 64, 8},
        {8, 32, 16},
        {4, 16, 4},
        {64, 64, 64}}) {
    auto [Model, Sim] = modelAndSim(N, Ti, Tj, Tk, Arch);
    Points.push_back({Model, Sim});
  }
  // Kendall-tau-style concordance: most pairs must order the same way.
  int Concordant = 0, Discordant = 0;
  for (size_t A = 0; A != Points.size(); ++A)
    for (size_t B = A + 1; B != Points.size(); ++B) {
      double DM = Points[A].Model - Points[B].Model;
      double DS = Points[A].Sim - Points[B].Sim;
      if (DM * DS > 0)
        ++Concordant;
      else if (DM * DS < 0)
        ++Discordant;
    }
  EXPECT_GT(Concordant, 2 * Discordant)
      << "model ordering must broadly agree with the simulator ("
      << Concordant << " concordant vs " << Discordant << " discordant)";
}

TEST(ModelValidationTest, PrefetchAdjustmentMovesTowardSimulator) {
  // For a tile whose rows the next-line prefetcher covers, the
  // prefetch-adjusted estimate must be closer to the simulated misses
  // than the raw footprint-lines estimate.
  const int64_t N = 64;
  ArchParams Arch = tinyArch();
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(N);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  const int64_t Lc = Arch.L1.LineBytes / Info.DTS;

  TileMap Tiles = {{"i", 8}, {"j", 64}, {"k", 8}};
  double WithPrefetch = estimateL1Misses(Info, Tiles, "i");
  double WithoutPrefetch =
      estimateL1MissesNoPrefetch(Info, Tiles, "i", Lc);
  auto [Model, Sim] = modelAndSim(N, 8, 64, 8, Arch);
  (void)Model;

  double ErrWith = std::fabs(std::log(WithPrefetch / Sim));
  double ErrWithout = std::fabs(std::log(WithoutPrefetch / Sim));
  EXPECT_LT(ErrWith, ErrWithout)
      << "prefetch-adjusted " << WithPrefetch << ", unaware "
      << WithoutPrefetch << ", simulated " << Sim;
}

TEST(ModelValidationTest, PrefetcherInvertsNaiveWorkingSetReasoning) {
  // The paper's central observation, reproduced in the simulator: with
  // streaming prefetchers, an untiled fully sequential sweep whose data
  // far exceeds the L1 misses *less* than a narrow tiling whose working
  // set fits — tiling "may interfere with the efficiency of the
  // streaming hardware prefetching unit". Without the prefetchers, the
  // classic working-set reasoning holds again.
  const int64_t N = 64;
  ArchParams WithPf = tinyArch();
  auto [M1, SeqWith] = modelAndSim(N, 8, 64, 64, WithPf);
  auto [M2, TiledWith] = modelAndSim(N, 8, 16, 16, WithPf);
  (void)M1;
  (void)M2;
  EXPECT_LT(SeqWith, TiledWith)
      << "the prefetcher must hide the sequential sweep's misses";

  ArchParams NoPf = tinyArch();
  NoPf.L1NextLinePrefetcher = false;
  NoPf.L2PrefetchDegree = 0;
  auto [M3, SeqWithout] = modelAndSim(N, 8, 64, 64, NoPf);
  (void)M3;
  EXPECT_GT(SeqWithout, SeqWith * 10)
      << "disabling the prefetcher must expose the capacity misses";
}

TEST(ModelValidationTest, OptimizerBeatsMedianRandomTiling) {
  // The end-to-end claim, in miniature: the schedule the optimizer picks
  // for the tiny platform must land in the best half of a small random
  // tile sample. DRAM line traffic is the discriminating metric at trace
  // sizes (the cycle estimate is dominated by L1 hits common to all
  // configurations and differs by <1%).
  const int64_t N = 96; // 3.4x the tiny L2: the regime tiling targets
  ArchParams Arch = tinyArch();
  const BenchmarkDef *Def = findBenchmark("matmul");

  BenchmarkInstance Chosen = Def->Create(N);
  optimize(Chosen.Stages[0], Chosen.StageExtents[0], Arch);
  double ChosenCycles = static_cast<double>(
      simulatePipeline(Chosen, Arch)->Stats.memoryTraffic());

  std::vector<double> RandomCycles;
  for (auto [Ti, Tj, Tk] :
       {std::tuple<int64_t, int64_t, int64_t>{4, 8, 4},
        {96, 96, 96},
        {8, 8, 8},
        {32, 16, 2},
        {2, 96, 32}}) {
    const BenchmarkDef *D2 = findBenchmark("matmul");
    BenchmarkInstance Other = D2->Create(N);
    StageAccessInfo Info = analyzeComputeStage(Other.Stages[0],
                                               Other.StageExtents[0]);
    TemporalSchedule S;
    S.Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};
    S.IntraOrder = {"j", "k", "i"};
    for (const char *V : {"j", "k", "i"})
      if (S.Tiles.at(V) < N)
        S.InterOrder.push_back(V);
    Other.Stages[0].clearSchedules();
    applyTemporalSchedule(Other.Stages[0],
                          Other.Stages[0].numUpdates() - 1, S, Info);
    RandomCycles.push_back(static_cast<double>(
        simulatePipeline(Other, Arch)->Stats.memoryTraffic()));
  }
  std::sort(RandomCycles.begin(), RandomCycles.end());
  double Median = RandomCycles[RandomCycles.size() / 2];
  EXPECT_LT(ChosenCycles, Median);
}

} // namespace
