//===- OptimizerTest.cpp - end-to-end optimizer tests ----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers: classification of all 12 paper benchmarks (Figure 2), the
// temporal/spatial optimizers producing feasible schedules, correctness of
// every optimized schedule against the reference oracles, and the ARM
// model variation.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "model/CacheEmu.h"
#include "core/Optimizer.h"
#include "interp/Interpreter.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <thread>
#include <vector>

using namespace ltp;

namespace {

/// Small sizes so interpreted verification stays fast.
int64_t testSize(const std::string &Name) {
  if (Name == "convlayer")
    return 16;
  if (Name == "doitgen")
    return 24;
  return 48;
}

OptimizationResult optimizeInstance(BenchmarkInstance &Instance,
                                    const ArchParams &Arch,
                                    const OptimizerOptions &Options = {}) {
  OptimizationResult Last;
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    Last = optimize(Instance.Stages[S], Instance.StageExtents[S], Arch,
                    Options);
  return Last;
}

struct ClassCase {
  const char *Name;
  StatementClass Want;
  bool WantNTI;
};

/// Prints the benchmark name; gtest's default byte dump would embed the
/// address of Name, which changes from run to run under ASLR.
void PrintTo(const ClassCase &Case, std::ostream *OS) {
  *OS << '"' << Case.Name << '"';
}

class ClassifierSuite : public ::testing::TestWithParam<ClassCase> {};

TEST_P(ClassifierSuite, MatchesPaperTable) {
  const ClassCase &Case = GetParam();
  const BenchmarkDef *Def = findBenchmark(Case.Name);
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(testSize(Case.Name));
  Func &Last = Instance.Stages.back();
  StageAccessInfo Info =
      analyzeComputeStage(Last, Instance.StageExtents.back());
  Classification C = classify(Info);
  EXPECT_EQ(C.Kind, Case.Want) << Case.Name;
  EXPECT_EQ(C.UseNonTemporalStores, Case.WantNTI) << Case.Name;
}

// The paper's Figure 4 grouping: the first eight benchmarks are optimized
// for temporal reuse, tp/tpm for spatial reuse, copy/mask untransformed;
// NTI applies to the four streaming kernels.
INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ClassifierSuite,
    ::testing::Values(
        ClassCase{"convlayer", StatementClass::TemporalReuse, false},
        ClassCase{"doitgen", StatementClass::TemporalReuse, false},
        ClassCase{"matmul", StatementClass::TemporalReuse, false},
        ClassCase{"3mm", StatementClass::TemporalReuse, false},
        ClassCase{"gemm", StatementClass::TemporalReuse, false},
        ClassCase{"trmm", StatementClass::TemporalReuse, false},
        ClassCase{"syrk", StatementClass::TemporalReuse, false},
        ClassCase{"syr2k", StatementClass::TemporalReuse, false},
        ClassCase{"tpm", StatementClass::SpatialReuse, true},
        ClassCase{"tp", StatementClass::SpatialReuse, true},
        ClassCase{"copy", StatementClass::NoTransform, true},
        ClassCase{"mask", StatementClass::NoTransform, true}),
    [](const ::testing::TestParamInfo<ClassCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '3')
          C = 'T';
      return Name;
    });

/// A benchmark at its test size, or at an explicit \p Size.
struct SizedCase {
  SizedCase(const char *Name, int64_t Size = 0) : Name(Name), Size(Size) {}
  const char *Name;
  int64_t Size;
};

/// Prints a default-size case exactly as its bare name would print.
void PrintTo(const SizedCase &Case, std::ostream *OS) {
  *OS << '"' << Case.Name << '"';
  if (Case.Size)
    *OS << " at size " << Case.Size;
}

class OptimizedCorrectness : public ::testing::TestWithParam<SizedCase> {};

TEST_P(OptimizedCorrectness, OptimizedScheduleMatchesReference) {
  const SizedCase &Case = GetParam();
  const BenchmarkDef *Def = findBenchmark(Case.Name);
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance =
      Def->Create(Case.Size ? Case.Size : testSize(Case.Name));
  optimizeInstance(Instance, intelI7_6700());
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    for (const analysis::LegalityReport &R : analysis::verifyFuncSchedule(
             Instance.Stages[S], Instance.StageExtents[S]))
      EXPECT_FALSE(R.hasErrors()) << Case.Name << ": " << R.message();
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance)) << "benchmark " << Case.Name;
}

// Sizes below one cache line of columns leave the spatial optimizer no
// feasible tiling; tp and tpm at size 8 pin the parallel+vectorize
// fallback.
INSTANTIATE_TEST_SUITE_P(AllBenchmarks, OptimizedCorrectness,
                         ::testing::Values("convlayer", "doitgen", "matmul",
                                           "3mm", "gemm", "trmm", "syrk",
                                           "syr2k", "tpm", "tp", "copy",
                                           "mask", SizedCase("tpm", 8),
                                           SizedCase("tp", 8)),
                         [](const ::testing::TestParamInfo<SizedCase>
                                &Info) {
                           std::string Name = Info.param.Name;
                           for (char &C : Name)
                             if (C == '3')
                               C = 'T';
                           if (Info.param.Size)
                             Name += "_size" +
                                     std::to_string(Info.param.Size);
                           return Name;
                         });

TEST(TemporalOptimizerTest, MatmulScheduleIsFeasible) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(512);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ArchParams Arch = intelI7_5930K();
  TemporalSchedule S = optimizeTemporal(Info, Arch);

  // Tile dimensions respect the problem and working sets fit the caches.
  for (const LoopInfo &Loop : Info.Loops) {
    ASSERT_TRUE(S.Tiles.count(Loop.Name));
    EXPECT_GE(S.Tiles.at(Loop.Name), 1);
    EXPECT_LE(S.Tiles.at(Loop.Name), Loop.Extent);
  }
  EXPECT_LE(S.WsL1, Arch.L1.SizeBytes / 4);
  EXPECT_LE(S.WsL2, Arch.L2.SizeBytes / 2 / 4);
  // Eq. 13: the parallel loop exposes at least one tile per thread.
  ASSERT_FALSE(S.ParallelVar.empty());
  int64_t Trip = interTrip(512, S.Tiles.at(S.ParallelVar));
  EXPECT_GE(Trip, Arch.totalThreads());
  // The column loop is vectorized and innermost.
  EXPECT_EQ(S.VectorVar, "j");
  EXPECT_EQ(S.IntraOrder.front(), "j");
  EXPECT_EQ(S.Cost > 0.0, true);
}

TEST(TemporalOptimizerTest, ParallelLoopIsOutermostOnTheParityGrid) {
  // Eq. 13 as a Step-1 constraint: whenever a pure tiled loop gives every
  // thread an inter-tile trip, the chosen schedule's outermost inter-tile
  // loop is parallel (fused with the next one when its trips are few).
  const std::pair<const char *, ArchParams> Platforms[] = {
      {"5930k", intelI7_5930K()},
      {"6700", intelI7_6700()},
      {"a15", armCortexA15()}};
  int Checked = 0;
  for (const BenchmarkDef &Def : allBenchmarks())
    for (const auto &[ArchName, Arch] : Platforms)
      for (int64_t Size : {Def.DefaultSize, Def.PaperSize, int64_t(1000)}) {
        BenchmarkInstance Instance = Def.Shape(Size);
        for (size_t S = 0; S != Instance.Stages.size(); ++S) {
          StagePlan Plan = planStage(Instance.Stages[S],
                                     Instance.StageExtents[S], Arch);
          if (Plan.Kind != StagePlan::Mode::Temporal)
            continue;
          const TemporalSchedule &T = Plan.Temporal;
          bool HasParallelTrip = false;
          for (const LoopInfo &Loop : Plan.Info.Loops)
            HasParallelTrip |=
                !Loop.IsReduction &&
                interTrip(Loop.Extent, T.Tiles.at(Loop.Name)) >=
                    Arch.totalThreads();
          if (!HasParallelTrip)
            continue;
          ++Checked;
          const std::string Context = Def.Name + " on " + ArchName +
                                      " size " + std::to_string(Size) +
                                      ": " + describeTemporalSchedule(T);
          ASSERT_FALSE(T.InterOrder.empty()) << Context;
          EXPECT_EQ(T.ParallelVar, T.InterOrder.back()) << Context;
        }
      }
  EXPECT_GE(Checked, 60);
}

TEST(TemporalOptimizerTest, OuterIntraLoopIsNotColumn) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(256);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_6700());
  EXPECT_NE(S.IntraOrder.back(), "j")
      << "column loop must not be the outermost intra-tile loop";
}

TEST(TemporalOptimizerTest, SmallLoopsStayUntiled) {
  const BenchmarkDef *Def = findBenchmark("convlayer");
  BenchmarkInstance Instance = Def->Create(32);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_6700());
  // The 3x3 window loops are below the small-loop threshold.
  EXPECT_EQ(S.Tiles.at("rx"), 3);
  EXPECT_EQ(S.Tiles.at("ry"), 3);
}

TEST(SpatialOptimizerTest, TransposeFavorsNarrowTallTiles) {
  const BenchmarkDef *Def = findBenchmark("tp");
  BenchmarkInstance Instance = Def->Create(1024);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  Classification C = classify(Info);
  ASSERT_EQ(C.Kind, StatementClass::SpatialReuse);
  ASSERT_EQ(C.TransposedInputs.size(), 1u);
  EXPECT_EQ(C.TransposedInputs[0], "A");

  ArchParams Arch = intelI7_5930K();
  SpatialSchedule S = optimizeSpatial(Info, C, Arch);
  int64_t Lc = Arch.L1.LineBytes / Info.DTS;
  // Eq. 15 is minimized at Tx = lc and the maximum interference-free
  // height.
  EXPECT_EQ(S.TileWidth, Lc);
  EXPECT_GE(S.TileHeight, S.TileWidth) << "tall tiles expected";
  EXPECT_LE(S.TileHeight, S.MaxTileHeight)
      << "Algorithm 1 bounds the height";
  // Eq. 15 is minimized at the tallest height that still gives every
  // thread at least one row of tiles.
  EXPECT_GE(interTrip(1024, S.TileHeight), Arch.totalThreads());
  EXPECT_LT(interTrip(1024, S.TileHeight), 2 * Arch.totalThreads());
  EXPECT_LE(2 * S.TileWidth * S.TileHeight,
            Arch.L2.SizeBytes / Info.DTS);
}

TEST(OptimizerTest, ARMModelUsesSharedL2Divisor) {
  // On the A15 the effective associativity divisor is NCores (shared L2),
  // which tightens the emulation bound relative to a private L2 of the
  // same geometry.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(512);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);

  ArchParams Shared = armCortexA15();
  ArchParams Private = Shared;
  Private.SharedL2 = false;
  TemporalSchedule SharedSched = optimizeTemporal(Info, Shared);
  TemporalSchedule PrivateSched = optimizeTemporal(Info, Private);
  EXPECT_LE(SharedSched.MaxT2, PrivateSched.MaxT2);
}

TEST(OptimizerTest, NTIAppliedOnlyWhenSupportedAndEnabled) {
  const BenchmarkDef *Def = findBenchmark("copy");

  BenchmarkInstance OnIntel = Def->Create(256);
  OptimizationResult R1 =
      optimizeInstance(OnIntel, intelI7_5930K());
  EXPECT_TRUE(R1.AppliedNonTemporal);
  EXPECT_TRUE(OnIntel.Stages[0].isStoreNonTemporal());

  BenchmarkInstance OnArm = Def->Create(256);
  OptimizationResult R2 = optimizeInstance(OnArm, armCortexA15());
  EXPECT_FALSE(R2.AppliedNonTemporal)
      << "the A15 has no vector non-temporal stores";

  BenchmarkInstance Disabled = Def->Create(256);
  OptimizerOptions Options;
  Options.EnableNonTemporal = false;
  OptimizationResult R3 =
      optimizeInstance(Disabled, intelI7_5930K(), Options);
  EXPECT_FALSE(R3.AppliedNonTemporal);
}

TEST(OptimizerTest, OptimizerRuntimeIsMilliseconds) {
  // Table 5: solutions within milliseconds (convlayer excepted).
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(2048);
  OptimizationResult R = optimizeInstance(Instance, intelI7_5930K());
  EXPECT_LT(R.RuntimeMillis, 2000.0);
  EXPECT_GT(R.RuntimeMillis, 0.0);
}

TEST(CacheEmuTest, BoundsShrinkWithWiderRows) {
  CacheEmuParams P;
  P.Cache = intelI7_6700().L1;
  P.DTS = 4;
  P.RowStrideElems = 2048;
  P.EffectiveWaysDivisor = 2;
  P.MaxRows = 2048;
  P.PrevTileElems = 64;
  int64_t Narrow = emulateMaxTileDim(P);
  P.PrevTileElems = 512;
  int64_t Wide = emulateMaxTileDim(P);
  EXPECT_LE(Wide, Narrow);
  EXPECT_GE(Narrow, 1);
}

TEST(CacheEmuTest, L2HalvingReducesBound) {
  CacheEmuParams P;
  P.Cache = intelI7_6700().L2;
  P.DTS = 4;
  P.RowStrideElems = 2048;
  P.EffectiveWaysDivisor = 2;
  P.MaxRows = 4096;
  P.PrevTileElems = 128;
  P.L2Pref = 2;
  P.L2MaxPref = 20;
  P.ForL2 = true;
  int64_t Halved = emulateMaxTileDim(P);
  P.ForL2 = false;
  int64_t Full = emulateMaxTileDim(P);
  EXPECT_LE(Halved, Full);
}

/// Which bound of a platform a pinned emulation row asks for.
enum class Level { L1, L2, NoPrefetch };

/// One pinned Algorithm-1 result: the parameters the optimizer (L1, L2)
/// or the TSS baseline (NoPrefetch) derives from a shipped platform for
/// a row shape, and the bound the original emulator returned for them.
struct PinnedEmulation {
  ArchParams (*Arch)();
  Level Bound;
  int64_t DTS;
  int64_t PrevTileElems;
  int64_t RowStrideElems;
  int64_t BaseAddrElems;
  int64_t MaxRows;
  int64_t Expected;
};

// Power-of-two and odd row strides, zero and non-zero base addresses,
// both element sizes, and rows capped by MaxRows.
const PinnedEmulation PinnedEmulations[] = {
    {intelI7_5930K, Level::L1, 4, 64, 2048, 0, 2048, 32},
    {intelI7_5930K, Level::L1, 4, 512, 2048, 0, 2048, 32},
    {intelI7_5930K, Level::L1, 4, 32, 1023, 0, 4096, 1040},
    {intelI7_5930K, Level::L1, 4, 250, 1000, 0, 1000, 213},
    {intelI7_5930K, Level::L1, 8, 64, 4096, 0, 4096, 4},
    {intelI7_5930K, Level::L1, 8, 128, 1001, 17, 3000, 90},
    {intelI7_5930K, Level::L1, 4, 16, 4096, 123, 4096, 16},
    {intelI7_5930K, Level::L1, 4, 4096, 2000000, 5, 50, 14},
    {intelI7_5930K, Level::L1, 4, 8, 64, 0, 8, 8},
    {intelI7_5930K, Level::L2, 4, 64, 2048, 0, 2048, 128},
    {intelI7_5930K, Level::L2, 4, 512, 2048, 0, 2048, 128},
    {intelI7_5930K, Level::L2, 4, 32, 1023, 0, 4096, 4096},
    {intelI7_5930K, Level::L2, 4, 250, 1000, 0, 1000, 852},
    {intelI7_5930K, Level::L2, 8, 64, 4096, 0, 4096, 16},
    {intelI7_5930K, Level::L2, 8, 128, 1001, 17, 3000, 360},
    {intelI7_5930K, Level::L2, 4, 16, 4096, 123, 4096, 64},
    {intelI7_5930K, Level::L2, 4, 4096, 2000000, 5, 50, 50},
    {intelI7_5930K, Level::L2, 4, 8, 64, 0, 8, 8},
    {intelI7_5930K, Level::NoPrefetch, 4, 64, 2048, 0, 2048, 32},
    {intelI7_5930K, Level::NoPrefetch, 4, 512, 2048, 0, 2048, 32},
    {intelI7_5930K, Level::NoPrefetch, 4, 32, 1023, 0, 4096, 2048},
    {intelI7_5930K, Level::NoPrefetch, 4, 250, 1000, 0, 1000, 213},
    {intelI7_5930K, Level::NoPrefetch, 8, 64, 4096, 0, 4096, 4},
    {intelI7_5930K, Level::NoPrefetch, 8, 128, 1001, 17, 3000, 90},
    {intelI7_5930K, Level::NoPrefetch, 4, 16, 4096, 123, 4096, 16},
    {intelI7_5930K, Level::NoPrefetch, 4, 4096, 2000000, 5, 50, 14},
    {intelI7_5930K, Level::NoPrefetch, 4, 8, 64, 0, 8, 8},
    {intelI7_6700, Level::L1, 4, 64, 2048, 0, 2048, 32},
    {intelI7_6700, Level::L1, 4, 512, 2048, 0, 2048, 32},
    {intelI7_6700, Level::L1, 4, 32, 1023, 0, 4096, 1040},
    {intelI7_6700, Level::L1, 4, 250, 1000, 0, 1000, 213},
    {intelI7_6700, Level::L1, 8, 64, 4096, 0, 4096, 4},
    {intelI7_6700, Level::L1, 8, 128, 1001, 17, 3000, 90},
    {intelI7_6700, Level::L1, 4, 16, 4096, 123, 4096, 16},
    {intelI7_6700, Level::L1, 4, 4096, 2000000, 5, 50, 14},
    {intelI7_6700, Level::L1, 4, 8, 64, 0, 8, 8},
    {intelI7_6700, Level::L2, 4, 64, 2048, 0, 2048, 128},
    {intelI7_6700, Level::L2, 4, 512, 2048, 0, 2048, 128},
    {intelI7_6700, Level::L2, 4, 32, 1023, 0, 4096, 4096},
    {intelI7_6700, Level::L2, 4, 250, 1000, 0, 1000, 852},
    {intelI7_6700, Level::L2, 8, 64, 4096, 0, 4096, 16},
    {intelI7_6700, Level::L2, 8, 128, 1001, 17, 3000, 360},
    {intelI7_6700, Level::L2, 4, 16, 4096, 123, 4096, 64},
    {intelI7_6700, Level::L2, 4, 4096, 2000000, 5, 50, 50},
    {intelI7_6700, Level::L2, 4, 8, 64, 0, 8, 8},
    {intelI7_6700, Level::NoPrefetch, 4, 64, 2048, 0, 2048, 32},
    {intelI7_6700, Level::NoPrefetch, 4, 512, 2048, 0, 2048, 32},
    {intelI7_6700, Level::NoPrefetch, 4, 32, 1023, 0, 4096, 2048},
    {intelI7_6700, Level::NoPrefetch, 4, 250, 1000, 0, 1000, 213},
    {intelI7_6700, Level::NoPrefetch, 8, 64, 4096, 0, 4096, 4},
    {intelI7_6700, Level::NoPrefetch, 8, 128, 1001, 17, 3000, 90},
    {intelI7_6700, Level::NoPrefetch, 4, 16, 4096, 123, 4096, 16},
    {intelI7_6700, Level::NoPrefetch, 4, 4096, 2000000, 5, 50, 14},
    {intelI7_6700, Level::NoPrefetch, 4, 8, 64, 0, 8, 8},
    {armCortexA15, Level::L1, 4, 64, 2048, 0, 2048, 64},
    {armCortexA15, Level::L1, 4, 512, 2048, 0, 2048, 64},
    {armCortexA15, Level::L1, 4, 32, 1023, 0, 4096, 2050},
    {armCortexA15, Level::L1, 4, 250, 1000, 0, 1000, 262},
    {armCortexA15, Level::L1, 8, 64, 4096, 0, 4096, 8},
    {armCortexA15, Level::L1, 8, 128, 1001, 17, 3000, 180},
    {armCortexA15, Level::L1, 4, 16, 4096, 123, 4096, 32},
    {armCortexA15, Level::L1, 4, 4096, 2000000, 5, 50, 27},
    {armCortexA15, Level::L1, 4, 8, 64, 0, 8, 8},
    {armCortexA15, Level::L2, 4, 64, 2048, 0, 2048, 128},
    {armCortexA15, Level::L2, 4, 512, 2048, 0, 2048, 128},
    {armCortexA15, Level::L2, 4, 32, 1023, 0, 4096, 4096},
    {armCortexA15, Level::L2, 4, 250, 1000, 0, 1000, 852},
    {armCortexA15, Level::L2, 8, 64, 4096, 0, 4096, 16},
    {armCortexA15, Level::L2, 8, 128, 1001, 17, 3000, 360},
    {armCortexA15, Level::L2, 4, 16, 4096, 123, 4096, 64},
    {armCortexA15, Level::L2, 4, 4096, 2000000, 5, 50, 50},
    {armCortexA15, Level::L2, 4, 8, 64, 0, 8, 8},
    {armCortexA15, Level::NoPrefetch, 4, 64, 2048, 0, 2048, 64},
    {armCortexA15, Level::NoPrefetch, 4, 512, 2048, 0, 2048, 64},
    {armCortexA15, Level::NoPrefetch, 4, 32, 1023, 0, 4096, 2050},
    {armCortexA15, Level::NoPrefetch, 4, 250, 1000, 0, 1000, 262},
    {armCortexA15, Level::NoPrefetch, 8, 64, 4096, 0, 4096, 8},
    {armCortexA15, Level::NoPrefetch, 8, 128, 1001, 17, 3000, 180},
    {armCortexA15, Level::NoPrefetch, 4, 16, 4096, 123, 4096, 32},
    {armCortexA15, Level::NoPrefetch, 4, 4096, 2000000, 5, 50, 27},
    {armCortexA15, Level::NoPrefetch, 4, 8, 64, 0, 8, 8},
};

CacheEmuParams paramsFor(const PinnedEmulation &Row) {
  const ArchParams Arch = Row.Arch();
  CacheEmuParams P;
  P.Cache = Row.Bound == Level::L2 ? Arch.L2 : Arch.L1;
  P.L1LineBytes = Arch.L1.LineBytes;
  P.DTS = Row.DTS;
  P.PrevTileElems = Row.PrevTileElems;
  P.RowStrideElems = Row.RowStrideElems;
  P.BaseAddrElems = Row.BaseAddrElems;
  P.MaxRows = Row.MaxRows;
  P.EffectiveWaysDivisor = Row.Bound == Level::L2 && Arch.SharedL2
                               ? std::max(1, Arch.NCores)
                               : std::max(1, Arch.NThreadsPerCore);
  if (Row.Bound == Level::L2) {
    P.L2Pref = Arch.L2PrefetchDegree;
    P.L2MaxPref = Arch.L2MaxPrefetchDistance;
    P.ForL2 = true;
  }
  P.NoPrefetchPadding = Row.Bound == Level::NoPrefetch;
  return P;
}

TEST(CacheEmuTest, MatchesPinnedResults) {
  for (size_t I = 0; I != std::size(PinnedEmulations); ++I)
    EXPECT_EQ(emulateMaxTileDim(paramsFor(PinnedEmulations[I])),
              PinnedEmulations[I].Expected)
        << "row " << I;
}

/// Runs \p Params on a new thread, whose slot space no call has used.
int64_t emulateOnFreshThread(const CacheEmuParams &Params) {
  int64_t Result = 0;
  std::thread([&] { Result = emulateMaxTileDim(Params); }).join();
  return Result;
}

TEST(CacheEmuTest, SmallLevelAfterLargeOneMatchesFreshResult) {
  // A level with many slots leaves stamps behind in slots a small level
  // never reaches and in the ones it does; neither may leak into the
  // next call on the thread.
  CacheEmuParams Large;
  Large.Cache = CacheParams{8 * 1024 * 1024, 64, 1}; // 2M slots
  Large.DTS = 4;
  Large.PrevTileElems = 64;
  Large.RowStrideElems = 1000;
  Large.MaxRows = 4096;
  CacheEmuParams Small = paramsFor(PinnedEmulations[2]);
  CacheEmuParams Tiny = Small;
  Tiny.Cache = CacheParams{1024, 64, 2};
  Tiny.RowStrideElems = 24;

  const int64_t LargeFresh = emulateOnFreshThread(Large);
  const int64_t SmallFresh = emulateOnFreshThread(Small);
  const int64_t TinyFresh = emulateOnFreshThread(Tiny);
  EXPECT_EQ(SmallFresh, PinnedEmulations[2].Expected);
  for (int Round = 0; Round != 3; ++Round) {
    EXPECT_EQ(emulateMaxTileDim(Large), LargeFresh);
    EXPECT_EQ(emulateMaxTileDim(Small), SmallFresh);
    EXPECT_EQ(emulateMaxTileDim(Tiny), TinyFresh);
    EXPECT_EQ(emulateMaxTileDim(Tiny), TinyFresh);
  }
}

// Labelled `serve` (tests/CMakeLists.txt) so the thread-sanitized job runs
// it: the daemon's workers emulate concurrently, each in its own slots.
TEST(CacheEmuRaceTest, ConcurrentCallsMatchPinnedResults) {
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (int Round = 0; Round != 5; ++Round)
        for (size_t I = 0; I != std::size(PinnedEmulations); ++I) {
          // Threads walk the table from different offsets, so different
          // levels run side by side.
          const PinnedEmulation &Row =
              PinnedEmulations[(I + 20 * T) % std::size(PinnedEmulations)];
          if (emulateMaxTileDim(paramsFor(Row)) != Row.Expected)
            ++Mismatches;
        }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST(TemporalOptimizerTest, OneDimKernelWithSmallWindowFallsBackUntiled) {
  // out(x) += in(x + rx) over a 3-tap window: the only big loop is the
  // column loop, so no (u, v) pivot pair exists; the optimizer must fall
  // back to an untiled schedule instead of asserting, and the schedule
  // must execute correctly.
  constexpr int64_t N = 64;
  Buffer<float> In({N + 2}), Out({N});
  In.fillRandom(13);

  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);
  RDom R(0, 3, "rx1d");
  Func O("Out");
  O(X) = 0.0f;
  O(X) += InB(Expr(X) + Expr(R));

  StageAccessInfo Info = analyzeComputeStage(O, {N});
  ASSERT_EQ(classify(Info).Kind, StatementClass::TemporalReuse);
  TemporalSchedule S = optimizeTemporal(Info, intelI7_5930K());
  EXPECT_EQ(S.Tiles.at("x"), N) << "fallback leaves the nest untiled";
  EXPECT_TRUE(S.InterOrder.empty());

  applyTemporalSchedule(O, 0, S, Info);
  interpret(lowerFunc(O, {N}), {{"In", In.ref()}, {"Out", Out.ref()}});
  for (int64_t I = 0; I != N; ++I) {
    float Want = In(I) + In(I + 1) + In(I + 2);
    ASSERT_NEAR(Out(I), Want, 1e-4) << I;
  }
}

} // namespace
