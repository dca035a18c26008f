//===- BaselinesTest.cpp - comparison-scheduler tests ----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers: the developer baseline, the Auto-Scheduler reimplementation,
// the TSS/TTS analytical models and the autotuner — correctness of every
// schedule they emit, plus the structural properties the paper attributes
// to each (Auto-Scheduler never tiles reductions; TTS tiles are at least
// as large as TSS tiles; the autotuner improves monotonically).
//
//===----------------------------------------------------------------------===//

#include "baselines/Autotuner.h"
#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/TemporalOptimizer.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace ltp;

namespace {

class BaselineCorrectness : public ::testing::TestWithParam<const char *> {
protected:
  BenchmarkInstance makeSmall() {
    const BenchmarkDef *Def = findBenchmark(GetParam());
    EXPECT_NE(Def, nullptr);
    int64_t Size = std::string(GetParam()) == "convlayer" ? 16 : 40;
    return Def->Create(Size);
  }
};

TEST_P(BaselineCorrectness, BaselineScheduleIsCorrect) {
  BenchmarkInstance Instance = makeSmall();
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyBaselineSchedule(Instance.Stages[S], Instance.StageExtents[S],
                          intelI7_6700());
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST_P(BaselineCorrectness, AutoSchedulerScheduleIsCorrect) {
  BenchmarkInstance Instance = makeSmall();
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyAutoSchedulerSchedule(Instance.Stages[S],
                               Instance.StageExtents[S], intelI7_6700());
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BaselineCorrectness,
                         ::testing::Values("convlayer", "doitgen", "matmul",
                                           "3mm", "gemm", "trmm", "syrk",
                                           "syr2k", "tpm", "tp", "copy",
                                           "mask"),
                         [](const ::testing::TestParamInfo<const char *>
                                &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '3')
                               C = 'T';
                           return Name;
                         });

TEST(TSSTTSTest, SchedulesAreCorrect) {
  for (const char *Model : {"tss", "tts"}) {
    const BenchmarkDef *Def = findBenchmark("matmul");
    BenchmarkInstance Instance = Def->Create(48);
    Func &F = Instance.Stages[0];
    F.clearSchedules();
    StageAccessInfo Info =
        analyzeComputeStage(F, Instance.StageExtents[0]);
    TemporalSchedule S = std::string(Model) == "tss"
                             ? optimizeTSS(Info, intelI7_5930K())
                             : optimizeTTS(Info, intelI7_5930K());
    applyTemporalSchedule(F, F.numUpdates() - 1, S, Info);
    ASSERT_EQ(runInterpreted(Instance), "");
    EXPECT_TRUE(verifyOutput(Instance)) << Model;
  }
}

TEST(TSSTTSTest, TTSTilesAtLeastAsLargeAsTSS) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(1024);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ArchParams Arch = intelI7_5930K();
  TemporalSchedule TSS = optimizeTSS(Info, Arch);
  TemporalSchedule TTS = optimizeTTS(Info, Arch);
  int64_t TssVolume = 1, TtsVolume = 1;
  for (const auto &[Var, T] : TSS.Tiles)
    TssVolume *= T;
  for (const auto &[Var, T] : TTS.Tiles)
    TtsVolume *= T;
  EXPECT_GE(TtsVolume, TssVolume)
      << "TurboTiling targets the outer cache levels, so its tiles are "
         "larger";
}

/// TSS and TTS tiles of every Table-4 kernel at its default size, one row
/// per (kernel, platform, stage) in allBenchmarks() order: the search's
/// full outcome (tiles, orders, cost) as describeTemporalSchedule prints it.
struct TileGolden {
  const char *Kernel;
  const char *Arch;
  size_t Stage;
  const char *TSS;
  const char *TTS;
};

const TileGolden TileGoldens[] = {
    {"convlayer", "5930k", 0,
     "tiles{b=1, ko=24, rc=8, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[rc,x,y] parallel(y) vectorize(x, 8) cost=3.25e+05 order=0 maxT1=96 maxT2=0",
     "tiles{b=1, ko=24, rc=24, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.56e+05 order=0 maxT1=96 maxT2=0"},
    {"convlayer", "6700", 0,
     "tiles{b=1, ko=24, rc=8, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[rc,x,y] parallel(y) vectorize(x, 8) cost=3.25e+05 order=0 maxT1=96 maxT2=0",
     "tiles{b=1, ko=24, rc=24, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.56e+05 order=0 maxT1=96 maxT2=0"},
    {"convlayer", "a15", 0,
     "tiles{b=1, ko=24, rc=8, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[rc,x,y] parallel(y) vectorize(x, 4) cost=5.3e+05 order=0 maxT1=96 maxT2=0",
     "tiles{b=1, ko=24, rc=24, rx=3, ry=3, x=32, y=32} intra[x,b,rx,ry,ko,rc,y] inter[y,x] parallel(x) vectorize(x, 4) cost=4.2e+05 order=0 maxT1=96 maxT2=0"},
    {"doitgen", "5930k", 0,
     "tiles{p=64, q=8, r=64, s=32} intra[p,r,s,q] inter[s,p,q,r] parallel(r) vectorize(p, 8) cost=2.52e+06 order=0 maxT1=128 maxT2=0",
     "tiles{p=128, q=32, r=64, s=64} intra[p,r,s,q] inter[s,q,r] parallel(r) vectorize(p, 8) cost=1.48e+06 order=0 maxT1=128 maxT2=0"},
    {"doitgen", "6700", 0,
     "tiles{p=64, q=8, r=64, s=32} intra[p,r,s,q] inter[s,p,q,r] parallel(r) vectorize(p, 8) cost=2.52e+06 order=0 maxT1=128 maxT2=0",
     "tiles{p=128, q=32, r=64, s=64} intra[p,r,s,q] inter[s,q,r] parallel(r) vectorize(p, 8) cost=1.48e+06 order=0 maxT1=128 maxT2=0"},
    {"doitgen", "a15", 0,
     "tiles{p=64, q=16, r=64, s=32} intra[p,r,s,q] inter[s,p,q,r] parallel(r) vectorize(p, 4) cost=4.08e+06 order=0 maxT1=128 maxT2=0",
     "tiles{p=128, q=8, r=64, s=64} intra[p,r,s,q] inter[s,q,r] parallel(r) vectorize(p, 4) cost=2.79e+06 order=0 maxT1=128 maxT2=0"},
    {"matmul", "5930k", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"matmul", "6700", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"matmul", "a15", 0,
     "tiles{i=128, j=256, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=1.18e+07 order=0 maxT1=128 maxT2=0",
     "tiles{i=256, j=256, k=128} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=5.77e+06 order=0 maxT1=1024 maxT2=0"},
    {"3mm", "5930k", 0,
     "tiles{i=256, j=128, k1=32} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k1=128} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "5930k", 1,
     "tiles{i=256, j=128, k2=32} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k2=128} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "5930k", 2,
     "tiles{i=256, j=128, k3=32} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k3=128} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "6700", 0,
     "tiles{i=256, j=128, k1=32} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k1=128} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "6700", 1,
     "tiles{i=256, j=128, k2=32} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k2=128} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "6700", 2,
     "tiles{i=256, j=128, k3=32} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 8) cost=2.69e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k3=128} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 8) cost=1.47e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "a15", 0,
     "tiles{i=256, j=256, k1=16} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 4) cost=4.06e+06 order=0 maxT1=512 maxT2=0",
     "tiles{i=256, j=256, k1=128} intra[j,k1,i] inter[k1,j,i] parallel(i) vectorize(j, 4) cost=2.51e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "a15", 1,
     "tiles{i=256, j=256, k2=16} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 4) cost=4.06e+06 order=0 maxT1=512 maxT2=0",
     "tiles{i=256, j=256, k2=128} intra[j,k2,i] inter[k2,j,i] parallel(i) vectorize(j, 4) cost=2.51e+06 order=0 maxT1=768 maxT2=0"},
    {"3mm", "a15", 2,
     "tiles{i=256, j=256, k3=16} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 4) cost=4.06e+06 order=0 maxT1=512 maxT2=0",
     "tiles{i=256, j=256, k3=128} intra[j,k3,i] inter[k3,j,i] parallel(i) vectorize(j, 4) cost=2.51e+06 order=0 maxT1=768 maxT2=0"},
    {"gemm", "5930k", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"gemm", "6700", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"gemm", "a15", 0,
     "tiles{i=128, j=256, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=1.18e+07 order=0 maxT1=128 maxT2=0",
     "tiles{i=256, j=256, k=128} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=5.77e+06 order=0 maxT1=1024 maxT2=0"},
    {"trmm", "5930k", 0,
     "tiles{i=32, j=128, k=64} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=64, j=512, k=512} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"trmm", "6700", 0,
     "tiles{i=32, j=128, k=64} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=64, j=512, k=512} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"trmm", "a15", 0,
     "tiles{i=16, j=256, k=128} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 4) cost=1.18e+07 order=0 maxT1=128 maxT2=0",
     "tiles{i=128, j=256, k=256} intra[j,i,k] inter[i,k,j] parallel(j) vectorize(j, 4) cost=5.77e+06 order=0 maxT1=1024 maxT2=0"},
    {"syrk", "5930k", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"syrk", "6700", 0,
     "tiles{i=64, j=128, k=32} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=1.02e+07 order=0 maxT1=64 maxT2=0",
     "tiles{i=512, j=512, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.62e+06 order=0 maxT1=512 maxT2=0"},
    {"syrk", "a15", 0,
     "tiles{i=128, j=256, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=1.18e+07 order=0 maxT1=128 maxT2=0",
     "tiles{i=256, j=256, k=128} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=5.77e+06 order=0 maxT1=1024 maxT2=0"},
    {"syr2k", "5930k", 0,
     "tiles{i=256, j=128, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=5.23e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.8e+06 order=0 maxT1=768 maxT2=0"},
    {"syr2k", "6700", 0,
     "tiles{i=256, j=128, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=5.23e+06 order=0 maxT1=256 maxT2=0",
     "tiles{i=256, j=256, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 8) cost=2.8e+06 order=0 maxT1=768 maxT2=0"},
    {"syr2k", "a15", 0,
     "tiles{i=256, j=128, k=16} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=8.04e+06 order=0 maxT1=512 maxT2=0",
     "tiles{i=256, j=256, k=64} intra[j,k,i] inter[k,j,i] parallel(i) vectorize(j, 4) cost=4.72e+06 order=0 maxT1=768 maxT2=0"},
    {"tpm", "5930k", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=7.86e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=7.86e+06 order=0 maxT1=256 maxT2=0"},
    {"tpm", "6700", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=7.86e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=7.86e+06 order=0 maxT1=256 maxT2=0"},
    {"tpm", "a15", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=1.1e+07 order=0 maxT1=64 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=1.1e+07 order=0 maxT1=1024 maxT2=0"},
    {"tp", "5930k", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=6.55e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=6.55e+06 order=0 maxT1=256 maxT2=0"},
    {"tp", "6700", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=6.55e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=6.55e+06 order=0 maxT1=256 maxT2=0"},
    {"tp", "a15", 0,
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=8.65e+06 order=0 maxT1=64 maxT2=0",
     "tiles{x=16, y=16} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=8.65e+06 order=0 maxT1=1024 maxT2=0"},
    {"copy", "5930k", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.62e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.62e+06 order=0 maxT1=256 maxT2=0"},
    {"copy", "6700", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.62e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=2.62e+06 order=0 maxT1=256 maxT2=0"},
    {"copy", "a15", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=4.72e+06 order=0 maxT1=64 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=4.72e+06 order=0 maxT1=1024 maxT2=0"},
    {"mask", "5930k", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=3.93e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=3.93e+06 order=0 maxT1=256 maxT2=0"},
    {"mask", "6700", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=3.93e+06 order=0 maxT1=32 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 8) cost=3.93e+06 order=0 maxT1=256 maxT2=0"},
    {"mask", "a15", 0,
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=7.08e+06 order=0 maxT1=64 maxT2=0",
     "tiles{x=16, y=2} intra[x,y] inter[y,x] parallel(x) vectorize(x, 4) cost=7.08e+06 order=0 maxT1=1024 maxT2=0"},
};

TEST(TSSTTSTest, MatchesPinnedTilesOnAllKernels) {
  const std::pair<const char *, ArchParams> Platforms[] = {
      {"5930k", intelI7_5930K()},
      {"6700", intelI7_6700()},
      {"a15", armCortexA15()}};
  size_t Next = 0;
  for (const BenchmarkDef &Def : allBenchmarks())
    for (const auto &[Name, Arch] : Platforms) {
      BenchmarkInstance Instance = Def.Shape(Def.DefaultSize);
      for (size_t S = 0; S != Instance.Stages.size(); ++S) {
        ASSERT_LT(Next, std::size(TileGoldens)) << "grid outgrew the goldens";
        const TileGolden &G = TileGoldens[Next++];
        const std::string Context =
            Def.Name + " on " + Name + " stage " + std::to_string(S);
        ASSERT_EQ(Def.Name, G.Kernel) << Context;
        ASSERT_STREQ(Name, G.Arch) << Context;
        ASSERT_EQ(S, G.Stage) << Context;
        const Func &F = Instance.Stages[S];
        StageAccessInfo Info = analyzeStage(F, F.computeStageIndex(),
                                            Instance.StageExtents[S]);
        EXPECT_EQ(describeTemporalSchedule(optimizeTSS(Info, Arch)), G.TSS)
            << Context;
        EXPECT_EQ(describeTemporalSchedule(optimizeTTS(Info, Arch)), G.TTS)
            << Context;
      }
    }
  EXPECT_EQ(Next, std::size(TileGoldens));
}

TEST(AutoSchedulerTest, NeverTilesReductionLoops) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(256);
  Func &F = Instance.Stages[0];
  applyAutoSchedulerSchedule(F, Instance.StageExtents[0], intelI7_6700());
  const Definition &Update = F.updateDefinition(F.numUpdates() - 1);
  for (const ScheduleDirective &D : Update.Schedule.Directives) {
    if (const auto *Split = std::get_if<SplitDirective>(&D)) {
      EXPECT_NE(Split->Old, "k")
          << "the Auto-Scheduler only tiles output dimensions";
    }
  }
}

TEST(AutotunerTest, FindsCorrectScheduleWithinBudget) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(64);
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 3.0;
  Options.Seed = 7;
  AutotuneOutcome Outcome = autotune(Instance, Compiler, Options);
  EXPECT_GT(Outcome.CandidatesEvaluated, 0);
  EXPECT_GT(Outcome.BestSeconds, 0.0);

  // The instance is left with the best schedule applied and correct.
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST(AutotunerTest, DeterministicGivenSeed) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("copy");
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 1.0;
  Options.Seed = 11;

  BenchmarkInstance A = Def->Create(256);
  AutotuneOutcome OA = autotune(A, Compiler, Options);
  BenchmarkInstance B = Def->Create(256);
  AutotuneOutcome OB = autotune(B, Compiler, Options);
  // Same seed, same candidate stream; the time-based budget may cut the
  // streams at different points, so compare only the shared prefix via
  // the descriptions when both searches evaluated candidates.
  EXPECT_GT(OA.CandidatesEvaluated, 0);
  EXPECT_GT(OB.CandidatesEvaluated, 0);
}

TEST(AutotunerTest, DeclinedCandidatesAreTimedNotSimulated) {
  // The closed-form model declines every trmm candidate (its triangle is
  // a predicated domain). The search must neither simulate them nor rank
  // them away: each legal one is compiled and timed.
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("trmm");
  BenchmarkInstance Instance = Def->Create(64);
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 120.0;
  Options.MaxCandidates = 8;
  Options.Seed = 5;
  obs::Counter &SimAccesses = obs::counter("sim.accesses");
  const int64_t Before = SimAccesses.value();
  AutotuneOutcome Outcome = autotune(Instance, Compiler, Options);
  EXPECT_EQ(SimAccesses.value(), Before);
  EXPECT_EQ(Outcome.ScoredAnalytic, 0);
  EXPECT_EQ(Outcome.CandidatesModelPruned, 0);
  EXPECT_GT(Outcome.CandidatesEvaluated, 0);
  EXPECT_EQ(Outcome.CandidatesEvaluated + Outcome.CandidatesFailed +
                Outcome.CandidatesPruned + Outcome.CandidatesLintPruned,
            Options.MaxCandidates);
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST(AutotunerTest, VectorizesTheStreamLoopOnSyrk) {
  // syrk's output column j strides A, so a vectorize on it is a lint
  // error; the search draws the loop the optimizer streams (the
  // reduction k) instead, and lint keeps most draws.
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  const BenchmarkDef *Def = findBenchmark("syrk");
  BenchmarkInstance Instance = Def->Create(64);
  JITCompiler Compiler;
  AutotuneOptions Options;
  Options.BudgetSeconds = 120.0;
  Options.MaxCandidates = 16;
  Options.Seed = 3;
  AutotuneOutcome Outcome = autotune(Instance, Compiler, Options);
  // Vectorizing j (the output column) instead, lint pruned 14 of these
  // 16 draws.
  EXPECT_LE(Outcome.CandidatesLintPruned * 3, Options.MaxCandidates);
  EXPECT_GT(Outcome.CandidatesEvaluated, 1);
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

} // namespace
