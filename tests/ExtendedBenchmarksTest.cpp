//===- ExtendedBenchmarksTest.cpp - extended-suite classification/correctness -===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The extended kernels probe flow paths the paper's 12 do not: 1-D
// reductions with no parallelizable pure loop (atax/bicg/mvt), a
// 4-stage mixed pipeline (gemver) and the stencil branch of the
// classifier (jacobi2d, per Kamil et al. [9]).
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

class ExtendedCorrectness : public ::testing::TestWithParam<const char *> {
};

TEST_P(ExtendedCorrectness, OptimizedScheduleMatchesReference) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(40);
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    optimize(Instance.Stages[S], Instance.StageExtents[S],
             intelI7_5930K());
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

TEST_P(ExtendedCorrectness, BaselineScheduleMatchesReference) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(36);
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    applyBaselineSchedule(Instance.Stages[S], Instance.StageExtents[S],
                          intelI7_6700());
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedCorrectness,
                         ::testing::Values("atax", "bicg", "mvt", "gemver",
                                           "jacobi2d"));

TEST(ExtendedClassificationTest, JacobiIsStencilNoTransform) {
  const BenchmarkDef *Def = findBenchmark("jacobi2d");
  BenchmarkInstance Instance = Def->Create(32);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  Classification C = classify(Info);
  EXPECT_EQ(C.Kind, StatementClass::NoTransform)
      << "stencils must not be tiled (Figure 2 / Kamil et al.)";
  EXPECT_TRUE(C.IsStencil);
  EXPECT_TRUE(C.UseNonTemporalStores)
      << "the sweep never re-reads its output";
}

TEST(ExtendedClassificationTest, AtaxStagesAreTemporal) {
  const BenchmarkDef *Def = findBenchmark("atax");
  BenchmarkInstance Instance = Def->Create(64);
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    StageAccessInfo Info = analyzeComputeStage(Instance.Stages[S],
                                               Instance.StageExtents[S]);
    EXPECT_EQ(classify(Info).Kind, StatementClass::TemporalReuse)
        << "stage " << S;
  }
}

TEST(ExtendedClassificationTest, GemverMixesClasses) {
  const BenchmarkDef *Def = findBenchmark("gemver");
  BenchmarkInstance Instance = Def->Create(64);
  // Stage 0 (rank-2 update): elementwise, no transposed input.
  StageAccessInfo S0 =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  EXPECT_EQ(classify(S0).Kind, StatementClass::NoTransform);
  EXPECT_TRUE(classify(S0).UseNonTemporalStores);
  // Stages 1 and 2 (matvecs): temporal.
  for (size_t S = 1; S != 3; ++S) {
    StageAccessInfo Info = analyzeComputeStage(Instance.Stages[S],
                                               Instance.StageExtents[S]);
    EXPECT_EQ(classify(Info).Kind, StatementClass::TemporalReuse)
        << "stage " << S;
  }
}

TEST(ExtendedOptimizerTest, OneDimensionalOutputHasNoParallelLoop) {
  // bicg's s(j) += r(ir) * A(j, ir): the only pure loop is the streamed
  // column loop; Eq. 13 must be vacuous and the schedule serial but
  // valid.
  const BenchmarkDef *Def = findBenchmark("bicg");
  BenchmarkInstance Instance = Def->Create(512);
  ArchParams Arch = intelI7_5930K(); // 12 threads
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ASSERT_EQ(Info.streamColumnVar(), "j");
  TemporalSchedule S = optimizeTemporal(Info, Arch);
  EXPECT_TRUE(S.ParallelVar.empty());
  EXPECT_GE(S.Tiles.at("j"), Arch.VectorWidth);
}

TEST(ExtendedOptimizerTest, OneDimensionalOutputOverAStridedInputStreamsTheReduction) {
  // mvt's x1(i) += A(jr, i) * y1(jr): vectorizing i would stride A, so the
  // reduction loop jr is streamed, and the output loop i is free to run
  // in parallel.
  const BenchmarkDef *Def = findBenchmark("mvt");
  BenchmarkInstance Instance = Def->Create(512);
  ArchParams Arch = intelI7_5930K(); // 12 threads
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
  ASSERT_EQ(Info.streamColumnVar(), "jr");
  TemporalSchedule S = optimizeTemporal(Info, Arch);
  EXPECT_EQ(S.VectorVar, "jr");
  EXPECT_EQ(S.ParallelVar, "i");
  ASSERT_FALSE(S.InterOrder.empty());
  EXPECT_EQ(S.InterOrder.back(), "i");
}

} // namespace
