//===- DeterminismTest.cpp - reproducibility properties ---------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// A schedule generator that is not bit-for-bit reproducible poisons every
// experiment built on it. These tests pin determinism end to end:
// identical inputs must give identical schedules, identical lowered IR,
// identical generated C and identical simulator statistics.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "ir/IRPrinter.h"
#include "lang/ScheduleText.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

class DeterminismSuite : public ::testing::TestWithParam<const char *> {};

TEST_P(DeterminismSuite, OptimizerIsDeterministic) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  int64_t Size = std::string(GetParam()) == "convlayer" ? 32 : 128;

  std::string First, Second;
  for (std::string *Out : {&First, &Second}) {
    BenchmarkInstance Instance = Def->Create(Size);
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      OptimizationResult R = optimize(
          Instance.Stages[S], Instance.StageExtents[S], intelI7_5930K());
      *Out += R.Description + "\n";
      int Stage = Instance.Stages[S].computeStageIndex();
      *Out += printSchedule(Instance.Stages[S], Stage) + "\n";
      for (const ir::StmtPtr &Lowered : lowerPipeline(Instance))
        *Out += ir::printStmt(Lowered);
    }
  }
  EXPECT_EQ(First, Second);
}

INSTANTIATE_TEST_SUITE_P(Kernels, DeterminismSuite,
                         ::testing::Values("matmul", "convlayer", "tpm",
                                           "gemver"));

TEST(DeterminismTest, GeneratedCIsByteIdentical) {
  auto Generate = [] {
    const BenchmarkDef *Def = findBenchmark("tpm");
    BenchmarkInstance Instance = Def->Create(128);
    optimize(Instance.Stages[0], Instance.StageExtents[0],
             intelI7_6700());
    std::vector<BufferBinding> Signature;
    for (const auto &[Name, Ref] : Instance.Buffers)
      Signature.push_back(BufferBinding::fromRef(Name, Ref));
    return generateC(lowerPipeline(Instance)[0], Signature, "k");
  };
  EXPECT_EQ(Generate(), Generate());
}

// Telemetry must be strictly read-only with respect to the search:
// enabling span tracing and the --explain decision log cannot change
// what the optimizer produces.
TEST(DeterminismTest, TracingDoesNotPerturbOptimizer) {
  auto Optimize = [] {
    std::string Out;
    for (const char *Name : {"matmul", "tpm", "gemver"}) {
      const BenchmarkDef *Def = findBenchmark(Name);
      BenchmarkInstance Instance = Def->Create(128);
      for (size_t S = 0; S != Instance.Stages.size(); ++S) {
        OptimizationResult R = optimize(
            Instance.Stages[S], Instance.StageExtents[S], intelI7_5930K());
        Out += R.Description + "\n";
        int Stage = Instance.Stages[S].computeStageIndex();
        Out += printSchedule(Instance.Stages[S], Stage) + "\n";
      }
    }
    return Out;
  };

  std::string Plain = Optimize();

  obs::setTracingEnabled(true);
  obs::setExplainEnabled(true);
  std::string Traced = Optimize();
  size_t Decisions = obs::takeDecisions().size();
  obs::setTracingEnabled(false);
  obs::setExplainEnabled(false);
  obs::clearTrace();

  EXPECT_EQ(Plain, Traced);
  EXPECT_GT(Decisions, 0u); // the traced run did record provenance
}

TEST(DeterminismTest, SimulatorStatsReproducible) {
  auto Simulate = [] {
    const BenchmarkDef *Def = findBenchmark("matmul");
    BenchmarkInstance Instance = Def->Create(48);
    optimize(Instance.Stages[0], Instance.StageExtents[0],
             intelI7_6700());
    return *simulatePipeline(Instance, intelI7_6700());
  };
  SimResult A = Simulate();
  SimResult B = Simulate();
  EXPECT_EQ(A.Accesses, B.Accesses);
  EXPECT_EQ(A.Stats.L1.DemandMisses, B.Stats.L1.DemandMisses);
  EXPECT_EQ(A.Stats.L2.DemandMisses, B.Stats.L2.DemandMisses);
  EXPECT_EQ(A.Stats.memoryTraffic(), B.Stats.memoryTraffic());
  EXPECT_DOUBLE_EQ(A.EstimatedCycles, B.EstimatedCycles);
}

} // namespace
