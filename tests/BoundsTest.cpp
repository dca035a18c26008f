//===- BoundsTest.cpp - interval analysis tests -----------------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers: accessed-region computation for plain, tiled (with tail
// guards), fused (div/mod) and stencil (halo) nests; buffer-shape
// validation diagnostics; and the schedule invariance property — no legal
// schedule may change a stage's accessed regions.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"
#include "core/AccessInfo.h"
#include "lang/Bounds.h"
#include "lang/Lower.h"

#include <gtest/gtest.h>

#include <random>

using namespace ltp;

namespace {

TEST(BoundsTest, PlainNestCoversWholeOutput) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  auto Regions = computeAccessedRegions(lowerFunc(Out, {32, 16}));
  ASSERT_TRUE(Regions.count("Out"));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 31}));
  EXPECT_EQ(Regions["Out"].Dims[1], (Interval{0, 15}));
  EXPECT_TRUE(Regions["Out"].Written);
  EXPECT_FALSE(Regions["Out"].Read);
  EXPECT_TRUE(Regions["In"].Read);
  EXPECT_FALSE(Regions["In"].Written);
}

TEST(BoundsTest, GuardedTilingDoesNotOverrunBounds) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(X);
  Out.split("x", "xo", "xi", 7); // 7 does not divide 30
  auto Regions = computeAccessedRegions(lowerFunc(Out, {30}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 29}))
      << "the min() tail guard must keep the range exact";
  EXPECT_EQ(Regions["In"].Dims[0], (Interval{0, 29}));
}

TEST(BoundsTest, FusedLoopsReconstructExactRanges) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.pureStage().fuse("y", "x", "f");
  auto Regions = computeAccessedRegions(lowerFunc(Out, {8, 4}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 7}));
  EXPECT_EQ(Regions["Out"].Dims[1], (Interval{0, 3}));
}

TEST(BoundsTest, StencilHaloVisible) {
  const BenchmarkDef *Def = findBenchmark("jacobi2d");
  BenchmarkInstance Instance = Def->Create(16);
  auto Regions =
      computeAccessedRegions(lowerPipeline(Instance).front());
  // The padded input is read over [0, N+1] in both dims.
  EXPECT_EQ(Regions["In"].Dims[0], (Interval{0, 17}));
  EXPECT_EQ(Regions["In"].Dims[1], (Interval{0, 17}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 15}));
}

TEST(BoundsTest, ExtentOneNestCollapsesToPoint) {
  // Trip-count-1 loops: every accessed region is a single point and the
  // analysis must not widen it.
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  auto Regions = computeAccessedRegions(lowerFunc(Out, {1, 1}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 0}));
  EXPECT_EQ(Regions["Out"].Dims[1], (Interval{0, 0}));
  EXPECT_EQ(Regions["In"].Dims[0], (Interval{0, 0}));
}

TEST(BoundsTest, SplitBeyondExtentStaysExact) {
  // A split factor past the extent leaves a degenerate trip-count-1
  // outer loop; the guarded tail must still cover exactly the extent.
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(X);
  Out.split("x", "xo", "xi", 64);
  auto Regions = computeAccessedRegions(lowerFunc(Out, {30}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 29}));
  EXPECT_EQ(Regions["In"].Dims[0], (Interval{0, 29}));
}

TEST(BoundsTest, ReversedReadCoversExactRange) {
  // Negative stride: In is walked backwards; the region is the same
  // dense range, not an interval widened past either end.
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(29 - X);
  auto Regions = computeAccessedRegions(lowerFunc(Out, {30}));
  EXPECT_EQ(Regions["Out"].Dims[0], (Interval{0, 29}));
  EXPECT_EQ(Regions["In"].Dims[0], (Interval{0, 29}));
}

TEST(BoundsTest, ValidateCatchesUndersizedBuffer) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(Expr(X) + 2); // needs extent + 2
  Buffer<float> InBuf({32}), OutBuf({32});
  std::map<std::string, BufferRef> Buffers = {{"In", InBuf.ref()},
                                              {"Out", OutBuf.ref()}};
  std::string Diag = validateAccesses(lowerFunc(Out, {32}), Buffers);
  EXPECT_NE(Diag.find("'In'"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("33"), std::string::npos) << Diag;

  Buffer<float> Padded({34});
  Buffers["In"] = Padded.ref();
  EXPECT_EQ(validateAccesses(lowerFunc(Out, {32}), Buffers), "");
}

// The same undersized input as a one-stage pipeline: the compile path
// returns the bounds diagnostic as an error instead of aborting, and runs
// no compiler (this one could not start).
TEST(BoundsTest, OutOfBoundsPipelineIsACompileError) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(Expr(X) + 2); // needs extent + 2
  Buffer<float> InBuf({32}), OutBuf({32});
  BenchmarkInstance Instance;
  Instance.Name = "undersized";
  Instance.Stages = {Out};
  Instance.StageExtents = {{32}};
  Instance.Buffers = {{"In", InBuf.ref()}, {"Out", OutBuf.ref()}};
  Instance.OutputName = "Out";

  PipelineCompileJob Job = makeCompileJob(Instance);
  EXPECT_NE(Job.Error.find("'In'"), std::string::npos) << Job.Error;

  JITCompiler Compiler("/nonexistent/compiler");
  ErrorOr<CompiledPipeline> Pipeline = compilePipeline(Instance, Compiler);
  ASSERT_FALSE(static_cast<bool>(Pipeline));
  EXPECT_EQ(Pipeline.getError().rfind("schedule accesses out of bounds: ", 0),
            0u)
      << Pipeline.getError();
  EXPECT_NE(Pipeline.getError().find("'In'"), std::string::npos)
      << Pipeline.getError();
  EXPECT_EQ(Compiler.compileCount(), 0);
}

// The interpreter and the simulator refuse the same pipeline with the
// same diagnostic, touching nothing, instead of aborting.
TEST(BoundsTest, OutOfBoundsPipelineIsAnInterpreterAndSimulatorError) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(Expr(X) + 2); // needs extent + 2
  Buffer<float> InBuf({32}), OutBuf({32});
  BenchmarkInstance Instance;
  Instance.Name = "undersized";
  Instance.Stages = {Out};
  Instance.StageExtents = {{32}};
  Instance.Buffers = {{"In", InBuf.ref()}, {"Out", OutBuf.ref()}};
  Instance.OutputName = "Out";

  std::string Error = runInterpreted(Instance);
  EXPECT_EQ(Error.rfind("schedule accesses out of bounds: ", 0), 0u)
      << Error;
  EXPECT_NE(Error.find("'In'"), std::string::npos) << Error;

  BenchmarkInstance InBounds = Instance;
  Buffer<float> Padded({34});
  InBounds.Buffers["In"] = Padded.ref();
  std::vector<ErrorOr<SimResult>> Sims = simulatePipelines(
      {{&Instance, intelI7_6700()}, {&InBounds, intelI7_6700()}});
  ASSERT_EQ(Sims.size(), 2u);
  ASSERT_FALSE(static_cast<bool>(Sims[0]));
  EXPECT_EQ(Sims[0].getError(), Error);
  ASSERT_TRUE(static_cast<bool>(Sims[1])) << Sims[1].getError();
  EXPECT_GT(Sims[1]->Stats.L1.DemandMisses, 0u);

  // The one-instance entry point takes the same checked path.
  ErrorOr<SimResult> One = simulatePipeline(Instance, intelI7_6700());
  ASSERT_FALSE(static_cast<bool>(One));
  EXPECT_EQ(One.getError(), Error);
  ErrorOr<SimResult> OneInBounds = simulatePipeline(InBounds, intelI7_6700());
  ASSERT_TRUE(static_cast<bool>(OneInBounds)) << OneInBounds.getError();
  EXPECT_EQ(OneInBounds->Accesses, Sims[1]->Accesses);
}

TEST(BoundsTest, ValidateCatchesUnboundBuffer) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(X);
  Buffer<float> OutBuf({8});
  std::map<std::string, BufferRef> Buffers = {{"Out", OutBuf.ref()}};
  std::string Diag = validateAccesses(lowerFunc(Out, {8}), Buffers);
  EXPECT_NE(Diag.find("not bound"), std::string::npos) << Diag;
}

TEST(BoundsTest, AllPaperBenchmarksValidateCleanly) {
  for (const BenchmarkDef &Def : allBenchmarks()) {
    BenchmarkInstance Instance = Def.Create(
        Def.Name == "convlayer" ? 16 : 32);
    for (const ir::StmtPtr &S : lowerPipeline(Instance))
      EXPECT_EQ(validateAccesses(S, Instance.Buffers), "")
          << Def.Name;
  }
}

/// Property: a schedule must never change the accessed regions of a
/// stage (splits with guards, reorders and fusions are iteration-space
/// bijections).
class BoundsInvariance : public ::testing::TestWithParam<int> {};

TEST_P(BoundsInvariance, RandomSchedulePreservesRegions) {
  std::mt19937 Rng(static_cast<uint32_t>(GetParam()) * 2654435761u);
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(30);
  Func &F = Instance.Stages[0];

  auto Reference = computeAccessedRegions(
      lowerStage(F, F.numUpdates() - 1, Instance.StageExtents[0]));

  // Random split/reorder (same generator idea as ScheduleFuzzTest, but
  // only nest-preserving orders matter here; keep default order).
  F.clearSchedules();
  Stage S = F.update(F.numUpdates() - 1);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  for (const char *Name : {"j", "i", "k"})
    if (Rand(0, 1))
      S.split(Name, std::string(Name) + "_t", std::string(Name) + "_i",
              2 + Rand(0, 11));

  auto Scheduled = computeAccessedRegions(
      lowerStage(F, F.numUpdates() - 1, Instance.StageExtents[0]));
  ASSERT_EQ(Reference.size(), Scheduled.size());
  for (const auto &[Name, Region] : Reference) {
    ASSERT_TRUE(Scheduled.count(Name)) << Name;
    ASSERT_EQ(Region.Dims.size(), Scheduled[Name].Dims.size());
    for (size_t D = 0; D != Region.Dims.size(); ++D)
      EXPECT_EQ(Region.Dims[D], Scheduled[Name].Dims[D])
          << Name << " dim " << D << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsInvariance, ::testing::Range(0, 10));

} // namespace
