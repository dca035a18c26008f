//===- BenchmarkShapeTest.cpp - shape-only instances vs materialized ones -===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Every kernel of both suites is defined once, as a shape builder; a
// materialized instance is that shape plus materialize(). These tests pin
// the split: a shape owns no data, carries exactly what Create() carries
// otherwise, plans to the same schedule, and materializes byte for byte
// into the buffers Create() builds — still passing its reference oracle.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchParams.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "ir/IRPrinter.h"
#include "lang/ScheduleText.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// An oversized allocation must come back null, as it does without ASan,
// so the allocation-failure path is tested under the sanitizer too.
extern "C" const char *__asan_default_options() {
  return "allocator_may_return_null=1";
}

using namespace ltp;

namespace {

using ShapeCase = std::pair<std::string, int64_t>;

std::vector<ShapeCase> allCases() {
  std::vector<ShapeCase> Cases;
  for (const auto *Suite : {&allBenchmarks(), &extendedBenchmarks()})
    for (const BenchmarkDef &Def : *Suite)
      for (int64_t Size : {16, 40})
        Cases.emplace_back(Def.Name, Size);
  return Cases;
}

/// FNV-1a, continuing from \p H.
uint64_t fnv1a(const void *Data, int64_t Bytes,
               uint64_t H = 1469598103934665603ull) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (int64_t I = 0; I != Bytes; ++I)
    H = (H ^ P[I]) * 1099511628211ull;
  return H;
}

uint64_t hashBytes(const BufferRef &Ref) {
  return fnv1a(Ref.Data, Ref.sizeBytes());
}

/// One hash over a materialized instance: each buffer's name and bytes in
/// name order, then the (still zeroed) expected buffer.
uint64_t contentHash(const BenchmarkInstance &Instance) {
  uint64_t H = 1469598103934665603ull;
  for (const auto &[Name, Ref] : Instance.Buffers) {
    H = fnv1a(Name.data(), static_cast<int64_t>(Name.size()), H);
    H = fnv1a(Ref.Data, Ref.sizeBytes(), H);
  }
  return fnv1a(Instance.ExpectedRef.Data, Instance.ExpectedRef.sizeBytes(),
               H);
}

/// contentHash of every kernel's materialized instance, pinned: a change
/// of seed, fill, element type or extents anywhere moves one of these.
struct PinnedHash {
  const char *Kernel;
  int64_t Size;
  uint64_t Hash;
};
constexpr PinnedHash Pinned[] = {
    {"convlayer", 16, 0xc7c9718dd1fb2f63ull},
    {"convlayer", 40, 0xe10eee98147f574full},
    {"doitgen", 16, 0xfcd9aab9f55962bfull},
    {"doitgen", 40, 0x7817afb26893f5f0ull},
    {"matmul", 16, 0x1b125e38dec12001ull},
    {"matmul", 40, 0x66c3365f4ee85fc2ull},
    {"3mm", 16, 0x57b50edf827b0ca7ull},
    {"3mm", 40, 0xddf9e17de14b1a7bull},
    {"gemm", 16, 0x836f49562f83b25dull},
    {"gemm", 40, 0x20d424b56fd7b3a9ull},
    {"trmm", 16, 0x19cec9cf39ae7966ull},
    {"trmm", 40, 0x4f01d432da42afd8ull},
    {"syrk", 16, 0x75ec972a80677188ull},
    {"syrk", 40, 0x81b5d8c1ab391078ull},
    {"syr2k", 16, 0x8f05a6b2b93051c5ull},
    {"syr2k", 40, 0xdd47143cc0ebee53ull},
    {"tpm", 16, 0x2b5224e1e4aea21dull},
    {"tpm", 40, 0x52f6894ad3ef4d5full},
    {"tp", 16, 0xfc33d067f5ce8561ull},
    {"tp", 40, 0x7470dc7812b8bc05ull},
    {"copy", 16, 0xfa68f9e3bae714dbull},
    {"copy", 40, 0x6b0845def627bc7cull},
    {"mask", 16, 0xc9e6d97ad72facc8ull},
    {"mask", 40, 0xf110520db0380a7aull},
    {"atax", 16, 0xba4cd7019d3bcf33ull},
    {"atax", 40, 0xf9b465980edd17bbull},
    {"bicg", 16, 0x67d3196bfa5a0510ull},
    {"bicg", 40, 0x1170eecd66490908ull},
    {"mvt", 16, 0x492d75b810d35a09ull},
    {"mvt", 40, 0xb4a918d416ec25eeull},
    {"gemver", 16, 0x6980252490aac097ull},
    {"gemver", 40, 0xddbc9766ce3fe9d9ull},
    {"jacobi2d", 16, 0x565ba01d82f4e99aull},
    {"jacobi2d", 40, 0x11d77edf8915fc40ull},
};

uint64_t pinnedHash(const std::string &Kernel, int64_t Size) {
  for (const PinnedHash &P : Pinned)
    if (Kernel == P.Kernel && Size == P.Size)
      return P.Hash;
  ADD_FAILURE() << "no pinned hash for " << Kernel << " at " << Size;
  return 0;
}


void expectSameLayout(const BufferRef &A, const BufferRef &B,
                      const std::string &What) {
  EXPECT_EQ(A.ElemType, B.ElemType) << What;
  EXPECT_EQ(A.Extents, B.Extents) << What;
  EXPECT_EQ(A.Strides, B.Strides) << What;
}

class BenchmarkShape : public ::testing::TestWithParam<ShapeCase> {
protected:
  const BenchmarkDef &def() const {
    const BenchmarkDef *Def = findBenchmark(GetParam().first);
    EXPECT_NE(Def, nullptr);
    return *Def;
  }
  int64_t size() const { return GetParam().second; }
};

TEST_P(BenchmarkShape, OwnsNoData) {
  BenchmarkInstance Shape = def().Shape(size());
  EXPECT_TRUE(Shape.Storage.empty());
  EXPECT_FALSE(Shape.Buffers.empty());
  for (const auto &[Name, Ref] : Shape.Buffers)
    EXPECT_EQ(Ref.Data, nullptr) << Name;
  EXPECT_EQ(Shape.ExpectedRef.Data, nullptr);
  EXPECT_EQ(shapeError(Shape), "");
}

TEST_P(BenchmarkShape, MatchesCreate) {
  BenchmarkInstance Shape = def().Shape(size());
  BenchmarkInstance Full = def().Create(size());
  EXPECT_EQ(Shape.Name, Full.Name);
  EXPECT_EQ(Shape.OutputName, Full.OutputName);
  EXPECT_EQ(Shape.Work, Full.Work);
  EXPECT_EQ(Shape.StageExtents, Full.StageExtents);
  ASSERT_EQ(Shape.Stages.size(), Full.Stages.size());
  for (size_t S = 0; S != Shape.Stages.size(); ++S) {
    EXPECT_EQ(Shape.Stages[S].name(), Full.Stages[S].name());
    EXPECT_EQ(Shape.Stages[S].numUpdates(), Full.Stages[S].numUpdates());
  }
  // Lowering the unscheduled definitions prints every stage's full
  // statement, so equal text means equal definitions.
  std::vector<ir::StmtPtr> LS = lowerPipeline(Shape);
  std::vector<ir::StmtPtr> LF = lowerPipeline(Full);
  ASSERT_EQ(LS.size(), LF.size());
  for (size_t S = 0; S != LS.size(); ++S)
    EXPECT_EQ(ir::printStmt(LS[S]), ir::printStmt(LF[S])) << "stage " << S;

  ASSERT_EQ(Shape.Buffers.size(), Full.Buffers.size());
  for (const auto &[Name, Ref] : Shape.Buffers) {
    auto It = Full.Buffers.find(Name);
    ASSERT_NE(It, Full.Buffers.end()) << Name;
    expectSameLayout(Ref, It->second, Name);
  }
  expectSameLayout(Shape.ExpectedRef, Full.ExpectedRef, "expected output");
}

TEST_P(BenchmarkShape, PlansTheSameSchedule) {
  BenchmarkInstance Shape = def().Shape(size());
  BenchmarkInstance Full = def().Create(size());
  for (size_t S = 0; S != Shape.Stages.size(); ++S) {
    optimize(Shape.Stages[S], Shape.StageExtents[S], intelI7_6700());
    optimize(Full.Stages[S], Full.StageExtents[S], intelI7_6700());
    const Func &ShapeF = Shape.Stages[S], &FullF = Full.Stages[S];
    EXPECT_EQ(printSchedule(ShapeF, ShapeF.computeStageIndex()),
              printSchedule(FullF, FullF.computeStageIndex()))
        << "stage " << S;
  }
}

TEST_P(BenchmarkShape, MaterializesByteIdenticalToCreate) {
  BenchmarkInstance Shape = def().Shape(size());
  ASSERT_EQ(materialize(Shape), "");
  BenchmarkInstance Full = def().Create(size());
  EXPECT_EQ(Shape.Storage.size(), Full.Storage.size());
  for (const auto &[Name, Ref] : Shape.Buffers) {
    ASSERT_NE(Ref.Data, nullptr) << Name;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Ref.Data) % 64, 0u) << Name;
    EXPECT_EQ(hashBytes(Ref), hashBytes(Full.Buffers.at(Name))) << Name;
  }
  ASSERT_NE(Shape.ExpectedRef.Data, nullptr);
  EXPECT_EQ(hashBytes(Shape.ExpectedRef), hashBytes(Full.ExpectedRef));
  EXPECT_EQ(contentHash(Shape), pinnedHash(def().Name, size()));
}

TEST_P(BenchmarkShape, PlannedShapeRunsCorrectlyOnceMaterialized) {
  BenchmarkInstance Instance = def().Shape(size());
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    optimize(Instance.Stages[S], Instance.StageExtents[S], intelI7_6700());
  ASSERT_EQ(materialize(Instance), "");
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance));
}

INSTANTIATE_TEST_SUITE_P(
    BothSuites, BenchmarkShape, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<ShapeCase> &Info) {
      return Info.param.first + "_" + std::to_string(Info.param.second);
    });

TEST(BenchmarkShapeLimits, RejectsUnrepresentableSizes) {
  const BenchmarkDef *Matmul = findBenchmark("matmul");
  EXPECT_FALSE(static_cast<bool>(Matmul->checkedShape(0)));
  EXPECT_FALSE(static_cast<bool>(Matmul->checkedShape(-4)));
  auto TooBig = Matmul->checkedShape(3000000000);
  ASSERT_FALSE(static_cast<bool>(TooBig));
  EXPECT_NE(TooBig.getError().find("outside [1, 2147483647]"),
            std::string::npos)
      << TooBig.getError();

  // N^3 elements overflow int64 although N fits an int.
  auto Overflow = findBenchmark("doitgen")->checkedShape(3000000);
  ASSERT_FALSE(static_cast<bool>(Overflow));
  EXPECT_NE(Overflow.getError().find("element count overflows int64"),
            std::string::npos)
      << Overflow.getError();

  // Planning-sized shapes far beyond memory are fine: nothing allocates.
  auto Huge = findBenchmark("tp")->checkedShape(int64_t{1} << 20);
  ASSERT_TRUE(static_cast<bool>(Huge)) << Huge.getError();
  EXPECT_EQ(Huge->Buffers.at("A").Strides[1], int64_t{1} << 20);
}

TEST(BenchmarkShapeLimits, AllocationFailureIsAnError) {
  auto Shape = findBenchmark("tp")->checkedShape(2000000000);
  ASSERT_TRUE(static_cast<bool>(Shape)) << Shape.getError();
  std::string Error = materialize(*Shape);
  EXPECT_NE(Error.find("cannot allocate buffer 'A' of tp "
                       "(16000000000000000000 bytes)"),
            std::string::npos)
      << Error;
  EXPECT_TRUE(Shape->Storage.empty());
  for (const auto &[Name, Ref] : Shape->Buffers)
    EXPECT_EQ(Ref.Data, nullptr) << Name;
}

} // namespace
