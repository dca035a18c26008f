//===- SimdEquivalenceTest.cpp - explicit SIMD vs interpreter oracle ------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The explicit SIMD back end (prelude vector loads/stores/FMA, masked
// tails, register-tiled unroll_jam, streaming stores) must be
// observationally equivalent to the interpreter on every kernel of the
// Table-4 suite, at every SIMD level the host executes (the host's own
// level keeps the plain test names; lower levels add an `_<isa>` suffix).
// Each benchmark runs at a deliberately non-divisible problem size under
// the three schedule variants of tests/ScheduleVariants.h. The Table-4
// kernels are all 32-bit, so a float64 gemm built here runs the f64
// helpers under the same variants.
//
// Integer kernels must match bit-exactly. Float kernels are compared
// with a relative tolerance because the vector path contracts mul+add
// into FMA and the jam interchange reassociates the reduction.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "interp/Interpreter.h"
#include "lang/Lower.h"
#include "tests/ScheduleVariants.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstring>
#include <tuple>

using namespace ltp;
using codegen::SimdLevel;
using codegen::TargetISA;
using test::Variant;

namespace {

/// Every SIMD level the host can execute, highest first.
std::vector<SimdLevel> hostLevels() {
  std::vector<SimdLevel> Levels;
  for (SimdLevel L : {SimdLevel::AVX2, SimdLevel::SSE2, SimdLevel::Scalar})
    if (L <= TargetISA::host().Level)
      Levels.push_back(L);
  return Levels;
}

/// Test-name suffix of a level: none for the host's own.
std::string levelSuffix(SimdLevel L) {
  if (L == TargetISA::host().Level)
    return "";
  return std::string("_") + TargetISA(L).name();
}

CodeGenOptions optionsFor(SimdLevel L) {
  CodeGenOptions Options;
  Options.ISA = TargetISA(L);
  return Options;
}

/// Element-wise comparison: bit-exact for integers, relative tolerance
/// for floats (FMA contraction and reduction reassociation). The f32
/// tolerance is tight because the interpreter's VM computes float
/// expressions in `float` like the compiled code; only contraction and
/// reassociation differences remain.
void expectBuffersMatch(const BufferRef &Got, const BufferRef &Want) {
  ASSERT_EQ(Got.numElements(), Want.numElements());
  if (Got.ElemType == ir::Type::float32()) {
    const float *PG = static_cast<const float *>(Got.Data);
    const float *PW = static_cast<const float *>(Want.Data);
    for (int64_t I = 0; I != Got.numElements(); ++I)
      ASSERT_NEAR(PG[I], PW[I], 1e-4 * (1.0 + std::fabs(PW[I])))
          << "element " << I;
    return;
  }
  if (Got.ElemType == ir::Type::float64()) {
    const double *PG = static_cast<const double *>(Got.Data);
    const double *PW = static_cast<const double *>(Want.Data);
    for (int64_t I = 0; I != Got.numElements(); ++I)
      ASSERT_NEAR(PG[I], PW[I], 1e-9 * (1.0 + std::fabs(PW[I])))
          << "element " << I;
    return;
  }
  ASSERT_EQ(std::memcmp(Got.Data, Want.Data,
                        static_cast<size_t>(Got.numElements()) *
                            Got.ElemType.bytes()),
            0);
}

class SimdEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, Variant, SimdLevel>> {};

TEST_P(SimdEquivalence, CompiledMatchesInterpreter) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler";
  const auto &[Name, V, Level] = GetParam();
  const BenchmarkDef *Def = findBenchmark(Name);
  ASSERT_NE(Def, nullptr);
  const int64_t Size = test::oddSize(Name);

  // Identical seeds on both instances: inputs are bitwise equal.
  BenchmarkInstance Jitted = Def->Create(Size);
  test::applyVariant(Jitted, V);
  JITCompiler Compiler;
  ErrorOr<CompiledPipeline> Pipeline =
      compilePipeline(Jitted, Compiler, optionsFor(Level));
  ASSERT_TRUE(static_cast<bool>(Pipeline)) << Pipeline.getError();
  Pipeline->run(Jitted);

  BenchmarkInstance Interpreted = Def->Create(Size);
  test::applyVariant(Interpreted, V);
  ASSERT_EQ(runInterpreted(Interpreted), "");

  expectBuffersMatch(Jitted.Buffers.at(Jitted.OutputName),
                     Interpreted.Buffers.at(Interpreted.OutputName));
  // The interpreter itself must agree with the native reference oracle,
  // so the equivalence above is not vacuous.
  EXPECT_TRUE(verifyOutput(Interpreted));
}

std::vector<std::string> table4Names() {
  std::vector<std::string> Names;
  for (const BenchmarkDef &Def : allBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SimdEquivalence,
    ::testing::Combine(::testing::ValuesIn(table4Names()),
                       ::testing::Values(Variant::Vectorized,
                                         Variant::UnrollJam,
                                         Variant::NTStore),
                       ::testing::ValuesIn(hostLevels())),
    [](const ::testing::TestParamInfo<SimdEquivalence::ParamType> &Info) {
      return std::get<0>(Info.param) + "_" +
             test::variantName(std::get<1>(Info.param)) +
             levelSuffix(std::get<2>(Info.param));
    });

/// tp and tpm as the optimizer schedules them for the i7-6700: a 16-wide
/// vectorized tile streamed out through the write-combining block loop.
/// At 200 the last tile holds 8 elements (the scalar streaming
/// epilogue) and the 800 B rows alternate in 64 B alignment (the block
/// loop and its unaligned fallback).
class StreamingTileEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, SimdLevel>> {
};

TEST_P(StreamingTileEquivalence, CompiledMatchesInterpreter) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler";
  const auto &[Name, Level] = GetParam();
  const BenchmarkDef *Def = findBenchmark(Name);
  ASSERT_NE(Def, nullptr);
  constexpr int64_t Size = 200;
  auto CreateScheduled = [&] {
    BenchmarkInstance Instance = Def->Create(Size);
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      OptimizationResult R = optimize(
          Instance.Stages[S], Instance.StageExtents[S], intelI7_6700());
      EXPECT_TRUE(R.AppliedNonTemporal) << Name << " stage " << S;
    }
    return Instance;
  };

  BenchmarkInstance Jitted = CreateScheduled();
  JITCompiler Compiler;
  ErrorOr<CompiledPipeline> Pipeline =
      compilePipeline(Jitted, Compiler, optionsFor(Level));
  ASSERT_TRUE(static_cast<bool>(Pipeline)) << Pipeline.getError();
  Pipeline->run(Jitted);

  BenchmarkInstance Interpreted = CreateScheduled();
  ASSERT_EQ(runInterpreted(Interpreted), "");

  expectBuffersMatch(Jitted.Buffers.at(Jitted.OutputName),
                     Interpreted.Buffers.at(Interpreted.OutputName));
  EXPECT_TRUE(verifyOutput(Interpreted));
}

INSTANTIATE_TEST_SUITE_P(
    SpatialKernels, StreamingTileEquivalence,
    ::testing::Combine(::testing::Values(std::string("tp"),
                                         std::string("tpm")),
                       ::testing::ValuesIn(hostLevels())),
    [](const ::testing::TestParamInfo<StreamingTileEquivalence::ParamType>
           &Info) {
      return std::get<0>(Info.param) + "_" +
             TargetISA(std::get<1>(Info.param)).name();
    });

/// C(j, i) = beta * Cin(j, i) + sum_k alpha * A(k, i) * B(j, k) in
/// float64 under the three variants: j vectorized by 8 (two AVX2
/// registers of doubles), plus i unroll-jammed by 4 or every store
/// non-temporal.
class SimdEquivalenceF64
    : public ::testing::TestWithParam<std::tuple<Variant, SimdLevel>> {};

TEST_P(SimdEquivalenceF64, CompiledMatchesInterpreter) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler";
  const auto &[V, Level] = GetParam();
  constexpr int64_t N = 45; // leaves a tail at every vector width
  Buffer<double> A({N, N}), B({N, N}), Cin({N, N}), C({N, N}),
      Want({N, N});
  A.fillRandom(31);
  B.fillRandom(32);
  Cin.fillRandom(33);

  Var J("j"), I("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float64(), 2);
  InputBuffer BIn("B", ir::Type::float64(), 2);
  InputBuffer CIn("Cin", ir::Type::float64(), 2);
  Func F("C");
  F(J, I) = CIn(J, I) * 0.5;
  F(J, I) += 1.5 * AIn(K, I) * BIn(J, K);
  F.pureStage().vectorize("j", 8);
  // k between the jam and the vector loop: the register-accumulator form.
  F.update()
      .split("j", "j_o", "j_i", 8)
      .reorder({"j_i", "k", "j_o", "i"})
      .vectorize("j_i");
  if (V == Variant::UnrollJam)
    F.update().unrollJam("i", 4);
  if (V == Variant::NTStore)
    F.storeNonTemporal();

  ir::StmtPtr S = lowerFunc(F, {N, N});
  std::map<std::string, BufferRef> Buffers = {{"A", A.ref()},
                                              {"B", B.ref()},
                                              {"Cin", Cin.ref()},
                                              {"C", Want.ref()}};
  interpret(S, Buffers);
  // The interpreter against the definition, so the comparison below is
  // not vacuous.
  for (int64_t Row = 0; Row != N; ++Row)
    for (int64_t Col = 0; Col != N; ++Col) {
      double Sum = Cin(Col, Row) * 0.5;
      for (int64_t Red = 0; Red != N; ++Red)
        Sum += 1.5 * A(Red, Row) * B(Col, Red);
      ASSERT_NEAR(Want(Col, Row), Sum, 1e-9 * (1.0 + std::fabs(Sum)));
    }

  JITCompiler Compiler;
  ErrorOr<CompiledKernel> Kernel = Compiler.compile(
      S,
      {BufferBinding::fromRef("C", C.ref()),
       BufferBinding::fromRef("A", A.ref()),
       BufferBinding::fromRef("B", B.ref()),
       BufferBinding::fromRef("Cin", Cin.ref())},
      optionsFor(Level));
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
  Buffers["C"] = C.ref();
  Kernel->run(Buffers);
  expectBuffersMatch(C.ref(), Want.ref());
}

INSTANTIATE_TEST_SUITE_P(
    Float64Gemm, SimdEquivalenceF64,
    ::testing::Combine(::testing::Values(Variant::Vectorized,
                                         Variant::UnrollJam,
                                         Variant::NTStore),
                       ::testing::ValuesIn(hostLevels())),
    [](const ::testing::TestParamInfo<SimdEquivalenceF64::ParamType>
           &Info) {
      return std::string(test::variantName(std::get<0>(Info.param))) +
             "_" + TargetISA(std::get<1>(Info.param)).name();
    });

/// A syrk-shaped reduction, C(j, i) = Cin(j, i) + sum_k 1.5 * A(k, i) *
/// A(k, j) + 0.25, whose operands are all contiguous along k: k
/// vectorized (one partial-sum vector per element, a horizontal add on
/// exit), alone or with j unroll-jammed by 4 (the 7 x 5 output leaves a
/// partial jam tile). K = 26 leaves a tail at every vector width, K =
/// 1000 runs long main loops; the broadcast addend checks that masked
/// tail lanes add nothing.
class SimdReductionEquivalence
    : public ::testing::TestWithParam<
          std::tuple<bool, int64_t, Variant, SimdLevel>> {};

template <typename T>
void runReductionCase(int64_t K, Variant V, SimdLevel Level) {
  constexpr int64_t NJ = 7, NI = 5;
  const ir::Type Ty =
      sizeof(T) == 8 ? ir::Type::float64() : ir::Type::float32();
  Buffer<T> A({K, NJ}), Cin({NJ, NI}), C({NJ, NI}), Want({NJ, NI});
  A.fillRandom(41);
  Cin.fillRandom(42);

  Var J("j"), I("i");
  RDom R(0, static_cast<int>(K), "k");
  InputBuffer AIn("A", Ty, 2);
  InputBuffer CIn("Cin", Ty, 2);
  Func F("C");
  F(J, I) = CIn(J, I);
  F(J, I) += Expr(T(1.5)) * AIn(R, I) * AIn(R, J) + Expr(T(0.25));
  F.update().reorder({"k", "j", "i"}).vectorize("k");
  if (V == Variant::UnrollJam)
    F.update().unrollJam("j", 4);

  ir::StmtPtr S = lowerFunc(F, {NJ, NI});
  std::map<std::string, BufferRef> Buffers = {
      {"A", A.ref()}, {"Cin", Cin.ref()}, {"C", Want.ref()}};
  interpret(S, Buffers);
  for (int64_t Row = 0; Row != NI; ++Row)
    for (int64_t Col = 0; Col != NJ; ++Col) {
      double Sum = Cin(Col, Row);
      for (int64_t Red = 0; Red != K; ++Red)
        Sum += 1.5 * double(A(Red, Row)) * double(A(Red, Col)) + 0.25;
      ASSERT_NEAR(double(Want(Col, Row)), Sum, 1e-4 * (1.0 + std::fabs(Sum)));
    }

  JITCompiler Compiler;
  ErrorOr<CompiledKernel> Kernel = Compiler.compile(
      S,
      {BufferBinding::fromRef("C", C.ref()),
       BufferBinding::fromRef("A", A.ref()),
       BufferBinding::fromRef("Cin", Cin.ref())},
      optionsFor(Level));
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
  if (Level != SimdLevel::Scalar) {
    EXPECT_NE(Kernel->source().find("ltp_hsum_"), std::string::npos)
        << "the reduction did not take the partial-sum form";
  }
  EXPECT_EQ(Kernel->source().find("#pragma GCC ivdep"), std::string::npos);
  Buffers["C"] = C.ref();
  Kernel->run(Buffers);
  expectBuffersMatch(C.ref(), Want.ref());
}

TEST_P(SimdReductionEquivalence, CompiledMatchesInterpreter) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler";
  const auto &[F64, K, V, Level] = GetParam();
  if (F64)
    runReductionCase<double>(K, V, Level);
  else
    runReductionCase<float>(K, V, Level);
}

INSTANTIATE_TEST_SUITE_P(
    SyrkShaped, SimdReductionEquivalence,
    ::testing::Combine(::testing::Bool(), ::testing::Values(26, 1000),
                       ::testing::Values(Variant::Vectorized,
                                         Variant::UnrollJam),
                       ::testing::ValuesIn(hostLevels())),
    [](const ::testing::TestParamInfo<SimdReductionEquivalence::ParamType>
           &Info) {
      return std::string(std::get<0>(Info.param) ? "f64" : "f32") + "_k" +
             std::to_string(std::get<1>(Info.param)) + "_" +
             test::variantName(std::get<2>(Info.param)) + "_" +
             TargetISA(std::get<3>(Info.param)).name();
    });

} // namespace
