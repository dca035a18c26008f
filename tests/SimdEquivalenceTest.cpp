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
  runInterpreted(Interpreted);

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

} // namespace
