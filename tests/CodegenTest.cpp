//===- CodegenTest.cpp - C source generation structure tests ---------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Checks the textual structure of generated C: typed buffer declarations
// (const for read-only, restrict everywhere), stride-based index
// linearization, parallel-loop outlining through the runtime hook,
// vectorization pragmas, streaming-store emission, and a self-contained
// prelude for every Table-4 kernel at every SIMD level.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchParams.h"
#include "benchmarks/PipelineRunner.h"
#include "codegen/CodeGenC.h"
#include "core/Optimizer.h"
#include "lang/Func.h"
#include "lang/Lower.h"
#include "lang/ScheduleText.h"
#include "tests/ScheduleVariants.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace ltp;

namespace {

std::vector<BufferBinding> simpleSignature() {
  Buffer<float> Out({32, 16}), In({32, 16});
  return {BufferBinding::fromRef("Out", Out.ref()),
          BufferBinding::fromRef("In", In.ref())};
}

TEST(CodegenTest, BufferDeclsConstAndRestrict) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y) * 2.0f;
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k");
  EXPECT_NE(Source.find("float *restrict Out"), std::string::npos);
  EXPECT_NE(Source.find("const float *restrict In"), std::string::npos);
  EXPECT_NE(Source.find("__builtin_assume_aligned"), std::string::npos);
}

TEST(CodegenTest, IndexLinearizationUsesStrides) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k");
  // Dimension 1 of a {32, 16} buffer has stride 32.
  EXPECT_NE(Source.find("* 32LL"), std::string::npos) << Source;
}

TEST(CodegenTest, ParallelLoopIsOutlined) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.parallel("y");
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k");
  EXPECT_NE(Source.find("ltp_closure_0"), std::string::npos);
  EXPECT_NE(Source.find("ltp_par_body_0"), std::string::npos);
  EXPECT_NE(Source.find("rt->parallel_for(rt, 0, 16, ltp_par_body_0"),
            std::string::npos)
      << Source;
}

TEST(CodegenTest, NestedCaptureReachesClosure) {
  // Parallelize an inner loop: the outer loop variable must be captured.
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.pureStage().reorder({"x", "y"}); // keep order; then parallel x
  Out.pureStage().parallel("x");
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k");
  // y is in scope at the parallel x loop and must be a closure field.
  EXPECT_NE(Source.find("int64_t y;"), std::string::npos) << Source;
  EXPECT_NE(Source.find("ltp_cl->y"), std::string::npos) << Source;
}

TEST(CodegenTest, VectorizeEmitsExplicitSimd) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.vectorize("x");
  CodeGenOptions Options;
  if (Options.ISA.Level == codegen::SimdLevel::Scalar)
    GTEST_SKIP() << "host has no SIMD support";
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k", Options);
  EXPECT_NE(Source.find("ltp_vload_f32"), std::string::npos) << Source;
  EXPECT_NE(Source.find("ltp_vstore_f32"), std::string::npos) << Source;
  EXPECT_EQ(Source.find("#pragma GCC ivdep"), std::string::npos) << Source;
}

TEST(CodegenTest, VectorizePragmaFallbackWhenSimdDisabled) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.vectorize("x");
  CodeGenOptions Options;
  Options.ExplicitSIMD = false;
  std::string Source =
      generateC(lowerFunc(Out, {32, 16}), simpleSignature(), "k", Options);
  EXPECT_NE(Source.find("#pragma GCC ivdep"), std::string::npos);
  EXPECT_EQ(Source.find("ltp_vload_f32"), std::string::npos) << Source;
}

TEST(CodegenTest, SyrkAndSyr2kVectorizeTheirReductionWithoutPragmas) {
  // Their output column strides A; the optimizer streams the reduction
  // loop k instead, and the jammed reduction takes the partial-sum form:
  // no `ivdep` fallback and no `unroll 8` over an unmatched jam.
  CodeGenOptions Options;
  Options.ISA = codegen::TargetISA(codegen::SimdLevel::AVX2);
  if (Options.ISA.Level > codegen::TargetISA::host().Level)
    Options.ISA = codegen::TargetISA::host();
  if (Options.ISA.Level == codegen::SimdLevel::Scalar)
    GTEST_SKIP() << "host has no SIMD support";
  for (const char *Name : {"syrk", "syr2k"})
    for (const ArchParams &Arch : {detectHost(), intelI7_6700()}) {
      const BenchmarkDef *Def = findBenchmark(Name);
      ASSERT_NE(Def, nullptr) << Name;
      BenchmarkInstance Instance = Def->Shape(Def->DefaultSize);
      for (size_t S = 0; S != Instance.Stages.size(); ++S)
        optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
      PipelineCompileJob Job = makeCompileJob(Instance, Options);
      ASSERT_TRUE(Job.Error.empty()) << Job.Error;
      for (const ir::StmtPtr &Stage : Job.Stages) {
        std::string Source =
            generateC(Stage, Job.Signature, "k", Options);
        const std::string Context = std::string(Name) + " on " + Arch.Name;
        EXPECT_EQ(Source.find("#pragma GCC ivdep"), std::string::npos)
            << Context;
        EXPECT_EQ(Source.find("#pragma GCC unroll 8"), std::string::npos)
            << Context;
      }
      EXPECT_NE(generateC(Job.Stages.back(), Job.Signature, "k", Options)
                    .find("vector reduction accumulators"),
                std::string::npos)
          << Name << " on " << Arch.Name;
    }
}

TEST(CodegenTest, UnmatchedJamOnTrmmEmitsThePlainLoop) {
  // trmm's triangle guard sits between the jam and vector loops, so no
  // jammed form applies; the loop is emitted as written, without an
  // unroll pragma (unrolling the guarded body halved its speed).
  const BenchmarkDef *Def = findBenchmark("trmm");
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Shape(256);
  Func &F = Instance.Stages[0];
  F.clearSchedules();
  ErrorOr<bool> Applied = applyVerifiedScheduleText(
      F, F.computeStageIndex(),
      "split(i, i_t, i_i, 16); split(k, k_t, k_i, 4); "
      "reorder(j, k_i, i_i, k_t, i_t); parallel(i_t); vectorize(j); "
      "unroll_jam(i_i, 4);",
      Instance.StageExtents[0]);
  ASSERT_TRUE(static_cast<bool>(Applied)) << Applied.getError();
  for (const codegen::SimdLevel Level :
       {codegen::SimdLevel::Scalar, codegen::SimdLevel::SSE2,
        codegen::SimdLevel::AVX2}) {
    CodeGenOptions Options;
    Options.ISA = codegen::TargetISA(Level);
    PipelineCompileJob Job = makeCompileJob(Instance, Options);
    ASSERT_TRUE(Job.Error.empty()) << Job.Error;
    std::string Source =
        generateC(Job.Stages.back(), Job.Signature, "k", Options);
    EXPECT_EQ(Source.find("#pragma GCC unroll"), std::string::npos)
        << Source;
  }
}

TEST(CodegenTest, StreamingStoresAndFence) {
  Var X("x"), Y("y");
  InputBuffer In("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = In(X, Y);
  Out.storeNonTemporal();
  CodeGenOptions Options;
  Options.ISA = codegen::TargetISA(codegen::SimdLevel::SSE2);
  std::string Source = generateC(lowerFunc(Out, {32, 16}),
                                 simpleSignature(), "k", Options);
  EXPECT_NE(Source.find("ltp_stream_store_f32(&Out["), std::string::npos)
      << Source;
  EXPECT_NE(Source.find("ltp_stream_fence();"), std::string::npos);
  EXPECT_NE(Source.find("__builtin_ia32_movnti("), std::string::npos);
}

TEST(CodegenTest, SpatialStagesStreamTheirTileThroughTheBlockLoop) {
  // tp and tpm vectorize a 16-wide tile of 4-byte elements (one 64 B
  // line) and stream it out. The write-combining block must fit that
  // tile, so an aligned tile row is flushed by whole-vector streaming
  // stores and leaves nothing to the scalar streaming epilogue.
  auto NumberAfter = [](const std::string &Source, const std::string &Key) {
    size_t Pos = Source.find(Key);
    if (Pos == std::string::npos)
      return int64_t(-1);
    return static_cast<int64_t>(std::atoll(Source.c_str() + Pos + Key.size()));
  };
  for (const char *Name : {"tp", "tpm"})
    for (const ArchParams &Arch : {detectHost(), intelI7_6700()})
      for (const codegen::SimdLevel Level :
           {codegen::SimdLevel::Scalar, codegen::SimdLevel::SSE2,
            codegen::SimdLevel::AVX2}) {
        const std::string Context = std::string(Name) + " on " + Arch.Name +
                                    " at " + codegen::TargetISA(Level).name();
        const BenchmarkDef *Def = findBenchmark(Name);
        ASSERT_NE(Def, nullptr) << Name;
        BenchmarkInstance Instance = Def->Shape(Def->DefaultSize);
        for (size_t S = 0; S != Instance.Stages.size(); ++S)
          optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
        CodeGenOptions Options;
        Options.ISA = codegen::TargetISA(Level);
        PipelineCompileJob Job = makeCompileJob(Instance, Options);
        ASSERT_TRUE(Job.Error.empty()) << Job.Error;
        std::string Source =
            generateC(Job.Stages.back(), Job.Signature, "k", Options);
        const int64_t Tile = NumberAfter(Source, "const int64_t ltp_ext = ");
        const int64_t Block = NumberAfter(Source, "? ltp_ext / ");
        EXPECT_EQ(Tile, 16) << Context << "\n" << Source;
        ASSERT_GT(Block, 0) << Context << "\n" << Source;
        EXPECT_EQ(Tile / Block * Block, Tile) << Context;
        EXPECT_NE(Source.find("ltp_stream_block_u32(ltp_base + ltp_done, "
                              "ltp_wc);"),
                  std::string::npos)
            << Context;
      }
}

TEST(CodegenTest, MinMaxLoweredToHelpers) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = min(In(X), 1.0f) + cast(ir::Type::float32(),
                                   max(Expr(X), Expr(3)));
  Buffer<float> OutB({16}), InB({16});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", OutB.ref()),
      BufferBinding::fromRef("In", InB.ref())};
  std::string Source = generateC(lowerFunc(Out, {16}), Signature, "k");
  EXPECT_NE(Source.find("ltp_min_f32("), std::string::npos);
  EXPECT_NE(Source.find("ltp_max_i64("), std::string::npos);
}

TEST(CodegenTest, GuardedSplitEmitsMin) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(X);
  Out.split("x", "xo", "xi", 7); // 7 does not divide 16
  Buffer<float> OutB({16}), InB({16});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", OutB.ref()),
      BufferBinding::fromRef("In", InB.ref())};
  std::string Source = generateC(lowerFunc(Out, {16}), Signature, "k");
  EXPECT_NE(Source.find("ltp_min_i64(7,"), std::string::npos) << Source;
}

TEST(CodegenTest, NoStreamingHelpersWhenUnused) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func Out("Out");
  Out(X) = In(X);
  Buffer<float> OutB({16}), InB({16});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", OutB.ref()),
      BufferBinding::fromRef("In", InB.ref())};
  std::string Source = generateC(lowerFunc(Out, {16}), Signature, "k");
  EXPECT_EQ(Source.find("ltp_stream_store"), std::string::npos);
}

/// Names of the `static inline` helpers \p Source defines.
std::vector<std::string> definedHelpers(const std::string &Source) {
  std::vector<std::string> Names;
  std::istringstream Lines(Source);
  for (std::string Line; std::getline(Lines, Line);) {
    if (Line.rfind("static inline ", 0) != 0)
      continue;
    size_t Paren = Line.find('(');
    size_t Start = Line.rfind(' ', Paren) + 1;
    Names.push_back(Line.substr(Start, Paren - Start));
  }
  return Names;
}

/// Size in bytes of \p Source after the host C preprocessor, or -1.
long preprocessedBytes(const std::string &Source,
                       const codegen::TargetISA &ISA) {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Base = std::string(Tmp ? Tmp : "/tmp") + "/ltp-prelude-" +
                     std::to_string(::getpid());
  std::string In = Base + ".c", Out = Base + ".i";
  std::ofstream(In) << Source;
  const char *Cc = std::getenv("LTP_CC");
  std::string Cmd = std::string(Cc ? Cc : "cc") + " -E -O3" +
                    ISA.compilerFlags() + " '" + In + "' -o '" + Out +
                    "' 2>/dev/null";
  struct stat St;
  long Bytes = -1;
  if (std::system(Cmd.c_str()) == 0 && ::stat(Out.c_str(), &St) == 0)
    Bytes = static_cast<long>(St.st_size);
  ::unlink(In.c_str());
  ::unlink(Out.c_str());
  return Bytes;
}

/// Generated kernels carry their own prelude: for the 12 Table-4 kernels
/// (the optimizer's schedule at the default size, and the SIMD test
/// variants at sizes with tails) at each SIMD level, the source includes
/// only <stdint.h>/<stddef.h>, defines only helpers it calls, has no
/// conditional compilation, and preprocesses to at most 64 KB.
class PreludeSelfContained
    : public ::testing::TestWithParam<codegen::SimdLevel> {};

TEST_P(PreludeSelfContained, Table4Kernels) {
  CodeGenOptions Options;
  Options.ISA = codegen::TargetISA(GetParam());
  const bool HaveCompiler = jitAvailable();
  for (const BenchmarkDef &Def : allBenchmarks()) {
    // Shapes only: code generation never reads buffer contents.
    std::vector<std::pair<std::string, BenchmarkInstance>> Scheduled;
    BenchmarkInstance Chosen = Def.Shape(Def.DefaultSize);
    for (size_t S = 0; S != Chosen.Stages.size(); ++S)
      optimize(Chosen.Stages[S], Chosen.StageExtents[S], intelI7_6700());
    Scheduled.emplace_back("chosen", std::move(Chosen));
    for (test::Variant V :
         {test::Variant::Vectorized, test::Variant::UnrollJam,
          test::Variant::NTStore}) {
      BenchmarkInstance Variant = Def.Shape(test::oddSize(Def.Name));
      test::applyVariant(Variant, V);
      Scheduled.emplace_back(test::variantName(V), std::move(Variant));
    }

    for (const auto &[Schedule, Instance] : Scheduled) {
      PipelineCompileJob Job = makeCompileJob(Instance, Options);
      for (size_t S = 0; S != Job.Stages.size(); ++S) {
        SCOPED_TRACE(Def.Name + " " + Schedule + " stage " +
                     std::to_string(S));
        std::string Source =
            generateC(Job.Stages[S], Job.Signature, "ltp_kernel", Options);
        std::istringstream Lines(Source);
        for (std::string Line; std::getline(Lines, Line);) {
          if (Line.rfind("#include", 0) == 0) {
            EXPECT_TRUE(Line == "#include <stdint.h>" ||
                        Line == "#include <stddef.h>")
                << Line;
          }
        }
        EXPECT_EQ(Source.find("#if"), std::string::npos) << Source;
        for (const std::string &Helper : definedHelpers(Source)) {
          EXPECT_EQ(Helper.rfind("ltp_", 0), 0u) << Helper;
          size_t Definition = Source.find(Helper + "(");
          EXPECT_NE(Source.find(Helper + "(", Definition + 1),
                    std::string::npos)
              << Helper << " is defined but never called";
        }
        if (HaveCompiler) {
          long Bytes = preprocessedBytes(Source, Options.ISA);
          EXPECT_GT(Bytes, 0);
          EXPECT_LE(Bytes, 64 * 1024) << Source;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, PreludeSelfContained,
    ::testing::Values(codegen::SimdLevel::AVX2, codegen::SimdLevel::SSE2,
                      codegen::SimdLevel::Scalar),
    [](const ::testing::TestParamInfo<codegen::SimdLevel> &Info) {
      return std::string(codegen::TargetISA(Info.param).name());
    });

} // namespace
