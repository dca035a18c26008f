//===- JITTest.cpp - codegen + JIT execution tests -------------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Compiles lowered schedules to native code through the host C compiler
// and checks that every schedule computes the same result as the
// interpreter, including parallel dispatch and non-temporal stores.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenC.h"
#include "interp/Interpreter.h"
#include "jit/JIT.h"
#include "lang/Func.h"
#include "lang/Lower.h"
#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

using namespace ltp;

namespace {

class JITFixture : public ::testing::Test {
protected:
  void SetUp() override {
    if (!jitAvailable())
      GTEST_SKIP() << "no host C compiler available";
    // Counter expectations in these tests assume cold builds; a shared
    // on-disk cache would satisfy reruns without invoking cc.
    Compiler.setDiskCacheEnabled(false);
  }
  JITCompiler Compiler;
};

TEST_F(JITFixture, MatmulTiledVectorizedParallel) {
  constexpr int64_t N = 40;
  Buffer<float> A({N, N}), B({N, N}), C({N, N}), Want({N, N});
  A.fillRandom(11);
  B.fillRandom(12);

  Var J("j"), I("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func M("C");
  M(J, I) = 0.0f;
  M(J, I) += AIn(K, I) * BIn(J, K);
  M.update()
      .split("j", "j_o", "j_i", 16)
      .split("i", "i_o", "i_i", 8)
      .reorder({"j_i", "i_i", "j_o", "k", "i_o"})
      .vectorize("j_i", 8)
      .parallel("i_o");

  ir::StmtPtr S = lowerFunc(M, {N, N});
  std::map<std::string, BufferRef> Buffers = {
      {"A", A.ref()}, {"B", B.ref()}, {"C", C.ref()}};
  interpret(S, Buffers);
  for (int64_t Idx = 0; Idx != Want.numElements(); ++Idx)
    Want.data()[Idx] = C.data()[Idx];

  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("C", C.ref()),
      BufferBinding::fromRef("A", A.ref()),
      BufferBinding::fromRef("B", B.ref())};
  auto Kernel = Compiler.compile(S, Signature);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();

  C.fill(-1.0f);
  Kernel->run(Buffers);
  test::expectNear(C, Want);
}

TEST_F(JITFixture, NonTemporalStoreTransposeMask) {
  constexpr int64_t W = 64, H = 32;
  Buffer<uint32_t> A({H, W}), B({W, H}), Out({W, H}), Want({W, H});
  A.fillRandom(3);
  B.fillRandom(4);
  for (int64_t Y = 0; Y != H; ++Y)
    for (int64_t X = 0; X != W; ++X)
      Want(X, Y) = A(Y, X) & B(X, Y);

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  InputBuffer BIn("B", ir::Type::uint32(), 2);
  Func O("Out");
  O(X, Y) = AIn(Y, X) & BIn(X, Y);
  O.storeNonTemporal();
  O.pureStage()
      .split("y", "yy", "y_i", 16)
      .reorder({"x", "y_i", "yy"})
      .vectorize("x");

  ir::StmtPtr S = lowerFunc(O, {W, H});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", Out.ref()),
      BufferBinding::fromRef("A", A.ref()),
      BufferBinding::fromRef("B", B.ref())};
  auto Kernel = Compiler.compile(S, Signature);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
  EXPECT_NE(Kernel->source().find("ltp_stream_store_u32"),
            std::string::npos);

  std::map<std::string, BufferRef> Buffers = {
      {"A", A.ref()}, {"B", B.ref()}, {"Out", Out.ref()}};
  Kernel->run(Buffers);
  test::expectEqual(Out, Want);
}

TEST_F(JITFixture, NonTemporalDisabledFallsBackToPlainStores) {
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func O("Out");
  O(X) = In(X) * 2.0f;
  O.storeNonTemporal();

  Buffer<float> InBuf({64}), OutBuf({64});
  InBuf.fillRandom(9);
  ir::StmtPtr S = lowerFunc(O, {64});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", OutBuf.ref()),
      BufferBinding::fromRef("In", InBuf.ref())};
  CodeGenOptions Options;
  Options.EnableNonTemporal = false;
  std::string Source = generateC(S, Signature, "ltp_kernel", Options);
  EXPECT_EQ(Source.find("ltp_stream_store"), std::string::npos);

  auto Kernel = Compiler.compile(S, Signature, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
  Kernel->run({{"In", InBuf.ref()}, {"Out", OutBuf.ref()}});
  for (int64_t I = 0; I != 64; ++I)
    EXPECT_FLOAT_EQ(OutBuf.data()[I], InBuf.data()[I] * 2.0f);
}

TEST_F(JITFixture, GuardedTailsMatchInterpreter) {
  // Awkward sizes + non-dividing factors stress the min() guards in
  // compiled code.
  constexpr int64_t N = 23;
  Buffer<float> A({N, N}), B({N, N}), C({N, N}), Want({N, N});
  A.fillRandom(21);
  B.fillRandom(22);

  Var J("j"), I("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func M("C");
  M(J, I) = 0.0f;
  M(J, I) += AIn(K, I) * BIn(J, K);
  M.update()
      .split("j", "j_o", "j_i", 5)
      .split("i", "i_o", "i_i", 7)
      .split("k", "k_o", "k_i", 9)
      .reorder({"j_i", "i_i", "k_i", "j_o", "i_o", "k_o"});

  ir::StmtPtr S = lowerFunc(M, {N, N});
  std::map<std::string, BufferRef> Buffers = {
      {"A", A.ref()}, {"B", B.ref()}, {"C", C.ref()}};
  interpret(S, Buffers);
  std::copy(C.data(), C.data() + C.numElements(), Want.data());

  auto Kernel = Compiler.compile(
      S, {BufferBinding::fromRef("C", C.ref()),
          BufferBinding::fromRef("A", A.ref()),
          BufferBinding::fromRef("B", B.ref())});
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
  C.fill(0.0f);
  Kernel->run(Buffers);
  test::expectNear(C, Want);
}

TEST_F(JITFixture, RecompilingIdenticalSourceHitsCache) {
  // The autotuner recompiles identical candidate schedules constantly;
  // the second compile of byte-identical generated C must be served from
  // the in-process cache without invoking the host compiler again.
  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  In.fillRandom(21);

  auto Build = [&] {
    Var X("x");
    InputBuffer InB("In", ir::Type::float32(), 1);
    Func O("Out");
    O(X) = InB(X) * 3.0f;
    return lowerFunc(O, {N});
  };
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", Out.ref()),
      BufferBinding::fromRef("In", In.ref())};

  auto First = Compiler.compile(Build(), Signature);
  ASSERT_TRUE(static_cast<bool>(First)) << First.getError();
  EXPECT_EQ(Compiler.compileCount(), 1);
  EXPECT_EQ(Compiler.cacheHitCount(), 0);

  auto Second = Compiler.compile(Build(), Signature);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.getError();
  EXPECT_EQ(Compiler.compileCount(), 1) << "identical source must not recompile";
  EXPECT_EQ(Compiler.cacheHitCount(), 1);

  // Both kernels stay runnable (the module is shared, not stolen).
  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  First->run(Buffers);
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Out(I), In(I) * 3.0f);
  Out.fill(0.0f);
  Second->run(Buffers);
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(Out(I), In(I) * 3.0f);

  // A different source is a genuine miss.
  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);
  Func P("Out");
  P(X) = InB(X) + 7.0f;
  auto Third = Compiler.compile(lowerFunc(P, {N}), Signature);
  ASSERT_TRUE(static_cast<bool>(Third)) << Third.getError();
  EXPECT_EQ(Compiler.compileCount(), 2);
  EXPECT_EQ(Compiler.cacheHitCount(), 1);
}

TEST_F(JITFixture, CompileManyBatchesAndMemoizes) {
  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  In.fillRandom(33);
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", Out.ref()),
      BufferBinding::fromRef("In", In.ref())};

  auto Build = [&](float Scale) {
    Var X("x");
    InputBuffer InB("In", ir::Type::float32(), 1);
    Func O("Out");
    O(X) = InB(X) * Scale;
    return lowerFunc(O, {N});
  };
  // Three jobs, two of them byte-identical: the batch compiles two
  // distinct sources, the duplicate is a memo hit.
  std::vector<CompileJob> Jobs;
  Jobs.push_back({Build(2.0f), Signature, CodeGenOptions()});
  Jobs.push_back({Build(5.0f), Signature, CodeGenOptions()});
  Jobs.push_back({Build(2.0f), Signature, CodeGenOptions()});

  auto Kernels = Compiler.compileMany(Jobs);
  ASSERT_EQ(Kernels.size(), 3u);
  for (const auto &K : Kernels)
    ASSERT_TRUE(static_cast<bool>(K)) << K.getError();
  EXPECT_EQ(Compiler.compileCount(), 2);
  EXPECT_EQ(Compiler.cacheHitCount(), 1);

  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  const float Scales[3] = {2.0f, 5.0f, 2.0f};
  for (int J = 0; J != 3; ++J) {
    Out.fill(0.0f);
    Kernels[static_cast<size_t>(J)]->run(Buffers);
    for (int64_t I = 0; I != N; ++I)
      EXPECT_EQ(Out(I), In(I) * Scales[J]);
  }
}

// compile() is compileMany of one job, so a job sequence counts the same
// compiled one at a time or as one batch: a store resident (disk hit), a
// cold key (cc), its duplicate (memo hit), another cold key, and a repeat
// of the first job (memo hit).
TEST(JITDiskCacheTest, CompileAndCompileManyCountAlike) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", Out.ref()),
      BufferBinding::fromRef("In", In.ref())};
  auto Build = [&](float Scale) {
    Var X("x");
    InputBuffer InB("In", ir::Type::float32(), 1);
    Func O("Out");
    O(X) = InB(X) * Scale;
    return lowerFunc(O, {N});
  };
  std::vector<CompileJob> Jobs;
  for (float Scale : {2.0f, 3.0f, 3.0f, 5.0f, 2.0f})
    Jobs.push_back({Build(Scale), Signature, CodeGenOptions()});

  struct Counts {
    int Cc = 0, Memo = 0, Disk = 0;
  };
  auto Run = [&](bool OneAtATime) {
    // A private store holding only the first job's kernel.
    char Template[] = "/tmp/ltp-jit-accounting-XXXXXX";
    EXPECT_NE(::mkdtemp(Template), nullptr);
    ::setenv("LTP_JIT_CACHE_DIR", Template, 1);
    {
      JITCompiler Warmer;
      Warmer.setDiskCacheEnabled(true);
      EXPECT_TRUE(static_cast<bool>(
          Warmer.compile(Jobs[0].S, Jobs[0].Signature)));
    }
    JITCompiler Compiler;
    Compiler.setDiskCacheEnabled(true);
    if (OneAtATime) {
      for (const CompileJob &Job : Jobs)
        EXPECT_TRUE(static_cast<bool>(
            Compiler.compile(Job.S, Job.Signature, Job.Options)));
    } else {
      for (const auto &K : Compiler.compileMany(Jobs))
        EXPECT_TRUE(static_cast<bool>(K)) << K.getError();
    }
    ::unsetenv("LTP_JIT_CACHE_DIR");
    std::ignore =
        std::system((std::string("rm -rf '") + Template + "'").c_str());
    return Counts{Compiler.compileCount(), Compiler.cacheHitCount(),
                  Compiler.diskHitCount()};
  };

  Counts Serial = Run(/*OneAtATime=*/true);
  Counts Batch = Run(/*OneAtATime=*/false);
  EXPECT_EQ(Serial.Cc, 2);
  EXPECT_EQ(Serial.Memo, 2);
  EXPECT_EQ(Serial.Disk, 1);
  EXPECT_EQ(Batch.Cc, Serial.Cc);
  EXPECT_EQ(Batch.Memo, Serial.Memo);
  EXPECT_EQ(Batch.Disk, Serial.Disk);
}

TEST(JITDiskCacheTest, WarmCompilerLoadsFromDiskWithoutCC) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  // A private cache directory makes the cold/warm sequence deterministic
  // across test reruns.
  char Template[] = "/tmp/ltp-jit-cache-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Template), nullptr);
  ::setenv("LTP_JIT_CACHE_DIR", Template, 1);

  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  In.fillRandom(44);
  std::vector<BufferBinding> Signature = {
      BufferBinding::fromRef("Out", Out.ref()),
      BufferBinding::fromRef("In", In.ref())};
  auto Build = [&] {
    Var X("x");
    InputBuffer InB("In", ir::Type::float32(), 1);
    Func O("Out");
    O(X) = InB(X) + 1.5f;
    return lowerFunc(O, {N});
  };
  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};

  {
    JITCompiler Cold;
    auto Kernel = Cold.compile(Build(), Signature);
    ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
    EXPECT_EQ(Cold.compileCount(), 1);
    EXPECT_EQ(Cold.diskHitCount(), 0);
    Kernel->run(Buffers);
    for (int64_t I = 0; I != N; ++I)
      EXPECT_EQ(Out(I), In(I) + 1.5f);
  } // modules unload; the .so must survive on disk

  {
    JITCompiler Warm;
    auto Kernel = Warm.compile(Build(), Signature);
    ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError();
    EXPECT_EQ(Warm.compileCount(), 0) << "warm cache must not invoke cc";
    EXPECT_EQ(Warm.diskHitCount(), 1);
    Out.fill(0.0f);
    Kernel->run(Buffers);
    for (int64_t I = 0; I != N; ++I)
      EXPECT_EQ(Out(I), In(I) + 1.5f);
  }

  ::unsetenv("LTP_JIT_CACHE_DIR");
  std::string Cleanup = std::string("rm -rf '") + Template + "'";
  std::ignore = std::system(Cleanup.c_str());
}

TEST_F(JITFixture, CompileErrorIsReported) {
  // A buffer missing from the signature is a programmatic error caught by
  // assert; instead check the compiler-diagnostic path with a bogus
  // compiler binary.
  JITCompiler Bad("/nonexistent/compiler");
  Var X("x");
  InputBuffer In("In", ir::Type::float32(), 1);
  Func O("Out");
  O(X) = In(X);
  Buffer<float> InBuf({8}), OutBuf({8});
  ir::StmtPtr S = lowerFunc(O, {8});
  auto Kernel = Bad.compile(S, {BufferBinding::fromRef("Out", OutBuf.ref()),
                                BufferBinding::fromRef("In", InBuf.ref())});
  EXPECT_FALSE(static_cast<bool>(Kernel));
  EXPECT_FALSE(Kernel.getError().empty());
}

} // namespace
