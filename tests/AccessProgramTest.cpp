//===- AccessProgramTest.cpp - compiled fast path vs interpreter -----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The compiled access-program engine (cachesim/AccessProgram.h) must be
// invisible: for every kernel and every platform configuration it has to
// produce bit-identical HierarchyStats to the interpreter-hook path on the
// VM, and both to a hierarchy driven by the tree-walking oracle
// (tests/oracles). These tests sweep representative kernels — dense
// affine nests, min-tail splits, non-unit strides, RDom reductions,
// non-temporal stores, predicated updates (escape path) and
// data-dependent indexing (full fallback) — across all three
// platforms/*.conf files.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "benchmarks/PipelineRunner.h"
#include "cachesim/AccessProgram.h"
#include "cachesim/TraceRunner.h"
#include "lang/Func.h"
#include "lang/Lower.h"
#include "tests/oracles/TreeWalker.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

/// Loads every checked-in platform configuration. The fast path must be
/// exact on each of them, including the no-L3 ARM configuration and
/// non-default prefetcher settings.
std::vector<std::pair<std::string, ArchParams>> allPlatforms() {
  std::vector<std::pair<std::string, ArchParams>> Out;
  for (const char *Name :
       {"intel-i7-6700.conf", "intel-i7-5930k.conf", "arm-cortex-a15.conf"}) {
    ErrorOr<ArchParams> P =
        loadArchParams(std::string(LTP_PLATFORMS_DIR "/") + Name);
    EXPECT_TRUE(static_cast<bool>(P)) << Name;
    if (P)
      Out.emplace_back(Name, *P);
  }
  return Out;
}

/// Field-by-field equality; EXPECT on each member so a mismatch names
/// the counter that diverged.
void expectIdenticalStats(const HierarchyStats &Fast,
                          const HierarchyStats &Ref,
                          const std::string &Context) {
  auto Level = [&](const CacheLevelStats &F, const CacheLevelStats &R,
                   const char *Name) {
    EXPECT_EQ(F.DemandHits, R.DemandHits) << Context << " " << Name;
    EXPECT_EQ(F.DemandMisses, R.DemandMisses) << Context << " " << Name;
    EXPECT_EQ(F.PrefetchFills, R.PrefetchFills) << Context << " " << Name;
    EXPECT_EQ(F.PrefetchHits, R.PrefetchHits) << Context << " " << Name;
    EXPECT_EQ(F.Evictions, R.Evictions) << Context << " " << Name;
  };
  Level(Fast.L1, Ref.L1, "L1");
  Level(Fast.L2, Ref.L2, "L2");
  Level(Fast.L3, Ref.L3, "L3");
  EXPECT_EQ(Fast.MemoryAccesses, Ref.MemoryAccesses) << Context;
  EXPECT_EQ(Fast.PrefetchMemoryFills, Ref.PrefetchMemoryFills) << Context;
  EXPECT_EQ(Fast.Writebacks, Ref.Writebacks) << Context;
  EXPECT_EQ(Fast.NonTemporalStores, Ref.NonTemporalStores) << Context;
  EXPECT_EQ(Fast.NonTemporalLines, Ref.NonTemporalLines) << Context;
  EXPECT_EQ(Fast.PrefetchIssuedL1, Ref.PrefetchIssuedL1) << Context;
  EXPECT_EQ(Fast.PrefetchIssuedL2, Ref.PrefetchIssuedL2) << Context;
}

/// Simulates \p Stmts with both engines and on the tree walker on every
/// platform and asserts bit-identical statistics and access counts.
/// \p ExpectFastPath asserts whether the compiled engine actually took the
/// fast path: the recorded `SimResult::Engine` must name the engine that
/// actually ran (access-program, or the VM when compilation falls back).
void expectEnginesAgree(const std::vector<ir::StmtPtr> &Stmts,
                        const std::map<std::string, BufferRef> &Buffers,
                        const std::string &Kernel, bool ExpectFastPath) {
  for (const auto &[Platform, Arch] : allPlatforms()) {
    SimResult Fast =
        simulate(Stmts, Buffers, Arch, LatencyModel(), SimEngine::Auto);
    SimResult VM =
        simulate(Stmts, Buffers, Arch, LatencyModel(), SimEngine::Interpreter);
    WalkerSim Ref = simulateOnWalker(Stmts, Buffers, Arch);
    std::string Context = Kernel + " on " + Platform;
    EXPECT_EQ(Fast.Engine, ExpectFastPath ? TraceEngine::AccessProgram
                                          : TraceEngine::VM)
        << Context;
    EXPECT_EQ(VM.Engine, TraceEngine::VM) << Context;
    EXPECT_EQ(Fast.Accesses, VM.Accesses) << Context;
    EXPECT_EQ(VM.Accesses, Ref.Accesses) << Context;
    expectIdenticalStats(Fast.Stats, VM.Stats, Context + " (fast vs vm)");
    expectIdenticalStats(VM.Stats, Ref.Stats, Context + " (vm vs reference)");
  }
}

void expectBenchmarkAgrees(const char *Name, int64_t Size,
                           bool ExpectFastPath = true) {
  const BenchmarkDef *Def = findBenchmark(Name);
  ASSERT_NE(Def, nullptr) << Name;
  BenchmarkInstance Instance = Def->Create(Size);
  expectEnginesAgree(lowerPipeline(Instance), Instance.Buffers, Name,
                     ExpectFastPath);
}

TEST(AccessProgramTest, MatmulMatchesInterpreter) {
  // Dense affine nest with an RDom reduction (init stage + update stage).
  expectBenchmarkAgrees("matmul", 64);
}

TEST(AccessProgramTest, DoitgenReductionMatchesInterpreter) {
  // 3D RDom reduction with an intermediate stage.
  expectBenchmarkAgrees("doitgen", 24);
}

TEST(AccessProgramTest, TransposeNonUnitStrideMatchesInterpreter) {
  // tp reads column-major: a large non-unit stride on the load side,
  // unit stride on the store side. Exercises negative-progress-free
  // batching windows of width 1 on the strided stream.
  expectBenchmarkAgrees("tp", 192);
}

TEST(AccessProgramTest, BlurMatchesInterpreter) {
  // 3x3 blur over a padded input: nine affine loads per store whose
  // lines overlap between iterations — the batching window must stay
  // exact when several ops alias the same line.
  constexpr int64_t W = 96, H = 64;
  Buffer<float> In({W + 2, H + 2}), Out({W, H});
  In.fillRandom(11);

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  RDom R(std::vector<RVar>{RVar("rx", 0, 3), RVar("ry", 0, 3)});
  Func O("Out");
  O(X, Y) = 0.0f;
  O(X, Y) += InB(Expr(X) + Expr(R[0]), Expr(Y) + Expr(R[1])) / 9.0f;

  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  expectEnginesAgree({lowerFunc(O, {W, H})}, Buffers, "blur", true);
}

TEST(AccessProgramTest, NonDivisibleSplitMatchesInterpreter) {
  // split(…, 7) over extent 100 produces min-guarded tail bounds
  // (Min/Div in loop extents) that must route through the scalar
  // bound programs, not the affine address path.
  constexpr int64_t N = 100;
  Buffer<float> In({N, N}), Out({N, N});
  In.fillRandom(5);

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  Func O("Out");
  O(X, Y) = InB(X, Y) * 2.0f;
  O.split("x", "xo", "xi", 7).split("y", "yo", "yi", 6).reorder(
      {"xi", "yi", "xo", "yo"});

  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  expectEnginesAgree({lowerFunc(O, {N, N})}, Buffers, "split-tail", true);
}

TEST(AccessProgramTest, NonTemporalStoreMatchesInterpreter) {
  // Streaming copy with NT stores: the batched repeat path must count
  // NonTemporalStores / NT line traffic exactly and keep the
  // invalidations; the NT target lines are disjoint from the load
  // stream so batching stays legal.
  constexpr int64_t N = 256;
  Buffer<float> In({N, N}), Out({N, N});
  In.fillRandom(3);

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  Func O("Out");
  O(X, Y) = InB(X, Y);
  O.storeNonTemporal();

  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  expectEnginesAgree({lowerFunc(O, {N, N})}, Buffers, "copy-nti", true);
}

TEST(AccessProgramTest, PredicatedUpdateEscapesButMatches) {
  // trmm's RDom carries a `where` predicate, lowered to an IfThenElse:
  // the update nest escapes to the interpreter while the init stage
  // stays compiled. Statistics must still be exact, and the program as
  // a whole still counts as fast-path.
  expectBenchmarkAgrees("trmm", 48, /*ExpectFastPath=*/true);
}

TEST(AccessProgramTest, GarbageObservingTraceFallsBack) {
  // Stage 1 (compiled) writes Idx; stage 2 indexes A with Idx's values.
  // The fast path never materializes Idx, so a compiled run of stage 2's
  // escape would trace addresses computed from garbage. The compiler
  // must refuse the whole program and fall back to the interpreter.
  constexpr int64_t N = 64;
  Buffer<int32_t> Idx({N});
  Buffer<float> A({N}), Out({N});
  A.fillRandom(9);

  Var X("x");
  Func I("Idx");
  I(X) = cast(ir::Type::int32(),
              Expr(static_cast<int>(N - 1)) - Expr(X));
  Func O("Out");
  InputBuffer IdxB("Idx", ir::Type::int32(), 1);
  InputBuffer AB("A", ir::Type::float32(), 1);
  O(X) = AB(IdxB(X));

  std::map<std::string, BufferRef> Buffers = {
      {"Idx", Idx.ref()}, {"A", A.ref()}, {"Out", Out.ref()}};
  std::vector<ir::StmtPtr> Stmts = {lowerFunc(I, {N}), lowerFunc(O, {N})};
  expectEnginesAgree(Stmts, Buffers, "indirect", /*ExpectFastPath=*/false);
}

TEST(AccessProgramTest, SimulateManyMatchesSerialSimulate) {
  // The parallel fan-out must return, in job order, exactly what the
  // serial calls return. Jobs deliberately mix platforms and kernels.
  const BenchmarkDef *Matmul = findBenchmark("matmul");
  const BenchmarkDef *Copy = findBenchmark("copy");
  ASSERT_NE(Matmul, nullptr);
  ASSERT_NE(Copy, nullptr);

  std::vector<BenchmarkInstance> Instances;
  Instances.push_back(Matmul->Create(48));
  Instances.push_back(Copy->Create(128));

  std::vector<SimJob> Jobs;
  for (const BenchmarkInstance &Instance : Instances)
    for (const auto &[Platform, Arch] : allPlatforms())
      Jobs.push_back(
          {lowerPipeline(Instance), &Instance.Buffers, Arch, LatencyModel()});

  std::vector<SimResult> Many = simulateMany(Jobs);
  ASSERT_EQ(Many.size(), Jobs.size());
  for (size_t J = 0; J != Jobs.size(); ++J) {
    SimResult Serial = simulate(Jobs[J].Stmts, *Jobs[J].Buffers, Jobs[J].Arch,
                                Jobs[J].Latency);
    std::string Context = "job " + std::to_string(J);
    EXPECT_EQ(Many[J].Accesses, Serial.Accesses) << Context;
    EXPECT_EQ(Many[J].Engine, Serial.Engine) << Context;
    expectIdenticalStats(Many[J].Stats, Serial.Stats, Context);
  }
}

TEST(AccessProgramTest, CompileRejectsOnlyWhatItMust) {
  // Direct compileAccessProgram probes: a pure affine nest compiles with
  // no escapes; a predicated store compiles with exactly one escape.
  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);

  Func Pure("Out");
  Pure(X) = InB(X) + 1.0f;
  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  std::optional<AccessProgram> P =
      compileAccessProgram({lowerFunc(Pure, {N})}, Buffers);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->escapeCount(), 0u);

  RDom K(0, static_cast<int>(N), "k");
  K.where(Expr(K) <= Expr(X));
  Func Pred("Out");
  Pred(X) = 0.0f;
  Pred(X) += InB(K);
  std::optional<AccessProgram> Q =
      compileAccessProgram({lowerFunc(Pred, {N})}, Buffers);
  ASSERT_TRUE(Q.has_value());
  EXPECT_EQ(Q->escapeCount(), 1u);
}

} // namespace
