//===- AccessProgramTest.cpp - access program vs tree-walker trace ---------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The access program (cachesim/AccessProgram.h) is the simulator's only
// trace engine, so it must be exact: for every kernel and every platform
// configuration it has to produce bit-identical HierarchyStats and
// access counts to a hierarchy driven by the tree-walking oracle
// (tests/oracles), which executes the nest. These tests sweep dense
// affine nests, min-tail splits, non-unit strides, RDom reductions,
// non-temporal stores, predicated updates (guards), fused div/mod
// indices, every Table-4 kernel under its default and proposed
// schedules, and the data-dependent programs the engine must refuse —
// across all three platforms/*.conf files.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "cachesim/AccessProgram.h"
#include "cachesim/TraceRunner.h"
#include "core/Optimizer.h"
#include "core/TemporalOptimizer.h"
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

/// Simulates \p Stmts with the access program on each of \p Platforms
/// and on the tree walker, and asserts bit-identical statistics and
/// access counts.
void expectMatchesWalker(
    const std::vector<ir::StmtPtr> &Stmts,
    const std::map<std::string, BufferRef> &Buffers,
    const std::vector<std::pair<std::string, ArchParams>> &Platforms,
    const std::string &Kernel) {
  std::vector<ArchParams> Archs;
  for (const auto &Platform : Platforms)
    Archs.push_back(Platform.second);
  std::vector<WalkerSim> Ref = simulateOnWalker(Stmts, Buffers, Archs);
  for (size_t P = 0; P != Platforms.size(); ++P) {
    std::string Context = Kernel + " on " + Platforms[P].first;
    ErrorOr<SimResult> Sim = simulate(Stmts, Buffers, Archs[P]);
    ASSERT_TRUE(static_cast<bool>(Sim)) << Context << ": " << Sim.getError();
    EXPECT_EQ(Sim->Accesses, Ref[P].Accesses) << Context;
    expectIdenticalStats(Sim->Stats, Ref[P].Stats, Context);
  }
}

/// expectMatchesWalker on every platform.
void expectEnginesAgree(const std::vector<ir::StmtPtr> &Stmts,
                        const std::map<std::string, BufferRef> &Buffers,
                        const std::string &Kernel) {
  expectMatchesWalker(Stmts, Buffers, allPlatforms(), Kernel);
}

void expectBenchmarkAgrees(const char *Name, int64_t Size) {
  const BenchmarkDef *Def = findBenchmark(Name);
  ASSERT_NE(Def, nullptr) << Name;
  BenchmarkInstance Instance = Def->Create(Size);
  expectEnginesAgree(lowerPipeline(Instance), Instance.Buffers, Name);
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
  expectEnginesAgree({lowerFunc(O, {W, H})}, Buffers, "blur");
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
  expectEnginesAgree({lowerFunc(O, {N, N})}, Buffers, "split-tail");
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
  expectEnginesAgree({lowerFunc(O, {N, N})}, Buffers, "copy-nti");
}

TEST(AccessProgramTest, PredicatedUpdateCompilesToAGuard) {
  // trmm's RDom carries a `where` predicate, lowered to an IfThenElse:
  // the update nest compiles to a guard on the predicate.
  expectBenchmarkAgrees("trmm", 48);
}

TEST(AccessProgramTest, FusedDivModIndicesMatchWalker) {
  // fuse() rewrites both loop variables as fused / extent and
  // fused % extent: indices the access program evaluates per element.
  // A non-dividing split of the fused loop adds a tail guard on top.
  constexpr int64_t W = 40, H = 24;
  Buffer<float> In({W, H}), Out({W, H});
  In.fillRandom(6);

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  Func O("Out");
  O(X, Y) = InB(X, Y) + 1.0f;
  O.pureStage().fuse("y", "x", "f").split("f", "fo", "fi", 7);

  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  expectEnginesAgree({lowerFunc(O, {W, H})}, Buffers, "fused");
}

TEST(AccessProgramTest, SelectIndexAndLoadingArmsMatchWalker) {
  // A select inside an index evaluates lazily in the scalar program; a
  // select whose arms load becomes a guard that traces only the taken
  // arm.
  constexpr int64_t N = 200;
  Buffer<float> In({N}), Out({N});
  In.fillRandom(2);
  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);
  Expr Last(static_cast<int>(N - 1));
  Func O("Out");
  O(X) = InB(select(Expr(X) < 50, Expr(X), Last - Expr(X))) +
         select(Expr(X) % 3 == 0, InB(X), InB(Last - Expr(X)) * 2.0f);
  std::map<std::string, BufferRef> Buffers = {{"In", In.ref()},
                                              {"Out", Out.ref()}};
  expectEnginesAgree({lowerFunc(O, {N})}, Buffers, "select");
}

TEST(AccessProgramTest, TreePLRUReplayMatchesWalker) {
  // bench/ablation_model replays the proposed matmul into tree-PLRU
  // hierarchies; batched windows must leave PLRU state exact too.
  const BenchmarkDef *Def = findBenchmark("matmul");
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(96);
  ArchParams Arch = intelI7_5930K();
  for (size_t I = 0; I != Instance.Stages.size(); ++I)
    optimize(Instance.Stages[I], Instance.StageExtents[I], Arch);
  std::vector<ir::StmtPtr> Stmts = lowerPipeline(Instance);
  ErrorOr<AccessProgram> Program =
      compileAccessProgram(Stmts, Instance.Buffers);
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError();
  MemoryHierarchy Replayed(Arch, ReplacementPolicy::TreePLRU);
  uint64_t Accesses = Program->run(Replayed);

  MemoryHierarchy Walked(Arch, ReplacementPolicy::TreePLRU);
  uint64_t Walks = 0;
  for (const ir::StmtPtr &S : Stmts)
    walkStmt(S, Instance.Buffers,
             [&](AccessKind Kind, uint64_t Address, uint32_t Size) {
               ++Walks;
               Walked.access(Kind, Address, Size);
             });
  EXPECT_EQ(Accesses, Walks);
  expectIdenticalStats(Replayed.stats(), Walked.stats(), "matmul tree-PLRU");
}

TEST(AccessProgramTest, IndirectProgramIsAnError) {
  // Stage 1 writes Idx; stage 2 indexes A with Idx's values, so its
  // addresses depend on buffer contents. Simulation executes nothing, so
  // it refuses the program with an error instead of tracing addresses
  // computed from whatever Idx holds.
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
  for (const auto &[Platform, Arch] : allPlatforms()) {
    ErrorOr<SimResult> Sim = simulate(Stmts, Buffers, Arch);
    ASSERT_FALSE(static_cast<bool>(Sim)) << Platform;
    EXPECT_NE(Sim.getError().find("an index of 'A' depends on buffer "
                                  "contents"),
              std::string::npos)
        << Sim.getError();
  }
  // Simulation read no buffer: Idx was never written.
  for (int64_t E = 0; E != N; ++E)
    EXPECT_EQ(Idx(E), 0) << "element " << E;
}

TEST(AccessProgramTest, SimulateManyMatchesSerialSimulate) {
  // The parallel fan-out must return, in job order, exactly what the
  // serial calls return, refusals included. Jobs deliberately mix
  // platforms, kernels and one refused program.
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

  constexpr int64_t N = 16;
  Buffer<int32_t> Idx({N});
  Buffer<float> Out({N});
  std::map<std::string, BufferRef> Indirect = {{"Idx", Idx.ref()},
                                               {"Out", Out.ref()}};
  ir::ExprPtr X = ir::VarRef::make("x");
  ir::StmtPtr Refused = ir::For::make(
      "x", ir::IntImm::make(0), ir::IntImm::make(N), ir::ForKind::Serial,
      ir::Store::make("Out", {ir::Load::make("Idx", {X}, ir::Type::int32())},
                      ir::FloatImm::make(1.0f)));
  Jobs.insert(Jobs.begin() + 2,
              {{Refused}, &Indirect, intelI7_6700(), LatencyModel()});

  std::vector<ErrorOr<SimResult>> Many = simulateMany(Jobs);
  ASSERT_EQ(Many.size(), Jobs.size());
  for (size_t J = 0; J != Jobs.size(); ++J) {
    ErrorOr<SimResult> Serial = simulate(Jobs[J].Stmts, *Jobs[J].Buffers,
                                         Jobs[J].Arch, Jobs[J].Latency);
    std::string Context = "job " + std::to_string(J);
    ASSERT_EQ(static_cast<bool>(Many[J]), static_cast<bool>(Serial))
        << Context;
    EXPECT_EQ(static_cast<bool>(Serial), J != 2) << Context;
    if (!Serial) {
      EXPECT_EQ(Many[J].getError(), Serial.getError()) << Context;
      continue;
    }
    EXPECT_EQ(Many[J]->Accesses, Serial->Accesses) << Context;
    expectIdenticalStats(Many[J]->Stats, Serial->Stats, Context);
  }
}

TEST(AccessProgramTest, CompileRejectsOnlyWhatItMust) {
  // Direct compileAccessProgram probes: affine nests, guards, lazy
  // selects and loads steering nothing compile; a trace steered by
  // buffer contents is refused with a message naming what steers it.
  constexpr int64_t N = 16;
  Buffer<float> In({N}), Out({N});
  Buffer<int32_t> Idx({N});
  std::map<std::string, BufferRef> Buffers = {
      {"In", In.ref()}, {"Out", Out.ref()}, {"Idx", Idx.ref()}};
  Var X("x");
  InputBuffer InB("In", ir::Type::float32(), 1);
  InputBuffer IdxB("Idx", ir::Type::int32(), 1);
  auto Compile = [&](const Func &F) {
    return compileAccessProgram({lowerFunc(F, {N})}, Buffers);
  };

  Func Pure("Out");
  Pure(X) = InB(X) + 1.0f;
  EXPECT_TRUE(static_cast<bool>(Compile(Pure)));

  RDom K(0, static_cast<int>(N), "k");
  K.where(Expr(K) <= Expr(X));
  Func Pred("Out");
  Pred(X) = 0.0f;
  Pred(X) += InB(K);
  EXPECT_TRUE(static_cast<bool>(Compile(Pred)));

  // A load in a select condition only picks a value: no arm loads.
  Func Mask("Out");
  Mask(X) = select(InB(X) > 0.5f, Expr(1.0f), Expr(0.0f));
  EXPECT_TRUE(static_cast<bool>(Compile(Mask)));

  // A load-free select condition picks which loads run: a guard.
  Func Lazy("Out");
  Lazy(X) = select(Expr(X) < 4, InB(X), InB(Expr(static_cast<int>(N - 1)) - Expr(X)));
  EXPECT_TRUE(static_cast<bool>(Compile(Lazy)));

  // A loaded select condition picking between loading arms is refused.
  Func Steered("Out");
  Steered(X) = select(InB(X) > 0.5f, InB(X), InB(Expr(static_cast<int>(N - 1)) - Expr(X)));
  ErrorOr<AccessProgram> S = Compile(Steered);
  ASSERT_FALSE(static_cast<bool>(S));
  EXPECT_NE(S.getError().find("select condition"), std::string::npos)
      << S.getError();

  Func Indirect("Out");
  Indirect(X) = InB(IdxB(X));
  ErrorOr<AccessProgram> I = Compile(Indirect);
  ASSERT_FALSE(static_cast<bool>(I));
  EXPECT_NE(I.getError().find("an index of 'In' depends on buffer contents"),
            std::string::npos)
      << I.getError();

  // A loop bound read from a buffer.
  ir::StmtPtr Bounded = ir::For::make(
      "x", ir::IntImm::make(0), ir::Load::make("Idx", {ir::IntImm::make(0)},
                                               ir::Type::int32()),
      ir::ForKind::Serial,
      ir::Store::make("Out", {ir::VarRef::make("x")},
                      ir::FloatImm::make(0.0f)));
  ErrorOr<AccessProgram> B = compileAccessProgram({Bounded}, Buffers);
  ASSERT_FALSE(static_cast<bool>(B));
  EXPECT_NE(B.getError().find("the extent of loop 'x' depends on buffer "
                              "contents"),
            std::string::npos)
      << B.getError();
}

/// The Table-4 kernels, by name, for the per-kernel sweeps.
std::vector<std::string> table4Names() {
  std::vector<std::string> Names;
  for (const BenchmarkDef &Def : allBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

class Table4Traces : public ::testing::TestWithParam<std::string> {};

TEST_P(Table4Traces, DefaultAndProposedMatchWalker) {
  // Each kernel at size 48: its default schedule on every platform, and
  // the optimizer's schedule for each platform (non-temporal stores
  // enabled, as in the proposed configuration) simulated on it.
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Default = Def->Create(48);
  expectEnginesAgree(lowerPipeline(Default), Default.Buffers,
                     GetParam() + " default");
  for (const auto &[Platform, Arch] : allPlatforms()) {
    BenchmarkInstance Proposed = Def->Create(48);
    for (size_t I = 0; I != Proposed.Stages.size(); ++I)
      optimize(Proposed.Stages[I], Proposed.StageExtents[I], Arch);
    expectMatchesWalker(lowerPipeline(Proposed), Proposed.Buffers,
                        {{Platform, Arch}}, GetParam() + " proposed");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Table4Traces, ::testing::ValuesIn(table4Names()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(AccessProgramTest, EveryKernelCompilesUnderEveryScheduler) {
  // No built-in kernel is refused at its default size: unscheduled, and
  // under the proposed, TSS and TTS schedules for each platform.
  // Compiling needs only the buffers' shapes and addresses.
  std::vector<const BenchmarkDef *> Defs;
  for (const BenchmarkDef &Def : allBenchmarks())
    Defs.push_back(&Def);
  for (const BenchmarkDef &Def : extendedBenchmarks())
    Defs.push_back(&Def);
  for (const BenchmarkDef *Def : Defs) {
    auto ExpectCompiles = [&](const BenchmarkInstance &Instance,
                              const std::string &How) {
      ErrorOr<AccessProgram> P =
          compileAccessProgram(lowerPipeline(Instance), Instance.Buffers);
      EXPECT_TRUE(static_cast<bool>(P))
          << Def->Name << " " << How << ": " << P.getError();
    };
    ExpectCompiles(Def->Shape(Def->DefaultSize), "default");
    for (const auto &[Platform, Arch] : allPlatforms()) {
      BenchmarkInstance Proposed = Def->Shape(Def->DefaultSize);
      for (size_t I = 0; I != Proposed.Stages.size(); ++I)
        optimize(Proposed.Stages[I], Proposed.StageExtents[I], Arch);
      ExpectCompiles(Proposed, "proposed on " + Platform);
      for (bool TSS : {true, false}) {
        BenchmarkInstance Tiled = Def->Shape(Def->DefaultSize);
        for (size_t I = 0; I != Tiled.Stages.size(); ++I) {
          Func &F = Tiled.Stages[I];
          int ComputeStage = F.computeStageIndex();
          StageAccessInfo Info =
              analyzeStage(F, ComputeStage, Tiled.StageExtents[I]);
          applyTemporalSchedule(F, ComputeStage,
                                TSS ? optimizeTSS(Info, Arch)
                                    : optimizeTTS(Info, Arch),
                                Info);
        }
        ExpectCompiles(Tiled, (TSS ? "TSS on " : "TTS on ") + Platform);
      }
    }
  }
}

} // namespace
