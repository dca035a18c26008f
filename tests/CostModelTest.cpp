//===- CostModelTest.cpp - analytical model vs the paper's equations ------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Verifies that the generalized cost model reproduces Eqs. 1-12 of the
// paper *exactly* on the matmul walkthrough of Section 3.2, plus property
// checks (monotonicity, tiling-invariance of totals) over tile sweeps.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "tests/oracles/CostModel.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

/// The matmul stage of Listing 1/Section 3.2 at problem size B.
StageAccessInfo matmulInfo(int64_t B) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(B);
  return analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);
}

TEST(CostModelTest, WorkingSetsMatchEquations1And6) {
  StageAccessInfo Info = matmulInfo(2048);
  const int64_t Ti = 32, Tj = 512, Tk = 64;
  TileMap Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};

  // Eq. 6: wsL2 = Tj*Ti + Tk*Ti + Tj*Tk.
  EXPECT_EQ(workingSetElements(Info, Tiles), Tj * Ti + Tk * Ti + Tj * Tk);

  // Eq. 1: wsL1 = Tj + Tk + Tj*Tk (one iteration of the outermost
  // intra-tile loop i).
  TileMap L1Tiles = Tiles;
  L1Tiles["i"] = 1;
  EXPECT_EQ(workingSetElements(Info, L1Tiles), Tj + Tk + Tj * Tk);
}

TEST(CostModelTest, L1MissesMatchEquation5) {
  const int64_t B = 2048;
  StageAccessInfo Info = matmulInfo(B);
  const int64_t Ti = 32, Tj = 512, Tk = 64;
  TileMap Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};

  // Eq. 5: CL1 = (Ti + Ti + Tk) * (Bi*Bj*Bk)/(Ti*Tj*Tk).
  double Want = static_cast<double>(Ti + Ti + Tk) *
                (static_cast<double>(B) / Ti) * (static_cast<double>(B) / Tj) *
                (static_cast<double>(B) / Tk);
  EXPECT_DOUBLE_EQ(estimateL1Misses(Info, Tiles, "i"), Want);
}

TEST(CostModelTest, L2MissesMatchEquation10) {
  const int64_t B = 2048;
  StageAccessInfo Info = matmulInfo(B);
  const int64_t Ti = 32, Tj = 512, Tk = 64;
  TileMap Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};

  // Eq. 10: CL2 = (Ti*Bj/Tj + Ti + Tk*Bj/Tj) * (Bi/Ti) * (Bk/Tk).
  double TripJ = static_cast<double>(B) / Tj;
  double Want = (Ti * TripJ + Ti + Tk * TripJ) *
                (static_cast<double>(B) / Ti) *
                (static_cast<double>(B) / Tk);
  EXPECT_DOUBLE_EQ(estimateL2Misses(Info, Tiles, "j"), Want);
}

TEST(CostModelTest, OrderCostMatchesEquation12) {
  const int64_t B = 2048;
  StageAccessInfo Info = matmulInfo(B);
  const int64_t Ti = 32, Tj = 512, Tk = 64;
  TileMap Tiles = {{"i", Ti}, {"j", Tj}, {"k", Tk}};

  // Listing 1 order: intra (j, k, i) and inter (jj, kk, ii), innermost
  // first. Eq. 12: Corder = Bj*Bk/(Tj*Tk) + Bj*Ti/Tj + Ti*Tk.
  double Want = (static_cast<double>(B) / Tj) * (static_cast<double>(B) / Tk) +
                (static_cast<double>(B) / Tj) * Ti +
                static_cast<double>(Ti) * Tk;
  EXPECT_DOUBLE_EQ(orderCost(Info, Tiles, {"j", "k", "i"}, {"j", "k", "i"}),
                   Want);
}

TEST(CostModelTest, UntiledLoopsContributeNoOrderDistance) {
  StageAccessInfo Info = matmulInfo(256);
  TileMap Tiles = {{"i", 32}, {"j", 256}, {"k", 256}};
  // Only i is tiled; j and k have no inter-tile incarnation.
  double Cost = orderCost(Info, Tiles, {"j", "k", "i"}, {"i"});
  // i's intra loop is adjacent to its inter loop: distance product is
  // empty = 1.
  EXPECT_DOUBLE_EQ(Cost, 1.0);
}

TEST(CostModelTest, PrefetchEliminationReducesMissEstimate) {
  StageAccessInfo Info = matmulInfo(2048);
  TileMap Tiles = {{"i", 32}, {"j", 512}, {"k", 64}};
  const int64_t Lc = 16; // 64B lines, float32
  EXPECT_LT(estimateL1Misses(Info, Tiles, "i"),
            estimateL1MissesNoPrefetch(Info, Tiles, "i", Lc));
  EXPECT_LT(estimateL2Misses(Info, Tiles, "j"),
            estimateL2MissesNoPrefetch(Info, Tiles, "j", Lc));
}

TEST(CostModelTest, ConvolutionFootprintIncludesWindowHalo) {
  const BenchmarkDef *Def = findBenchmark("convlayer");
  BenchmarkInstance Instance = Def->Create(32);
  StageAccessInfo Info =
      analyzeComputeStage(Instance.Stages[0], Instance.StageExtents[0]);

  // Find the input access (reads x+rx).
  const ArrayAccess *In = nullptr;
  for (const ArrayAccess &A : Info.Accesses)
    if (A.Buffer == "In")
      In = &A;
  ASSERT_NE(In, nullptr);
  // Footprint of dim 0 over tiles {x: 8, rx: 3} is 8 + 3 - 1 = 10.
  TileMap Tiles = {{"x", 8}, {"rx", 3}};
  EXPECT_EQ(footprintDimExtent(In->Index[0], Tiles), 10);
}

class TileSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(TileSweep, LargerColumnTilesNeverIncreaseL1SegmentMisses) {
  // Property: growing the column tile leaves the prefetch-adjusted
  // per-footprint segment count unchanged (segments ignore the column
  // dimension) while reducing the tile count, so CL1 cannot grow.
  StageAccessInfo Info = matmulInfo(1024);
  int64_t Tj = GetParam();
  TileMap Small = {{"i", 16}, {"j", Tj}, {"k", 32}};
  TileMap Bigger = Small;
  Bigger["j"] = std::min<int64_t>(1024, Tj * 2);
  EXPECT_GE(estimateL1Misses(Info, Small, "i"),
            estimateL1Misses(Info, Bigger, "i"));
}

TEST_P(TileSweep, WorkingSetGrowsMonotonicallyWithTiles) {
  StageAccessInfo Info = matmulInfo(1024);
  int64_t Tj = GetParam();
  TileMap Small = {{"i", 16}, {"j", Tj}, {"k", 32}};
  TileMap Bigger = Small;
  Bigger["j"] = std::min<int64_t>(1024, Tj * 2);
  Bigger["k"] = 64;
  EXPECT_LE(workingSetElements(Info, Small),
            workingSetElements(Info, Bigger));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, TileSweep,
                         ::testing::Values<int64_t>(8, 16, 32, 64, 128, 256,
                                                    512));

TEST(AccessInfoTest, MatmulAccessStructure) {
  StageAccessInfo Info = matmulInfo(128);
  ASSERT_EQ(Info.Accesses.size(), 3u);
  EXPECT_TRUE(Info.Accesses[0].IsOutput);
  EXPECT_TRUE(Info.Accesses[0].IsSelfReference)
      << "the accumulator self-reference folds into the output access";
  EXPECT_EQ(Info.outputColumnVar(), "j");
  std::set<std::string> Columns = Info.columnVars();
  EXPECT_TRUE(Columns.count("j"));
  EXPECT_TRUE(Columns.count("k")) << "A(k, i) makes k a column index";
  ASSERT_EQ(Info.Loops.size(), 3u);
  EXPECT_FALSE(Info.Loops[0].IsReduction);
  EXPECT_TRUE(Info.Loops[2].IsReduction);
}

TEST(AccessInfoTest, AffineDecomposition) {
  // 2*x + y - 3 decomposes exactly.
  ir::ExprPtr X = ir::VarRef::make("x");
  ir::ExprPtr Y = ir::VarRef::make("y");
  ir::ExprPtr E = ir::Binary::make(
      ir::BinOp::Sub,
      ir::Binary::make(ir::BinOp::Add,
                       ir::Binary::make(ir::BinOp::Mul, ir::IntImm::make(2),
                                        X),
                       Y),
      ir::IntImm::make(3));
  AffineIndex A = decomposeAffine(E);
  EXPECT_TRUE(A.IsAffine);
  EXPECT_EQ(A.Const, -3);
  EXPECT_EQ(A.Coeffs.at("x"), 2);
  EXPECT_EQ(A.Coeffs.at("y"), 1);

  // x*y is not affine.
  AffineIndex B =
      decomposeAffine(ir::Binary::make(ir::BinOp::Mul, X, Y));
  EXPECT_FALSE(B.IsAffine);
}

} // namespace
