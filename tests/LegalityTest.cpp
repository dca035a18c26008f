//===- LegalityTest.cpp - schedule legality verifier tests ----------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Corpus tests for the dependence analyzer and the schedule legality
// verifier: illegal schedules must be rejected with the expected
// diagnostic, and legal near-misses (schedules one step away from an
// illegal one) must be accepted. Also covers the structural IR verifier
// and the span-quoting verified schedule-text entry point.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/IRVerify.h"
#include "analysis/Legality.h"
#include "lang/Func.h"
#include "lang/Lower.h"
#include "lang/ScheduleText.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

constexpr int64_t N = 48;

/// Matmul accumulator: C(j, i) += A(k, i) * B(j, k). Loops outermost
/// first: k (reduction), i, j.
Func makeMatmul() {
  InputBuffer A("A", ir::Type::float32(), 2);
  InputBuffer B("B", ir::Type::float32(), 2);
  Var J("j"), I("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, I) = 0.0f;
  C(J, I) += A(K, I) * B(J, K);
  return C;
}

/// Symmetric rank-k update: C(j, i) += A(k, i) * A(k, j). Both operands
/// are contiguous along the reduction loop k, along which C stays put.
Func makeSyrk() {
  InputBuffer A("A", ir::Type::float32(), 2);
  Var J("j"), I("i");
  RDom K(0, static_cast<int>(N), "k");
  Func C("C");
  C(J, I) = 0.0f;
  C(J, I) += A(K, I) * A(K, J);
  return C;
}

/// First-order recurrence: A(x) += A(x - 1). Carries an exact flow
/// dependence of distance +1 on x.
Func makeShift1D() {
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X - 1);
  return A;
}

/// Anti-diagonal recurrence: A(x, y) += A(x - 1, y + 1). The surviving
/// lex-positive dependence is (y:+1, x:-1) in the default (y outer)
/// order.
Func makeShift2D() {
  InputBuffer In("In", ir::Type::float32(), 2);
  Var X("x"), Y("y");
  Func A("A");
  A(X, Y) = In(X, Y);
  A(X, Y) += A(X - 1, Y + 1);
  return A;
}


analysis::LegalityReport report(const Func &F,
                                std::vector<int64_t> Extents) {
  return analysis::verifyStageSchedule(F, F.computeStageIndex(), Extents);
}

void expectIllegal(const analysis::LegalityReport &R,
                   const std::string &Substr) {
  EXPECT_TRUE(R.hasErrors()) << "expected rejection containing '" << Substr
                             << "' but the schedule was accepted:\n"
                             << R.Graph.print();
  EXPECT_NE(R.message().find(Substr), std::string::npos)
      << "diagnostic was:\n"
      << R.message();
}

void expectLegal(const analysis::LegalityReport &R) {
  EXPECT_FALSE(R.hasErrors()) << R.message() << "\n" << R.Graph.print();
}

//===----------------------------------------------------------------------===//
// Matmul: reduction-carried dependences
//===----------------------------------------------------------------------===//

TEST(Legality, MatmulParallelReductionLoopRejected) {
  Func F = makeMatmul();
  F.update(0).parallel("k");
  expectIllegal(report(F, {N, N}), "would race");
}

TEST(Legality, MatmulParallelPureLoopAccepted) {
  Func F = makeMatmul();
  F.update(0).parallel("i");
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulVectorizeReductionLoopAccepted) {
  // C(j, i) stays put along k: the lanes keep partial sums, which only
  // reassociates the reduction (as unroll_jam on it does).
  Func F = makeMatmul();
  F.update(0).vectorize("k");
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulVectorizeWithWidthOnReductionAccepted) {
  Func F = makeMatmul();
  F.update(0).vectorize("k", 8);
  expectLegal(report(F, {N, N}));
}

TEST(Legality, SyrkVectorizeReductionLoopAccepted) {
  Func F = makeSyrk();
  F.update(0)
      .split("j", "j_t", "j_i", 8)
      .reorder({"k", "j_i", "i", "j_t"})
      .vectorize("k");
  expectLegal(report(F, {N, N}));
}

TEST(Legality, SyrkVectorizeLoopMovingTheOutputRejected) {
  // Fusing k with the pure loop i makes the stored element move along
  // the vectorized loop: the reduction no longer lands in one element.
  Func F = makeSyrk();
  F.update(0).fuse("k", "i", "ki").vectorize("ki");
  expectIllegal(report(F, {N, N}), "vector width");
}

TEST(Legality, VectorizeReductionLoopCarryingARecurrenceRejected) {
  // A(x) += A(x + 1) * In(r): the read of the neighbour is not the
  // accumulator, and r carries it.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  RDom R(0, static_cast<int>(N), "r");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X + 1) * In(R);
  A.update(0).vectorize("r");
  expectIllegal(report(A, {N}), "vector width");
}

TEST(Legality, MatmulVectorizeColumnAccepted) {
  Func F = makeMatmul();
  F.update(0).vectorize("j");
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulReorderReductionIsReassociationAccepted) {
  // Interchanging k with the pure loops reassociates the reduction; the
  // paper's core matmul transform depends on this being legal.
  Func F = makeMatmul();
  F.update(0).reorder({"k", "j", "i"});
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulUnrollJamPureLoopAccepted) {
  Func F = makeMatmul();
  F.update(0).unrollJam("i", 2);
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulUnrollJamReductionIsReassociationAccepted) {
  Func F = makeMatmul();
  F.update(0).unrollJam("k", 2);
  expectLegal(report(F, {N, N}));
}

TEST(Legality, MatmulParallelInnerSplitAccepted) {
  Func F = makeMatmul();
  F.update(0).split("i", "io", "ii", 8).parallel("ii");
  expectLegal(report(F, {N, N}));
}

//===----------------------------------------------------------------------===//
// Matmul: structural rejection (names, adjacency, tails)
//===----------------------------------------------------------------------===//

TEST(Legality, SplitNameCollisionRejected) {
  Func F = makeMatmul();
  F.update(0).split("i", "j", "ii", 8); // "j" already names a loop
  expectIllegal(report(F, {N, N}), "already in use");
}

TEST(Legality, UnknownLoopNameRejected) {
  Func F = makeMatmul();
  F.update(0).parallel("zebra");
  expectIllegal(report(F, {N, N}), "unknown loop");
}

TEST(Legality, FuseNonAdjacentRejected) {
  // Default order outermost-first is k, i, j: k and j are not adjacent.
  Func F = makeMatmul();
  F.update(0).fuse("k", "j", "kj");
  expectIllegal(report(F, {N, N}), "adjacent");
}

TEST(Legality, FuseAdjacentAccepted) {
  Func F = makeMatmul();
  F.update(0).fuse("i", "j", "ij");
  expectLegal(report(F, {N, N}));
}

TEST(Legality, FuseTailSplitRejected) {
  // 48 % 7 != 0, so ii has a data-dependent (min-clamped) extent and
  // cannot be fused.
  Func F = makeMatmul();
  F.update(0).split("i", "io", "ii", 7).fuse("io", "ii", "i2");
  expectIllegal(report(F, {N, N}), "constant loop extents");
}

TEST(Legality, TailSplitReorderOutsideItsOuterRejected) {
  // ii's extent depends on io after a non-dividing split; hoisting ii
  // outside io is structurally invalid.
  Func F = makeMatmul();
  F.update(0).split("i", "io", "ii", 7).reorder({"io", "ii"});
  expectIllegal(report(F, {N, N}), "must stay nested inside");
}

TEST(Legality, DividingSplitReorderAccepted) {
  // The same interchange is fine when the split divides evenly.
  Func F = makeMatmul();
  F.update(0).split("i", "io", "ii", 8).reorder({"io", "ii"});
  expectLegal(report(F, {N, N}));
}

//===----------------------------------------------------------------------===//
// Recurrences: loop-carried flow dependences
//===----------------------------------------------------------------------===//

TEST(Legality, RecurrenceParallelRejected) {
  Func F = makeShift1D();
  F.update(0).parallel("x");
  expectIllegal(report(F, {N}), "would race");
}

TEST(Legality, RecurrenceVectorizeRejected) {
  Func F = makeShift1D();
  F.update(0).vectorize("x");
  expectIllegal(report(F, {N}), "vector width");
}

TEST(Legality, RecurrenceSerialAccepted) {
  Func F = makeShift1D();
  expectLegal(report(F, {N}));
}

TEST(Legality, RecurrenceUnrollAccepted) {
  // Full unroll preserves the iteration order; always legal.
  Func F = makeShift1D();
  F.update(0).unroll("x");
  expectLegal(report(F, {N}));
}

TEST(Legality, FarReadBeyondExtentIndependentParallelAccepted) {
  // Strong SIV with |distance| >= extent: A(x) and A(x + 100) never
  // overlap inside a 50-iteration loop, so there is no dependence.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X + 100);
  A.update(0).parallel("x");
  expectLegal(report(A, {50}));
}

TEST(Legality, NearReadWithinExtentParallelRejected) {
  // The same pattern with a +1 offset is the illegal near-miss.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X + 1);
  A.update(0).parallel("x");
  expectIllegal(report(A, {50}), "would race");
}

TEST(Legality, FirstElementReadParallelRejected) {
  // Weak-zero SIV: every iteration reads A(0), which iteration 0 writes.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(0);
  A.update(0).parallel("x");
  expectIllegal(report(A, {N}), "would race");
}

TEST(Legality, NonAffineSubscriptConservativelyRejected) {
  // x*x is not affine; the analyzer over-approximates to "any distance"
  // and the verifier must reject parallel execution.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X * X);
  A.update(0).parallel("x");
  expectIllegal(report(A, {N}), "would race");
}

//===----------------------------------------------------------------------===//
// 2-D anti-diagonal recurrence: order reversal
//===----------------------------------------------------------------------===//

TEST(Legality, AntiDiagonalInterchangeRejected) {
  Func F = makeShift2D();
  F.update(0).reorder({"y", "x"}); // x becomes outermost
  expectIllegal(report(F, {N, N}), "reverses a dependence");
}

TEST(Legality, AntiDiagonalDefaultOrderAccepted) {
  Func F = makeShift2D();
  F.update(0).reorder({"x", "y"}); // identity order
  expectLegal(report(F, {N, N}));
}

TEST(Legality, AntiDiagonalParallelCarrierRejected) {
  Func F = makeShift2D();
  F.update(0).parallel("y");
  expectIllegal(report(F, {N, N}), "would race");
}

//===----------------------------------------------------------------------===//
// Degenerate nests: trip-count-1 domains and negative-stride accesses
//===----------------------------------------------------------------------===//

TEST(LegalityDegenerate, ExtentOneNestScheduleAccepted) {
  // Every loop over the output collapses to one iteration; splits and
  // marks on trip-1 loops stay legal (the reduction still runs).
  Func F = makeMatmul();
  F.update(0).split("i", "it", "ii", 8);
  F.update(0).parallel("it");
  expectLegal(report(F, {1, 1}));
}

TEST(LegalityDegenerate, BackwardRecurrenceSerialAcceptedParallelRejected) {
  // A(x) += A(x + 1): the dependence distance is negative in x (each
  // iteration reads the not-yet-overwritten successor), which serial
  // order satisfies but parallel execution races.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(X);
  A(X) += A(X + 1);
  expectLegal(report(A, {N}));

  Func B("B");
  B(X) = In(X);
  B(X) += B(X + 1);
  B.update(0).parallel("x");
  expectIllegal(report(B, {N}), "would race");
}

TEST(LegalityDegenerate, ReversedInputReadParallelAccepted) {
  // Negative-stride read of a pure input carries no dependence at all:
  // any order (including parallel) is legal.
  InputBuffer In("In", ir::Type::float32(), 1);
  Var X("x");
  Func A("A");
  A(X) = In(47 - X);
  A.parallel("x");
  expectLegal(report(A, {N}));
}

//===----------------------------------------------------------------------===//
// store_nontemporal: warning, never an error
//===----------------------------------------------------------------------===//

TEST(Legality, NonTemporalOnReReadBufferWarnsOnly) {
  Func F = makeMatmul(); // the update re-reads C
  F.storeNonTemporal();
  analysis::LegalityReport R = report(F, {N, N});
  EXPECT_FALSE(R.hasErrors()) << R.message();
  EXPECT_FALSE(R.clean());
  bool FoundWarning = false;
  for (const analysis::DirectiveVerdict &V : R.Verdicts)
    if (!V.Legal && V.Sev == analysis::Severity::Warning &&
        V.Message.find("re-read") != std::string::npos)
      FoundWarning = true;
  EXPECT_TRUE(FoundWarning) << R.message();
}

//===----------------------------------------------------------------------===//
// Dependence graph surface
//===----------------------------------------------------------------------===//

TEST(Dependence, MatmulGraphMarksReductionDeps) {
  Func F = makeMatmul();
  analysis::DependenceGraph G =
      analysis::buildDependenceGraph(F, F.computeStageIndex(), {N, N});
  EXPECT_TRUE(G.Affine);
  EXPECT_TRUE(G.mayCarry("k"));
  EXPECT_FALSE(G.mayCarry("i"));
  EXPECT_NE(G.print().find("[reduction]"), std::string::npos) << G.print();
}

TEST(Dependence, RecurrenceGraphHasExactForwardDistance) {
  Func F = makeShift1D();
  analysis::DependenceGraph G =
      analysis::buildDependenceGraph(F, F.computeStageIndex(), {N});
  EXPECT_TRUE(G.mayCarry("x"));
  bool FoundExactOne = false;
  for (const analysis::Dependence &D : G.Deps) {
    auto It = D.Distance.find("x");
    if (It != D.Distance.end() && It->second.Exact &&
        *It->second.Exact == 1 && !D.Reduction)
      FoundExactOne = true;
  }
  EXPECT_TRUE(FoundExactOne) << G.print();
}

//===----------------------------------------------------------------------===//
// Verified schedule text: span-quoting rejection
//===----------------------------------------------------------------------===//

TEST(VerifiedScheduleText, IllegalDirectiveQuotedWithSpan) {
  Func F = makeMatmul();
  ErrorOr<bool> R = applyVerifiedScheduleText(
      F, F.computeStageIndex(), "split(i, it, ii, 8); parallel(k);", {N, N});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().find("offset"), std::string::npos) << R.getError();
  EXPECT_NE(R.getError().find("'parallel(k)'"), std::string::npos)
      << R.getError();
  EXPECT_NE(R.getError().find("would race"), std::string::npos)
      << R.getError();
}

TEST(VerifiedScheduleText, LegalScheduleAccepted) {
  Func F = makeMatmul();
  ErrorOr<bool> R = applyVerifiedScheduleText(
      F, F.computeStageIndex(), "split(i, it, ii, 8); parallel(it);", {N, N});
  EXPECT_TRUE(static_cast<bool>(R)) << R.getError();
}

TEST(VerifiedScheduleText, VectorizeWidthUnitMapsToBothDirectives) {
  // vectorize(x, 8) expands to split + mark; the verdict lands on the
  // mark but the quoted span must still be the whole source unit.
  Func F = makeShift1D();
  ErrorOr<bool> R = applyVerifiedScheduleText(F, F.computeStageIndex(),
                                              "vectorize(x, 8);", {N});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().find("'vectorize(x, 8)'"), std::string::npos)
      << R.getError();
}

//===----------------------------------------------------------------------===//
// Structural IR verifier
//===----------------------------------------------------------------------===//

TEST(IRVerify, LoweredMatmulIsWellFormed) {
  Func F = makeMatmul();
  ir::StmtPtr S = lowerFunc(F, {N, N});
  EXPECT_EQ(analysis::verifyIR(S), "");
}

TEST(IRVerify, FreeVariableCaught) {
  using namespace ltp::ir;
  StmtPtr Body = Store::make("A", {VarRef::make("y")}, IntImm::make(0));
  StmtPtr Loop = For::make("x", IntImm::make(0), IntImm::make(8),
                           ForKind::Serial, Body);
  std::string Error = analysis::verifyIR(Loop);
  EXPECT_NE(Error.find("'y'"), std::string::npos) << Error;
}

TEST(IRVerify, DuplicateNestedLoopNameCaught) {
  using namespace ltp::ir;
  StmtPtr Inner =
      For::make("x", IntImm::make(0), IntImm::make(4), ForKind::Serial,
                Store::make("A", {VarRef::make("x")}, IntImm::make(0)));
  StmtPtr Outer = For::make("x", IntImm::make(0), IntImm::make(4),
                            ForKind::Serial, Inner);
  std::string Error = analysis::verifyIR(Outer);
  EXPECT_NE(Error.find("duplicate"), std::string::npos) << Error;
}

TEST(IRVerify, BufferRankMismatchCaught) {
  using namespace ltp::ir;
  StmtPtr First = Store::make("A", {IntImm::make(0)}, IntImm::make(1));
  StmtPtr Second =
      Store::make("A", {IntImm::make(0), IntImm::make(1)}, IntImm::make(2));
  std::string Error = analysis::verifyIR(Block::make({First, Second}));
  EXPECT_NE(Error.find("rank"), std::string::npos) << Error;
}

} // namespace
