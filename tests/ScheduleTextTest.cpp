//===- ScheduleTextTest.cpp - schedule (de)serialization tests -------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"

#include <gtest/gtest.h>

using namespace ltp;

namespace {

TEST(ScheduleTextTest, RoundTripPreservesSemantics) {
  // Optimize, print the schedule, re-apply it to a fresh instance, and
  // check the results (and the reprinted text) match.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance A = Def->Create(32);
  optimize(A.Stages[0], A.StageExtents[0], intelI7_6700());
  int Stage = A.Stages[0].numUpdates() - 1;
  std::string Text = printSchedule(A.Stages[0], Stage);
  EXPECT_FALSE(Text.empty());

  BenchmarkInstance B = Def->Create(32);
  B.Stages[0].clearSchedules();
  auto Applied = applyScheduleText(B.Stages[0], Stage, Text);
  ASSERT_TRUE(static_cast<bool>(Applied)) << Applied.getError();
  EXPECT_EQ(printSchedule(B.Stages[0], Stage), Text);

  ASSERT_EQ(runInterpreted(B), "");
  EXPECT_TRUE(verifyOutput(B));
}

TEST(ScheduleTextTest, ParsesListingThreeStyle) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance I = Def->Create(48);
  I.Stages[0].clearSchedules();
  auto R = applyScheduleText(
      I.Stages[0], 0,
      "split(j, j_o, j_i, 12); split(i, i_o, i_i, 8);\n"
      "reorder(j_i, i_i, j_o, i_o); vectorize(j_i); parallel(i_o);");
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError();
  ASSERT_EQ(runInterpreted(I), "");
  EXPECT_TRUE(verifyOutput(I));
}

TEST(ScheduleTextTest, StoreNonTemporalDirective) {
  const BenchmarkDef *Def = findBenchmark("copy");
  BenchmarkInstance I = Def->Create(64);
  I.Stages[0].clearSchedules();
  auto R = applyScheduleText(I.Stages[0], -1,
                             "vectorize(x); store_nontemporal;");
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError();
  EXPECT_TRUE(I.Stages[0].isStoreNonTemporal());
  std::string Text = printSchedule(I.Stages[0], -1);
  EXPECT_NE(Text.find("store_nontemporal"), std::string::npos);
}

TEST(ScheduleTextTest, UnrollJamRoundTrip) {
  // unroll_jam survives print -> parse -> print unchanged and the
  // re-applied schedule still computes the right answer.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance A = Def->Create(48);
  int Stage = A.Stages[0].numUpdates() - 1;
  A.Stages[0].clearSchedules();
  auto R = applyScheduleText(A.Stages[0], Stage,
                             "vectorize(j, 8); unroll_jam(i, 4);");
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError();
  std::string Text = printSchedule(A.Stages[0], Stage);
  EXPECT_NE(Text.find("unroll_jam(i, 4)"), std::string::npos);

  BenchmarkInstance B = Def->Create(48);
  B.Stages[0].clearSchedules();
  auto Applied = applyScheduleText(B.Stages[0], Stage, Text);
  ASSERT_TRUE(static_cast<bool>(Applied)) << Applied.getError();
  EXPECT_EQ(printSchedule(B.Stages[0], Stage), Text);

  ASSERT_EQ(runInterpreted(B), "");
  EXPECT_TRUE(verifyOutput(B));
}

TEST(ScheduleTextTest, UnrollJamRejectsMalformedInput) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance I = Def->Create(48);
  int Stage = I.Stages[0].numUpdates() - 1;
  I.Stages[0].clearSchedules();

  // Wrong arity.
  auto R1 = applyScheduleText(I.Stages[0], Stage, "unroll_jam(i)");
  EXPECT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.getError().find("unroll_jam"), std::string::npos);

  // Factor must be an integer greater than one.
  auto R2 = applyScheduleText(I.Stages[0], Stage, "unroll_jam(i, 1)");
  EXPECT_FALSE(static_cast<bool>(R2));
  auto R3 = applyScheduleText(I.Stages[0], Stage, "unroll_jam(i, four)");
  EXPECT_FALSE(static_cast<bool>(R3));
  auto R4 = applyScheduleText(I.Stages[0], Stage, "unroll_jam(i, 4x)");
  EXPECT_FALSE(static_cast<bool>(R4));

  // The jammed loop must exist in the stage's nest. The parser accepts
  // any name; the legality verifier's replay rejects it, as for the other
  // directives.
  I.Stages[0].clearSchedules();
  auto R5 = applyVerifiedScheduleText(I.Stages[0], Stage, "unroll_jam(zz, 4)",
                                      I.StageExtents[0]);
  ASSERT_FALSE(static_cast<bool>(R5));
  EXPECT_NE(R5.getError().find("unknown loop 'zz'"), std::string::npos)
      << R5.getError();

  // The split names unroll_jam introduces must not collide with loops
  // that already exist.
  I.Stages[0].clearSchedules();
  auto R6 = applyVerifiedScheduleText(I.Stages[0], Stage,
                                      "split(j, i_ujo, j_i, 8); "
                                      "unroll_jam(i, 4)",
                                      I.StageExtents[0]);
  ASSERT_FALSE(static_cast<bool>(R6));
  EXPECT_NE(R6.getError().find("'unroll_jam(i, 4)': loop name 'i_ujo' "
                               "already in use"),
            std::string::npos)
      << R6.getError();
}

TEST(ScheduleTextTest, ErrorsAreReported) {
  const BenchmarkDef *Def = findBenchmark("copy");
  BenchmarkInstance I = Def->Create(64);
  I.Stages[0].clearSchedules();

  auto R1 = applyScheduleText(I.Stages[0], -1, "split(x, a, b)");
  EXPECT_FALSE(static_cast<bool>(R1));
  EXPECT_NE(R1.getError().find("split"), std::string::npos);

  auto R2 = applyScheduleText(I.Stages[0], -1, "frobnicate(x)");
  EXPECT_FALSE(static_cast<bool>(R2));
  EXPECT_NE(R2.getError().find("frobnicate"), std::string::npos);

  auto R3 = applyScheduleText(I.Stages[0], -1, "split(x, a, b, -4)");
  EXPECT_FALSE(static_cast<bool>(R3));
}

TEST(ScheduleTextTest, SplitWithOneNameTwiceIsAnError) {
  // split(i, io, io, 4) used to reach Stage::split's "split names must
  // differ" assert; it is an ordinary schedule error, and nothing is
  // applied.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance I = Def->Create(64);
  Func &F = I.Stages[0];
  F.clearSchedules();
  int Stage = F.computeStageIndex();
  auto R = applyScheduleText(F, Stage, "split(i, io, io, 4);");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().find("split names must differ"), std::string::npos)
      << R.getError();
  EXPECT_EQ(printSchedule(F, Stage), "");
}

TEST(ScheduleTextTest, EmptyAndWhitespaceOnly) {
  const BenchmarkDef *Def = findBenchmark("copy");
  BenchmarkInstance I = Def->Create(64);
  I.Stages[0].clearSchedules();
  auto R = applyScheduleText(I.Stages[0], -1, "  \n ;;  ");
  EXPECT_TRUE(static_cast<bool>(R)) << R.getError();
  EXPECT_EQ(printSchedule(I.Stages[0], -1), "");
}

TEST(ScheduleTextTest, ValidateScheduleNames) {
  // Every name a directive references must exist when it applies, and a
  // split must not introduce a name in use. The legality verifier's replay
  // checks both; the verified applier quotes the offending unit.
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance I = Def->Create(32);
  Func &F = I.Stages[0];
  int Stage = F.numUpdates() - 1;
  auto Verified = [&](const std::string &Text) {
    F.clearSchedules();
    return applyVerifiedScheduleText(F, Stage, Text, I.StageExtents[0]);
  };

  auto Valid = Verified("split(i, i_t, i_i, 8); parallel(i_t); "
                        "reorder(j, k, i_i, i_t);");
  EXPECT_TRUE(static_cast<bool>(Valid)) << Valid.getError();

  auto Unknown = Verified("parallel(zebra);");
  ASSERT_FALSE(static_cast<bool>(Unknown));
  EXPECT_NE(Unknown.getError().find("'parallel(zebra)': unknown loop "
                                    "'zebra'"),
            std::string::npos)
      << Unknown.getError();

  auto Gone = Verified("split(i, a, b, 4); reorder(i);");
  ASSERT_FALSE(static_cast<bool>(Gone));
  EXPECT_NE(Gone.getError().find("'reorder(i)': unknown loop 'i'"),
            std::string::npos)
      << "i no longer exists after being split: " << Gone.getError();

  auto Clash = Verified("split(i, j, b, 4);");
  ASSERT_FALSE(static_cast<bool>(Clash));
  EXPECT_NE(Clash.getError().find("loop name 'j' already in use"),
            std::string::npos)
      << Clash.getError();
}

} // namespace
