//===- LintTest.cpp - static diagnostics pass tests -----------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Corpus tests for the lint pass: every rule fires on the seeded
// anti-pattern corpus (tools/lint-corpus.tsv) at its pinned source span,
// every fix-it rewrites the text into a legal, diagnostic-clean schedule
// through applyVerifiedScheduleText, and the schedules the optimizer
// itself chooses lint clean on every benchmark kernel.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "arch/ArchFile.h"
#include "benchmarks/Benchmarks.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ltp;

namespace {


struct CorpusRow {
  std::string Kernel;
  int64_t Size = 0;
  std::string Rule;
  size_t Offset = 0;
  size_t Length = 0;
  std::string Schedule;
};

/// Parses tools/lint-corpus.tsv (the same file the CI lint-corpus step
/// greps): tab-separated kernel/size/rule/offset/length/schedule rows,
/// '#' comments.
std::vector<CorpusRow> loadCorpus() {
  std::ifstream In(LTP_LINT_CORPUS);
  EXPECT_TRUE(In.good()) << "cannot open " << LTP_LINT_CORPUS;
  std::vector<CorpusRow> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    CorpusRow Row;
    std::string Size, Offset, Length;
    bool Parsed = static_cast<bool>(std::getline(Fields, Row.Kernel, '\t')) &&
                  static_cast<bool>(std::getline(Fields, Size, '\t')) &&
                  static_cast<bool>(std::getline(Fields, Row.Rule, '\t')) &&
                  static_cast<bool>(std::getline(Fields, Offset, '\t')) &&
                  static_cast<bool>(std::getline(Fields, Length, '\t')) &&
                  static_cast<bool>(std::getline(Fields, Row.Schedule));
    EXPECT_TRUE(Parsed) << "malformed corpus row: " << Line;
    if (!Parsed)
      continue;
    Row.Size = std::stoll(Size);
    Row.Offset = static_cast<size_t>(std::stoull(Offset));
    Row.Length = static_cast<size_t>(std::stoull(Length));
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

lint::LintReport lintOn(const CorpusRow &Row, const ArchParams &Arch) {
  const BenchmarkDef *Def = findBenchmark(Row.Kernel);
  EXPECT_NE(Def, nullptr) << Row.Kernel;
  BenchmarkInstance Instance = Def->Create(Row.Size);
  Func &F = Instance.Stages.back();
  return lint::lintScheduleText(F, F.computeStageIndex(), Row.Schedule,
                                Instance.StageExtents.back(), Arch);
}

} // namespace

TEST(LintCorpus, EveryRuleFiresAtItsPinnedSpan) {
  const ArchParams Arch = intelI7_6700();
  std::vector<CorpusRow> Rows = loadCorpus();
  ASSERT_GE(Rows.size(), 9u) << "at least one corpus row per rule";

  std::set<std::string> RulesSeen;
  for (const CorpusRow &Row : Rows) {
    lint::LintReport Report = lintOn(Row, Arch);
    const lint::Diagnostic *Found = nullptr;
    for (const lint::Diagnostic &D : Report.Diagnostics)
      if (D.RuleId == Row.Rule) {
        Found = &D;
        break;
      }
    ASSERT_NE(Found, nullptr)
        << Row.Kernel << " size " << Row.Size << ": rule " << Row.Rule
        << " did not fire on '" << Row.Schedule << "'; report:\n"
        << Report.message();
    EXPECT_EQ(Found->Offset, Row.Offset) << Row.Rule << ": " << Found->Message;
    EXPECT_EQ(Found->Length, Row.Length) << Row.Rule << ": " << Found->Message;
    EXPECT_TRUE(Found->HasFixIt) << Row.Rule;
    RulesSeen.insert(Row.Rule);
  }
  EXPECT_EQ(RulesSeen.size(), 9u) << "the corpus covers every rule";
}

TEST(LintCorpus, FixItsRoundTripToCleanLegalSchedules) {
  const ArchParams Arch = intelI7_6700();
  for (const CorpusRow &Row : loadCorpus()) {
    const BenchmarkDef *Def = findBenchmark(Row.Kernel);
    ASSERT_NE(Def, nullptr);

    // Iterate fix-up to a fixed point: one rewrite can expose a new
    // finding (appending a reorder shadows the one it overrides).
    std::string Text = Row.Schedule;
    for (int Round = 0; Round != 5; ++Round) {
      BenchmarkInstance Instance = Def->Create(Row.Size);
      Func &F = Instance.Stages.back();
      lint::LintReport Report =
          lint::lintScheduleText(F, F.computeStageIndex(), Text,
                                 Instance.StageExtents.back(), Arch);
      if (Report.clean())
        break;
      std::string Fixed = lint::applyLintFixes(Report);
      if (Fixed == Text)
        break;
      Text = Fixed;
    }

    // The fixed text must be legal (the verified applier accepts it)
    // and diagnostic-free.
    BenchmarkInstance Instance = Def->Create(Row.Size);
    Func &F = Instance.Stages.back();
    auto Applied = applyVerifiedScheduleText(F, F.computeStageIndex(), Text,
                                             Instance.StageExtents.back());
    EXPECT_TRUE(static_cast<bool>(Applied))
        << Row.Rule << ": fixed schedule '" << Text
        << "' rejected: " << Applied.getError();
    lint::LintReport Final =
        lint::lintScheduleText(F, F.computeStageIndex(), Text,
                               Instance.StageExtents.back(), Arch);
    EXPECT_TRUE(Final.clean())
        << Row.Rule << ": fixed schedule '" << Text
        << "' still has findings:\n"
        << Final.message();
  }
}

TEST(LintChosen, OptimizerSchedulesLintCleanOnEveryKernel) {
  const ArchParams Arch = intelI7_6700();
  for (const BenchmarkDef &Def : allBenchmarks()) {
    BenchmarkInstance Instance = Def.Create(Def.DefaultSize);
    for (size_t S = 0; S != Instance.Stages.size(); ++S) {
      Func &F = Instance.Stages[S];
      optimize(F, Instance.StageExtents[S], Arch);
      lint::LintReport Report = lint::lintStageSchedule(
          F, F.computeStageIndex(), Instance.StageExtents[S], Arch);
      EXPECT_TRUE(Report.clean())
          << Def.Name << " stage " << S << " chose '" << Report.ScheduleText
          << "' which lints dirty:\n"
          << Report.message();
    }
  }
}

TEST(LintReportApi, SeverityPartitionAndJsonShape) {
  const ArchParams Arch = intelI7_6700();
  const BenchmarkDef *Def = findBenchmark("matmul");
  ASSERT_NE(Def, nullptr);
  BenchmarkInstance Instance = Def->Create(48);
  Func &F = Instance.Stages.back();

  lint::LintReport Errors =
      lint::lintScheduleText(F, F.computeStageIndex(), "reorder(i, j, k);",
                             Instance.StageExtents.back(), Arch);
  ASSERT_FALSE(Errors.clean());
  EXPECT_TRUE(Errors.hasErrors());
  EXPECT_NE(Errors.message().find("strided-innermost"), std::string::npos);
  EXPECT_STREQ(lint::severityName(Errors.Diagnostics[0].Sev), "error");

  // Fixed field order: scripts match rule + span with one substring.
  std::string Json = lint::diagnosticJson(Errors.Diagnostics[0], 3);
  EXPECT_EQ(Json.find("{\"stage\": 3, \"rule\": \"strided-innermost\", "
                      "\"severity\": \"error\", \"offset\": 0, "
                      "\"length\": 16"),
            0u)
      << Json;
  EXPECT_NE(Json.find("\"fixit\": {"), std::string::npos) << Json;

  lint::LintReport Warns =
      lint::lintScheduleText(F, F.computeStageIndex(),
                             "reorder(k, j, i); reorder(j, i, k);",
                             Instance.StageExtents.back(), Arch);
  ASSERT_FALSE(Warns.clean());
  EXPECT_FALSE(Warns.hasErrors()); // shadowed-reorder is only a warning
  EXPECT_STREQ(lint::severityName(Warns.Diagnostics[0].Sev), "warning");

  // Unparseable text degrades to a single parse-error diagnostic.
  lint::LintReport Broken =
      lint::lintScheduleText(F, F.computeStageIndex(), "split(i",
                             Instance.StageExtents.back(), Arch);
  ASSERT_EQ(Broken.Diagnostics.size(), 1u);
  EXPECT_EQ(Broken.Diagnostics[0].RuleId, "parse-error");
  EXPECT_TRUE(Broken.hasErrors());

  lint::LintReport Unknown =
      lint::lintScheduleText(F, F.computeStageIndex(), "parallel(zz);",
                             Instance.StageExtents.back(), Arch);
  ASSERT_EQ(Unknown.Diagnostics.size(), 1u);
  EXPECT_TRUE(Unknown.hasErrors());
}

TEST(LintInvalidSchedule, EachStructuralErrorIsOneError) {
  // Text that parses but does not replay (the legality verifier stops at
  // the directive) lints as a single invalid-schedule Error over the whole
  // text, carrying the verifier's message; no rule runs on a partial nest.
  const ArchParams Arch = intelI7_6700();
  const BenchmarkDef *Def = findBenchmark("matmul");
  ASSERT_NE(Def, nullptr);
  struct Case {
    const char *Text;
    const char *Message;
  };
  const Case Cases[] = {
      {"parallel(zebra);", "parallel(zebra): unknown loop 'zebra'"},
      {"split(i, j, b, 4);",
       "split(i, j, b, 4): loop name 'j' already in use"},
      {"split(j, i_ujo, j_i, 8); unroll_jam(i, 4);",
       "unroll_jam(i, 4): loop name 'i_ujo' already in use"},
      // matmul's nest is j, i, k innermost first: k and j are not
      // adjacent.
      {"fuse(k, j, kj);",
       "fuse(k, j, kj): loops 'k' and 'j' must be adjacent with 'k' "
       "outermost"},
  };
  for (const Case &C : Cases) {
    BenchmarkInstance Instance = Def->Create(48);
    Func &F = Instance.Stages.back();
    lint::LintReport Report =
        lint::lintScheduleText(F, F.computeStageIndex(), C.Text,
                               Instance.StageExtents.back(), Arch);
    ASSERT_EQ(Report.Diagnostics.size(), 1u) << C.Text << "\n"
                                             << Report.message();
    const lint::Diagnostic &D = Report.Diagnostics[0];
    EXPECT_EQ(D.RuleId, "invalid-schedule") << C.Text;
    EXPECT_EQ(D.Sev, analysis::Severity::Error) << C.Text;
    EXPECT_EQ(D.Offset, 0u) << C.Text;
    EXPECT_EQ(D.Length, std::string(C.Text).size()) << C.Text;
    EXPECT_EQ(D.Message, C.Message);
    EXPECT_FALSE(D.HasFixIt) << C.Text;
  }
}

TEST(LintDegenerate, OversizedSplitAndTinyNestsDoNotCrash) {
  const ArchParams Arch = intelI7_6700();
  const BenchmarkDef *Def = findBenchmark("matmul");
  ASSERT_NE(Def, nullptr);

  // A split factor beyond the extent leaves a trip-count-1 outer loop;
  // the replay clamps rather than divides by zero, and the trip-1 dim
  // never becomes a reuse pivot.
  BenchmarkInstance Instance = Def->Create(48);
  Func &F = Instance.Stages.back();
  lint::LintReport Clamped =
      lint::lintScheduleText(F, F.computeStageIndex(),
                             "split(i, i_t, i_i, 64);",
                             Instance.StageExtents.back(), Arch);
  EXPECT_FALSE(Clamped.hasErrors()) << Clamped.message();

  // Tiny problem sizes collapse every loop under SmallLoopExtent: no
  // pivots exist, so the tile and streamer rules must stay silent.
  BenchmarkInstance Tiny = Def->Create(4);
  Func &TF = Tiny.Stages.back();
  lint::LintReport TinyReport = lint::lintStageSchedule(
      TF, TF.computeStageIndex(), Tiny.StageExtents.back(), Arch);
  EXPECT_TRUE(TinyReport.clean()) << TinyReport.message();
}

TEST(LintStride, NegativeStrideIsNotUnitStride) {
  const ArchParams Arch = intelI7_6700();
  const int64_t N = 48;

  // S(j) += In(k) * W(j), reduction k rotated innermost: In streams
  // forward along k, so the nest has a unit-stride access and is clean.
  auto MakeSum = [&](bool Reversed) {
    InputBuffer In("In", ir::Type::float32(), 1);
    InputBuffer W("W", ir::Type::float32(), 1);
    Var J("j");
    RDom K(0, 64, "k");
    Func S("S");
    S(J) = 0.0f;
    if (Reversed)
      S(J) += In(63 - K) * W(J); // walks In backwards
    else
      S(J) += In(K) * W(J);
    return S;
  };

  Func Fwd = MakeSum(false);
  lint::LintReport FwdReport =
      lint::lintScheduleText(Fwd, Fwd.computeStageIndex(), "reorder(k, j);",
                             {N}, Arch);
  EXPECT_FALSE(FwdReport.hasErrors()) << FwdReport.message();

  // The reversed walk has stride -1: the adjacent-line prefetcher only
  // tracks ascending streams, so it must NOT count as unit-stride and
  // strided-innermost fires on the same schedule.
  Func Rev = MakeSum(true);
  lint::LintReport RevReport =
      lint::lintScheduleText(Rev, Rev.computeStageIndex(), "reorder(k, j);",
                             {N}, Arch);
  bool Fired = false;
  for (const lint::Diagnostic &D : RevReport.Diagnostics)
    Fired |= D.RuleId == "strided-innermost";
  EXPECT_TRUE(Fired) << RevReport.message();
}
