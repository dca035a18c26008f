//===- ScheduleText.cpp - schedule (de)serialization ----------------------===//

#include "lang/ScheduleText.h"

#include "analysis/Legality.h"
#include "support/Format.h"

#include <cassert>
#include <cctype>
#include <cstdlib>

using namespace ltp;

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string ltp::printSchedule(const Func &F, int StageIndex) {
  const Definition &Def = StageIndex < 0 ? F.pureDefinition()
                                         : F.updateDefinition(StageIndex);
  std::vector<std::string> Parts;
  for (const ScheduleDirective &Directive : Def.Schedule.Directives) {
    if (const auto *S = std::get_if<SplitDirective>(&Directive)) {
      Parts.push_back(strFormat("split(%s, %s, %s, %lld)", S->Old.c_str(),
                                S->Outer.c_str(), S->Inner.c_str(),
                                static_cast<long long>(S->Factor)));
    } else if (const auto *Fu = std::get_if<FuseDirective>(&Directive)) {
      Parts.push_back(strFormat("fuse(%s, %s, %s)", Fu->Outer.c_str(),
                                Fu->Inner.c_str(), Fu->Fused.c_str()));
    } else if (const auto *R = std::get_if<ReorderDirective>(&Directive)) {
      Parts.push_back("reorder(" + join(R->InnermostFirst, ", ") + ")");
    } else if (const auto *M = std::get_if<MarkDirective>(&Directive)) {
      const char *Name = M->Mark == MarkDirective::Kind::Parallel
                             ? "parallel"
                         : M->Mark == MarkDirective::Kind::Vectorize
                             ? "vectorize"
                             : "unroll";
      Parts.push_back(strFormat("%s(%s)", Name, M->Name.c_str()));
    } else if (const auto *U = std::get_if<UnrollJamDirective>(&Directive)) {
      Parts.push_back(strFormat("unroll_jam(%s, %lld)", U->Name.c_str(),
                                static_cast<long long>(U->Factor)));
    } else {
      assert(false && "unknown schedule directive");
    }
  }
  if (F.isStoreNonTemporal())
    Parts.push_back("store_nontemporal");
  std::string Out = join(Parts, "; ");
  if (!Out.empty())
    Out += ";";
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

/// Minimal recursive-descent tokenizer over `name(arg, ...)`; sequences.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  /// Parses one `name` or `name(args...)` unit; returns false at the end
  /// of input. On success fills \p Name and \p Args.
  bool next(std::string &Name, std::vector<std::string> &Args,
            std::string &Error) {
    skipSpace();
    while (Pos < Text.size() && Text[Pos] == ';') {
      ++Pos;
      skipSpace();
    }
    if (Pos >= Text.size())
      return false;
    UnitStart = Pos;
    Name = ident();
    if (Name.empty()) {
      Error = strFormat("expected directive name at offset %zu", Pos);
      return false;
    }
    Args.clear();
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '(') {
      ++Pos;
      for (;;) {
        skipSpace();
        std::string Arg = ident();
        if (Arg.empty()) {
          Error = strFormat("expected argument at offset %zu in %s()", Pos,
                            Name.c_str());
          return false;
        }
        Args.push_back(Arg);
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ')') {
          ++Pos;
          break;
        }
        Error = strFormat("expected ',' or ')' at offset %zu", Pos);
        return false;
      }
    }
    UnitEnd = Pos;
    return true;
  }

  bool failed() const { return !ErrorText.empty(); }

  /// Source range of the unit most recently returned by next().
  size_t UnitStart = 0;
  size_t UnitEnd = 0;

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  /// Identifiers cover loop names and integer literals.
  std::string ident() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '-'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string ErrorText;
};

} // namespace

ErrorOr<bool> ltp::applyScheduleText(Func &F, int StageIndex,
                                     const std::string &Text,
                                     std::vector<ScheduleSpan> *Spans) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);
  const Definition &Def = StageIndex < 0 ? F.pureDefinition()
                                         : F.updateDefinition(StageIndex);
  Parser P(Text);
  std::string Name;
  std::vector<std::string> Args;
  std::string Error;
  size_t DirectivesBefore = Def.Schedule.Directives.size();
  auto RecordSpan = [&]() {
    size_t After = Def.Schedule.Directives.size();
    if (Spans)
      Spans->push_back({P.UnitStart, P.UnitEnd - P.UnitStart,
                        static_cast<int>(DirectivesBefore),
                        static_cast<int>(After) - 1});
    DirectivesBefore = After;
  };
  while (P.next(Name, Args, Error)) {
    if (Name == "split") {
      if (Args.size() != 4)
        return ErrorOr<bool>::makeError("split expects 4 arguments");
      char *End = nullptr;
      long Factor = std::strtol(Args[3].c_str(), &End, 10);
      if (*End != '\0' || Factor <= 0)
        return ErrorOr<bool>::makeError("split factor must be a positive "
                                        "integer, got '" +
                                        Args[3] + "'");
      if (Args[1] == Args[2])
        return ErrorOr<bool>::makeError("split names must differ, got '" +
                                        Args[1] + "' twice");
      S.split(Args[0], Args[1], Args[2], Factor);
    } else if (Name == "fuse") {
      if (Args.size() != 3)
        return ErrorOr<bool>::makeError("fuse expects 3 arguments");
      S.fuse(Args[0], Args[1], Args[2]);
    } else if (Name == "reorder") {
      if (Args.empty())
        return ErrorOr<bool>::makeError("reorder expects at least 1 "
                                        "argument");
      std::vector<VarName> Order;
      for (const std::string &Arg : Args)
        Order.push_back(Arg);
      S.reorder(Order);
    } else if (Name == "parallel") {
      if (Args.size() != 1)
        return ErrorOr<bool>::makeError("parallel expects 1 argument");
      S.parallel(Args[0]);
    } else if (Name == "vectorize") {
      if (Args.size() == 1) {
        S.vectorize(Args[0]);
      } else if (Args.size() == 2) {
        char *End = nullptr;
        long Width = std::strtol(Args[1].c_str(), &End, 10);
        if (*End != '\0' || Width <= 1)
          return ErrorOr<bool>::makeError(
              "vectorize width must be an integer > 1");
        S.vectorize(Args[0], static_cast<int>(Width));
      } else {
        return ErrorOr<bool>::makeError("vectorize expects 1 or 2 "
                                        "arguments");
      }
    } else if (Name == "unroll") {
      if (Args.size() != 1)
        return ErrorOr<bool>::makeError("unroll expects 1 argument");
      S.unroll(Args[0]);
    } else if (Name == "unroll_jam") {
      if (Args.size() != 2)
        return ErrorOr<bool>::makeError("unroll_jam expects 2 arguments");
      char *End = nullptr;
      long Factor = std::strtol(Args[1].c_str(), &End, 10);
      if (*End != '\0' || Factor <= 1)
        return ErrorOr<bool>::makeError(
            "unroll_jam factor must be an integer > 1, got '" + Args[1] +
            "'");
      S.unrollJam(Args[0], Factor);
    } else if (Name == "store_nontemporal") {
      if (!Args.empty())
        return ErrorOr<bool>::makeError(
            "store_nontemporal takes no arguments");
      F.storeNonTemporal();
    } else {
      return ErrorOr<bool>::makeError("unknown directive '" + Name + "'");
    }
    RecordSpan();
  }
  if (!Error.empty())
    return ErrorOr<bool>::makeError(Error);
  return true;
}

ErrorOr<bool>
ltp::applyVerifiedScheduleText(Func &F, int StageIndex, const std::string &Text,
                               const std::vector<int64_t> &OutputExtents,
                               analysis::LegalityReport *Verified) {
  std::vector<ScheduleSpan> Spans;
  ErrorOr<bool> Applied = applyScheduleText(F, StageIndex, Text, &Spans);
  if (!Applied)
    return Applied;
  analysis::LegalityReport Report =
      analysis::verifyStageSchedule(F, StageIndex, OutputExtents);
  if (!Report.hasErrors()) {
    if (Verified)
      *Verified = std::move(Report);
    return true;
  }
  for (const analysis::DirectiveVerdict &V : Report.Verdicts) {
    if (V.Legal || V.Sev != analysis::Severity::Error)
      continue;
    for (const ScheduleSpan &Span : Spans) {
      if (V.Index >= Span.FirstDirective && V.Index <= Span.LastDirective)
        return ErrorOr<bool>::makeError(strFormat(
            "illegal schedule at offset %zu: '%s': %s", Span.Offset,
            Text.substr(Span.Offset, Span.Length).c_str(), V.Message.c_str()));
    }
    // A verdict on a directive applied before this text (or a structural
    // verdict with no directive index) has no span to quote.
    return ErrorOr<bool>::makeError("illegal schedule: " + V.Message);
  }
  return ErrorOr<bool>::makeError("illegal schedule: " + Report.message());
}
