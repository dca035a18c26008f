//===- ltp-bench-diff.cpp - BENCH_*.json regression gate ------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Compares a bench's machine-readable report (--json output) against a
// committed baseline and exits nonzero when any row regresses beyond the
// threshold. Rows are matched by (bench, config); the compared metric
// defaults to best_s (lower is better) and can be any numeric field of
// the row, including a dotted path into nested objects (serve_load's
// `latency.p99`). For cross-machine CI gates prefer a host-independent
// metric, such as table5's deterministic `candidates` count, gated
// exactly with --threshold 0.
//
//   ltp-bench-diff baseline.json current.json --metric candidates --threshold 0
//
// A report whose top level carries a "skipped" marker (perf_event or JIT
// unavailable — see bench/Harness.h reportSkipped) compares as empty and
// passes: an environment skip is not a regression. Rows present in only
// one of the two files are reported but do not fail the gate.
//
//===----------------------------------------------------------------------===//

#include "obs/JsonCheck.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using ltp::obs::JsonValue;
using ltp::obs::parseJson;

namespace {

struct Options {
  std::string BaselinePath;
  std::string CurrentPath;
  std::string Metric = "best_s";
  double Threshold = 0.2;
  bool HigherBetter = false;
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <baseline.json> <current.json> [--metric NAME]\n"
      "          [--threshold FRAC] [--higher-better]\n"
      "\n"
      "Fails (exit 1) when any (bench, config) row's metric regresses\n"
      "by more than FRAC (default 0.2 = 20%%) relative to the baseline;\n"
      "FRAC 0 fails on any regression (exact gates on deterministic\n"
      "counts). Lower is better by default; --higher-better inverts the\n"
      "sense.\n",
      Argv0);
}

/// Loads one report; exits with a diagnostic on unreadable/malformed
/// input. Returns null only for reports marked "skipped".
std::unique_ptr<JsonValue> loadReport(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "ltp-bench-diff: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  std::unique_ptr<JsonValue> Root = parseJson(Buf.str(), &Error);
  if (!Root || !Root->isObject()) {
    std::fprintf(stderr, "ltp-bench-diff: %s: %s\n", Path.c_str(),
                 Error.empty() ? "not a JSON object" : Error.c_str());
    std::exit(2);
  }
  if (const JsonValue *Skip = Root->find("skipped")) {
    std::printf("%s: skipped (%s) — nothing to compare\n", Path.c_str(),
                Skip->isString() ? Skip->StringValue.c_str() : "?");
    return nullptr;
  }
  return Root;
}

/// Resolves \p Metric against \p Row, descending through nested objects
/// at each '.' ("latency.p99" -> Row["latency"]["p99"]). A plain name
/// with no dots is a direct member lookup, so field names containing
/// dots keep working when no nested object shadows them.
const JsonValue *findMetric(const JsonValue &Row, const std::string &Metric) {
  if (const JsonValue *Direct = Row.find(Metric))
    return Direct;
  const JsonValue *Node = &Row;
  size_t Start = 0;
  while (Node) {
    size_t Dot = Metric.find('.', Start);
    if (Dot == std::string::npos)
      return Node->find(Metric.substr(Start));
    Node = Node->find(Metric.substr(Start, Dot - Start));
    Start = Dot + 1;
  }
  return nullptr;
}

/// (bench, config) -> metric value for every row carrying the metric as
/// a non-negative number (timing fields are negative when unavailable).
std::map<std::string, double> indexRows(const JsonValue &Root,
                                        const std::string &Metric) {
  std::map<std::string, double> Out;
  const JsonValue *Results = Root.find("results");
  if (!Results || !Results->isArray())
    return Out;
  for (const JsonValue &Row : Results->Elements) {
    const JsonValue *Bench = Row.find("bench");
    const JsonValue *Config = Row.find("config");
    const JsonValue *Value = findMetric(Row, Metric);
    if (!Bench || !Bench->isString() || !Config || !Config->isString() ||
        !Value || !Value->isNumber() || Value->NumberValue < 0.0)
      continue;
    Out[Bench->StringValue + "/" + Config->StringValue] =
        Value->NumberValue;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--metric" && I + 1 < Argc) {
      Opts.Metric = Argv[++I];
    } else if (Arg == "--threshold" && I + 1 < Argc) {
      Opts.Threshold = std::atof(Argv[++I]);
    } else if (Arg == "--higher-better") {
      Opts.HigherBetter = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "ltp-bench-diff: unknown option %s\n",
                   Arg.c_str());
      usage(Argv[0]);
      return 2;
    } else if (Opts.BaselinePath.empty()) {
      Opts.BaselinePath = Arg;
    } else if (Opts.CurrentPath.empty()) {
      Opts.CurrentPath = Arg;
    } else {
      usage(Argv[0]);
      return 2;
    }
  }
  if (Opts.CurrentPath.empty() || Opts.Threshold < 0.0) {
    usage(Argv[0]);
    return 2;
  }

  std::unique_ptr<JsonValue> Baseline = loadReport(Opts.BaselinePath);
  std::unique_ptr<JsonValue> Current = loadReport(Opts.CurrentPath);
  if (!Baseline || !Current)
    return 0; // environment skip on either side: nothing to gate

  std::map<std::string, double> Base = indexRows(*Baseline, Opts.Metric);
  std::map<std::string, double> Cur = indexRows(*Current, Opts.Metric);
  if (Base.empty()) {
    std::fprintf(stderr,
                 "ltp-bench-diff: baseline %s has no rows with metric "
                 "'%s' — wrong --metric or stale baseline?\n",
                 Opts.BaselinePath.c_str(), Opts.Metric.c_str());
    return 2;
  }

  int Regressions = 0;
  int Compared = 0;
  for (const auto &[Key, BaseValue] : Base) {
    auto It = Cur.find(Key);
    if (It == Cur.end()) {
      std::printf("  missing  %-28s (in baseline only)\n", Key.c_str());
      continue;
    }
    ++Compared;
    double CurValue = It->second;
    // Relative change in the "worse" direction; negative = improved. From
    // a zero baseline any move is an infinite relative change; negative
    // baselines are not-measured sentinels (-1) and never gate.
    double Worse = Opts.HigherBetter ? BaseValue - CurValue
                                     : CurValue - BaseValue;
    double Regress = 0.0;
    if (BaseValue > 0.0)
      Regress = Worse / BaseValue;
    else if (BaseValue == 0.0 && Worse != 0.0)
      Regress = std::copysign(HUGE_VAL, Worse);
    bool Bad = Regress > Opts.Threshold;
    std::printf("  %-8s %-28s %s: %.6g -> %.6g (%+.1f%%)\n",
                Bad ? "REGRESS" : (Regress < 0.0 ? "improve" : "ok"),
                Key.c_str(), Opts.Metric.c_str(), BaseValue, CurValue,
                (Opts.HigherBetter ? -Regress : Regress) * 100.0);
    if (Bad)
      ++Regressions;
  }
  for (const auto &[Key, Value] : Cur)
    if (!Base.count(Key))
      std::printf("  new      %-28s %s: %.6g\n", Key.c_str(),
                  Opts.Metric.c_str(), Value);

  if (Compared == 0) {
    std::fprintf(stderr, "ltp-bench-diff: no comparable rows\n");
    return 2;
  }
  if (Regressions) {
    std::fprintf(stderr,
                 "ltp-bench-diff: %d row(s) regressed more than %.0f%% "
                 "on '%s'\n",
                 Regressions, Opts.Threshold * 100.0,
                 Opts.Metric.c_str());
    return 1;
  }
  std::printf("ltp-bench-diff: %d row(s) within %.0f%% of baseline\n",
              Compared, Opts.Threshold * 100.0);
  return 0;
}
