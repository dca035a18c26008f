//===- Harness.cpp - shared benchmark-harness utilities ------------------===//

#include "bench/Harness.h"

#include "core/TemporalOptimizer.h"
#include "obs/Log.h"
#include "obs/Telemetry.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace ltp;
using namespace ltp::bench;

namespace {
bool AutotunerLintPrune = true;
} // namespace

void ltp::bench::setAutotunerLintPrune(bool Enabled) {
  AutotunerLintPrune = Enabled;
}

const char *ltp::bench::schedulerName(Scheduler S) {
  switch (S) {
  case Scheduler::Proposed:
    return "Proposed";
  case Scheduler::ProposedNTI:
    return "Proposed+NTI";
  case Scheduler::AutoScheduler:
    return "Auto-Scheduler";
  case Scheduler::Baseline:
    return "Baseline";
  case Scheduler::Autotuner:
    return "Autotuner";
  case Scheduler::TSS:
    return "TSS";
  case Scheduler::TTS:
    return "TTS";
  }
  assert(false && "unknown scheduler");
  return "";
}

std::string ltp::bench::applyScheduler(BenchmarkInstance &Instance,
                                       Scheduler S, const ArchParams &Arch,
                                       JITCompiler *Compiler,
                                       double AutotuneBudgetSeconds,
                                       const TemporalOptions &Ablation,
                                       int AutotuneMaxCandidates,
                                       AutotuneOutcome *OutcomeOut) {
  switch (S) {
  case Scheduler::Proposed:
  case Scheduler::ProposedNTI: {
    OptimizerOptions Options;
    Options.Temporal = Ablation;
    Options.EnableNonTemporal = S == Scheduler::ProposedNTI;
    std::string Description;
    for (size_t I = 0; I != Instance.Stages.size(); ++I) {
      OptimizationResult R = optimize(
          Instance.Stages[I], Instance.StageExtents[I], Arch, Options);
      if (!Description.empty())
        Description += " | ";
      Description += R.Description;
    }
    return Description;
  }
  case Scheduler::AutoScheduler:
    for (size_t I = 0; I != Instance.Stages.size(); ++I)
      applyAutoSchedulerSchedule(Instance.Stages[I],
                                 Instance.StageExtents[I], Arch);
    return "auto-scheduler (square output tiles, single cache level)";
  case Scheduler::Baseline:
    for (size_t I = 0; I != Instance.Stages.size(); ++I)
      applyBaselineSchedule(Instance.Stages[I], Instance.StageExtents[I],
                            Arch);
    return "baseline (parallel outer, vectorized inner)";
  case Scheduler::Autotuner: {
    assert(Compiler && "the autotuner needs a JIT compiler");
    AutotuneOptions Options;
    Options.BudgetSeconds = AutotuneBudgetSeconds;
    Options.MaxCandidates = AutotuneMaxCandidates;
    Options.LintPrune = AutotunerLintPrune;
    AutotuneOutcome Outcome = autotune(Instance, *Compiler, Options);
    if (OutcomeOut)
      *OutcomeOut = Outcome;
    return strFormat(
        "autotuner: %d candidates (%d pruned statically), best %.3f ms "
        "(%s)",
        Outcome.CandidatesEvaluated, Outcome.CandidatesPruned,
        Outcome.BestSeconds * 1e3, Outcome.BestDescription.c_str());
  }
  case Scheduler::TSS:
  case Scheduler::TTS: {
    for (size_t I = 0; I != Instance.Stages.size(); ++I) {
      Func &F = Instance.Stages[I];
      F.clearSchedules();
      int ComputeStage = F.computeStageIndex();
      StageAccessInfo Info =
          analyzeStage(F, ComputeStage, Instance.StageExtents[I]);
      TemporalSchedule Sched = S == Scheduler::TSS
                                   ? optimizeTSS(Info, Arch)
                                   : optimizeTTS(Info, Arch);
      applyTemporalSchedule(F, ComputeStage, Sched, Info);
    }
    return S == Scheduler::TSS ? "TSS (prefetch-unaware L1/L2 model)"
                               : "TTS (L2/LLC model)";
  }
  }
  assert(false && "unknown scheduler");
  return "";
}

double ltp::bench::timePipeline(const BenchmarkInstance &Instance,
                                JITCompiler &Compiler, int Runs,
                                bool EnableNonTemporalCodegen) {
  CodeGenOptions Options;
  Options.EnableNonTemporal = EnableNonTemporalCodegen;
  auto Pipeline = compilePipeline(Instance, Compiler, Options);
  if (!Pipeline) {
    std::fprintf(stderr, "warning: JIT compile failed: %s\n",
                 Pipeline.getError().c_str());
    return -1.0;
  }
  // One warm-up run, then the best of the timed runs.
  Pipeline->run(Instance);
  return timeBestOf(static_cast<unsigned>(Runs),
                    [&] { Pipeline->run(Instance); });
}

double ltp::bench::timeCompiled(const CompiledPipeline &Pipeline,
                                const BenchmarkInstance &Instance,
                                int Runs) {
  return timeCompiledStats(Pipeline, Instance, Runs).BestSeconds;
}

TimingStats ltp::bench::timeCompiledStats(const CompiledPipeline &Pipeline,
                                          const BenchmarkInstance &Instance,
                                          int Runs) {
  Pipeline.run(Instance); // warm-up
  std::vector<double> Samples;
  Samples.reserve(static_cast<size_t>(std::max(1, Runs)));
  for (int I = 0; I != std::max(1, Runs); ++I) {
    Timer T;
    Pipeline.run(Instance);
    Samples.push_back(T.elapsedSeconds());
  }

  TimingStats Stats;
  Stats.Runs = static_cast<int>(Samples.size());
  Stats.BestSeconds = *std::min_element(Samples.begin(), Samples.end());
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  size_t N = Sorted.size();
  Stats.MedianSeconds = N % 2 ? Sorted[N / 2]
                              : 0.5 * (Sorted[N / 2 - 1] + Sorted[N / 2]);
  double Mean = 0.0;
  for (double S : Samples)
    Mean += S;
  Mean /= static_cast<double>(N);
  double Var = 0.0;
  for (double S : Samples)
    Var += (S - Mean) * (S - Mean);
  // Population stddev: a bench row is the whole run set, not a sample.
  Stats.StddevSeconds = std::sqrt(Var / static_cast<double>(N));
  return Stats;
}

std::string ltp::bench::formatMillis(double Seconds) {
  return Seconds < 0.0 ? "n/a" : strFormat("%.3f", Seconds * 1e3);
}

void ltp::bench::printJITStats(const JITCompiler &Compiler) {
  // The values come from the shared telemetry registry (kept in lockstep
  // with the compiler's own members); the line format is a CI contract —
  // the cold/warm disk-cache smoke greps `cc invocations : N`.
  std::printf("JIT stats        : cc invocations : %d | memo hits : %d | "
              "disk hits : %d\n",
              static_cast<int>(obs::counter("jit.cc_invocations").value()),
              static_cast<int>(obs::counter("jit.memo.hit").value()),
              static_cast<int>(obs::counter("jit.disk_hits").value()));
  std::printf("kernel cache     : %s\n", Compiler.cacheDir().c_str());
}

namespace {

/// State behind --trace-json/--json, flushed from an atexit handler so
/// every bench exit path (including early returns) writes its outputs.
struct TelemetryState {
  std::string TracePath;
  std::string ReportPath;
  std::string BenchName;
  std::string SkipReason;
  std::vector<std::string> Rows;
  bool AtExitRegistered = false;
};

TelemetryState &telemetryState() {
  static TelemetryState *State = new TelemetryState;
  return *State;
}

void flushTelemetry() {
  TelemetryState &State = telemetryState();
  if (!State.TracePath.empty()) {
    std::string Error;
    if (obs::writeTrace(State.TracePath, &Error))
      std::fprintf(stderr, "trace written: %s (%zu events)\n",
                   State.TracePath.c_str(), obs::traceEventCount());
    else
      std::fprintf(stderr, "warning: cannot write trace %s: %s\n",
                   State.TracePath.c_str(), Error.c_str());
  }
  if (State.ReportPath.empty())
    return;
  std::ofstream Out(State.ReportPath);
  Out << "{\n  \"bench\": \"" << obs::jsonEscape(State.BenchName) << "\",\n";
  if (!State.SkipReason.empty())
    Out << "  \"skipped\": \"" << obs::jsonEscape(State.SkipReason) << "\",\n";
  Out << "  \"results\": [";
  for (size_t I = 0; I != State.Rows.size(); ++I)
    Out << (I ? ",\n    " : "\n    ") << State.Rows[I];
  Out << (State.Rows.empty() ? "]" : "\n  ]") << ",\n  \"counters\": "
      << obs::renderJsonObject(obs::snapshotMetrics().Counters, "  ")
      << "\n}\n";
  Out.flush();
  if (!Out.good())
    std::fprintf(stderr, "warning: cannot write bench report %s\n",
                 State.ReportPath.c_str());
}

} // namespace

void ltp::bench::setupTelemetry(const ArgParse &Args,
                                const std::string &BenchName) {
  TelemetryState &State = telemetryState();
  State.BenchName = BenchName;
  if (Args.has("trace-json")) {
    State.TracePath = Args.getString("trace-json", "trace.json");
    if (State.TracePath.empty())
      State.TracePath = "trace.json";
    obs::setTracingEnabled(true);
  }
  if (Args.has("json")) {
    State.ReportPath = Args.getString("json", "");
    if (State.ReportPath.empty())
      State.ReportPath = "BENCH_" + BenchName + ".json";
  }
  if ((!State.TracePath.empty() || !State.ReportPath.empty()) &&
      !State.AtExitRegistered) {
    State.AtExitRegistered = true;
    std::atexit(flushTelemetry);
  }
}

void ltp::bench::reportResult(const std::string &Bench,
                              const std::string &Config,
                              const TimingStats &Stats,
                              const std::string &ExtraJson) {
  TelemetryState &State = telemetryState();
  if (State.ReportPath.empty())
    return;
  std::string Row = strFormat(
      "{\"bench\": \"%s\", \"config\": \"%s\", \"best_s\": %.9g, "
      "\"median_s\": %.9g, \"stddev_s\": %.9g, \"runs\": %d",
      obs::jsonEscape(Bench).c_str(), obs::jsonEscape(Config).c_str(),
      Stats.BestSeconds, Stats.MedianSeconds, Stats.StddevSeconds,
      Stats.Runs);
  if (!ExtraJson.empty())
    Row += ", " + ExtraJson;
  Row += "}";
  State.Rows.push_back(std::move(Row));
}

void ltp::bench::reportSkipped(const std::string &Reason) {
  telemetryState().SkipReason = Reason;
}

void ltp::bench::printTelemetryFooter() {
  std::fputs(obs::renderFooter(obs::snapshotMetrics()).c_str(), stdout);
}

int64_t ltp::bench::problemSize(const BenchmarkDef &Def,
                                const ArgParse &Args) {
  if (Args.has("paper"))
    return Def.PaperSize;
  double Scale = Args.getDouble("scale", 1.0);
  int64_t Size = static_cast<int64_t>(
      static_cast<double>(Def.DefaultSize) * Scale);
  return std::max<int64_t>(16, Size);
}

int ltp::bench::timedRuns(const ArgParse &Args, int Default) {
  return static_cast<int>(Args.getInt("runs", Default));
}

ArchParams ltp::bench::archFromArgs(const ArgParse &Args) {
  ErrorOr<ArchParams> Named = archByName(Args.getString("arch", "5930k"));
  if (!Named) {
    std::fprintf(stderr, "error: %s\n", Named.getError().c_str());
    std::exit(1);
  }
  return *Named;
}

void ltp::bench::printHeader(const char *Title, const ArchParams &Arch) {
  // Line-buffer stdout so long-running benches stream their rows even
  // when piped to a file.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("== %s ==\n", Title);
  std::printf("modeled platform : %s\n", describe(Arch).c_str());
  std::printf("host platform    : %s\n", describe(detectHost()).c_str());
  std::printf("JIT              : %s\n\n",
              jitAvailable() ? "available" : "UNAVAILABLE (times skipped)");
}

void ltp::bench::printRow(const std::vector<std::string> &Cells,
                          const std::vector<int> &Widths) {
  assert(Cells.size() == Widths.size() && "cell/width count mismatch");
  std::string Line;
  for (size_t I = 0; I != Cells.size(); ++I) {
    Line += padRight(Cells[I], static_cast<unsigned>(Widths[I]));
    Line += "  ";
  }
  std::printf("%s\n", Line.c_str());
}
