//===- table5_opt_runtime.cpp - Table 5: optimizer runtime ----------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Regenerates Table 5: the wall-clock runtime of the optimizer itself on
// each benchmark at the paper's problem sizes. The paper reports
// millisecond-scale runtimes with convlayer the slow outlier (7.6 s)
// because of its deep loop nest; the same shape is expected here.
//
// Under --json each row carries the per-phase breakdown (classify /
// temporal / spatial milliseconds) and the search's work counts for one
// pass: `candidates` (tile candidates scored, the `opt.candidates`
// delta) and `bound_calls` (Algorithm-1 emulations, the
// `model.bound.emulated` delta). The counts are deterministic, so CI
// gates them exactly against the committed baseline: 30185 candidates
// and 186 bound calls in total (two emulations per column-tile
// candidate of a temporal stage, e.g. 18 for matmul; 9 for tp/tpm).
// The whole suite takes ~5 ms on a 4-vCPU x86-64 host.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "obs/Metrics.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cstdio>
#include <map>

using namespace ltp;
using namespace ltp::bench;

namespace {

const std::map<std::string, double> &paperRuntimesSeconds() {
  static const std::map<std::string, double> Times = {
      {"convlayer", 7.604}, {"doitgen", 0.153}, {"matmul", 0.006},
      {"3mm", 0.006},       {"gemm", 0.006},    {"trmm", 0.005},
      {"syrk", 0.009},      {"syr2k", 0.012},   {"tpm", 0.002},
      {"tp", 0.002},        {"copy", 0.002},    {"mask", 0.002},
  };
  return Times;
}

/// One optimizer run over every stage of a fresh shape-only instance.
/// Returns total seconds, the per-phase breakdown and the run's counter
/// deltas.
struct OptRun {
  double Seconds = 0.0;
  double ClassifyMs = 0.0;
  double TemporalMs = 0.0;
  double SpatialMs = 0.0;
  int64_t Candidates = 0;
  int64_t BoundCalls = 0;
  std::string Class;
};

OptRun runOptimizer(const BenchmarkDef &Def, int64_t Size,
                    const ArchParams &Arch) {
  static obs::Counter &Candidates = obs::counter("opt.candidates");
  static obs::Counter &BoundCalls = obs::counter("model.bound.emulated");
  BenchmarkInstance Instance = Def.Shape(Size);
  OptRun Run;
  const int64_t CandidatesBefore = Candidates.value();
  const int64_t BoundCallsBefore = BoundCalls.value();
  Timer T;
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    OptimizationResult R =
        optimize(Instance.Stages[S], Instance.StageExtents[S], Arch);
    Run.ClassifyMs += R.ClassifyMillis;
    Run.TemporalMs += R.TemporalMillis;
    Run.SpatialMs += R.SpatialMillis;
    Run.Class = statementClassName(R.Class.Kind);
  }
  Run.Seconds = T.elapsedSeconds();
  Run.Candidates = Candidates.value() - CandidatesBefore;
  Run.BoundCalls = BoundCalls.value() - BoundCallsBefore;
  return Run;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "table5_opt_runtime");
  ArchParams Arch = archFromArgs(Args);
  const int Runs = timedRuns(Args, 3);
  printHeader("Table 5: optimizer runtime per benchmark", Arch);

  std::vector<int> Widths = {10, 8, 12, 11, 12, 10, 40};
  printRow({"benchmark", "size", "time(s)", "candidates", "bound calls",
            "paper(s)", "class"},
           Widths);

  OptRun Total;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    // Table 5 uses the paper's problem sizes unless overridden: the
    // optimizer runtime depends on the loop extents, not on data.
    int64_t Size =
        Args.has("default-sizes") ? Def.DefaultSize : Def.PaperSize;

    // Best-of-N; the best run's phase breakdown feeds the JSON report.
    // The counter deltas are identical on every run.
    OptRun Best;
    for (int R = 0; R != Runs; ++R) {
      OptRun Run = runOptimizer(Def, Size, Arch);
      if (R == 0 || Run.Seconds < Best.Seconds)
        Best = Run;
    }
    Total.Seconds += Best.Seconds;
    Total.Candidates += Best.Candidates;
    Total.BoundCalls += Best.BoundCalls;

    printRow({Def.Name, strFormat("%lld", static_cast<long long>(Size)),
              strFormat("%.4f", Best.Seconds),
              strFormat("%lld", static_cast<long long>(Best.Candidates)),
              strFormat("%lld", static_cast<long long>(Best.BoundCalls)),
              strFormat("%.3f", paperRuntimesSeconds().at(Def.Name)),
              Best.Class},
             Widths);

    TimingStats Stats;
    Stats.BestSeconds = Best.Seconds;
    Stats.Runs = Runs;
    reportResult(Def.Name, "optimizer", Stats,
                 strFormat("\"classify_ms\":%.4f,\"temporal_ms\":%.4f,"
                           "\"spatial_ms\":%.4f,\"candidates\":%lld,"
                           "\"bound_calls\":%lld",
                           Best.ClassifyMs, Best.TemporalMs, Best.SpatialMs,
                           static_cast<long long>(Best.Candidates),
                           static_cast<long long>(Best.BoundCalls)));
  }

  std::printf("\ntotal: %.4f s, %lld candidates, %lld bound calls\n",
              Total.Seconds, static_cast<long long>(Total.Candidates),
              static_cast<long long>(Total.BoundCalls));
  {
    TimingStats Stats;
    Stats.BestSeconds = Total.Seconds;
    Stats.Runs = Runs;
    reportResult("total", "optimizer", Stats,
                 strFormat("\"candidates\":%lld,\"bound_calls\":%lld",
                           static_cast<long long>(Total.Candidates),
                           static_cast<long long>(Total.BoundCalls)));
  }
  printTelemetryFooter();
  return 0;
}
