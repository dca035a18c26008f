//===- extended_suite.cpp - generality check beyond the paper's kernels ----===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Runs Proposed(+NTI) / Auto-Scheduler / Baseline over the extended
// kernels (atax, bicg, mvt, gemver, jacobi2d) — not a paper figure, but
// evidence the optimization flow generalizes past the 12 kernels it was
// tuned on: 1-D reductions, mixed multi-stage pipelines and the stencil
// (NoTransform) classification.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <cstdio>

using namespace ltp;
using namespace ltp::bench;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "extended_suite");
  ArchParams Arch = archFromArgs(Args);
  printHeader("Extended suite: kernels beyond Table 4", Arch);

  const int Runs = timedRuns(Args, 3);
  JITCompiler Compiler;
  std::vector<int> Widths = {10, 15, 12, 10, 44};
  printRow({"benchmark", "scheduler", "time(ms)", "rel-tput", "schedule"},
           Widths);

  const std::vector<Scheduler> Schedulers = {Scheduler::ProposedNTI,
                                             Scheduler::AutoScheduler,
                                             Scheduler::Baseline};
  for (const BenchmarkDef &Def : extendedBenchmarks()) {
    int64_t Size = problemSize(Def, Args);
    struct Row {
      Scheduler S;
      double Seconds;
      std::string Description;
    };
    std::vector<Row> Rows;
    double Best = -1.0;
    for (Scheduler S : Schedulers) {
      BenchmarkInstance Instance = Def.Create(Size);
      std::string Description =
          applyScheduler(Instance, S, Arch, &Compiler);
      double Seconds =
          jitAvailable() ? timePipeline(Instance, Compiler, Runs) : -1.0;
      if (Seconds > 0.0 && (Best < 0.0 || Seconds < Best))
        Best = Seconds;
      Rows.push_back({S, Seconds, Description});
    }
    for (const Row &R : Rows)
      printRow(
          {Def.Name, schedulerName(R.S),
           R.Seconds > 0.0 ? strFormat("%.2f", R.Seconds * 1e3) : "n/a",
           R.Seconds > 0.0 && Best > 0.0
               ? strFormat("%.3f", Best / R.Seconds)
               : "n/a",
           R.Description.substr(0, 44)},
          Widths);
    std::printf("\n");
  }
  return 0;
}
