//===- fig4_comparison.cpp - Figure 4: scheduler comparison ---------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Regenerates Figure 4 of the paper: relative throughput (1/s, normalized
// to the fastest implementation) of Proposed / Proposed+NTI /
// Auto-Scheduler / Baseline / Autotuner over the 12 benchmarks, for a
// Table-3 platform configuration (--arch=5930k|6700|a15|host; an unknown
// name exits 1).
//
// Wall-clock runs execute on the host through the JIT; pass --sim to also
// evaluate each schedule on the cache simulator configured with the
// modeled platform (reduced sizes; see EXPERIMENTS.md).
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <cstdio>

using namespace ltp;
using namespace ltp::bench;

namespace {

int64_t simSize(const std::string &Name) {
  if (Name == "convlayer")
    return 16;
  if (Name == "doitgen")
    return 32;
  if (Name == "tp" || Name == "tpm" || Name == "copy" || Name == "mask")
    return 512;
  return 96;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  ArchParams Arch = archFromArgs(Args);
  setupTelemetry(Args, "fig4");
  setAutotunerLintPrune(!Args.has("no-lint-prune"));
  printHeader("Figure 4: relative throughput vs fastest", Arch);

  const std::vector<Scheduler> Schedulers = {
      Scheduler::Proposed, Scheduler::ProposedNTI, Scheduler::AutoScheduler,
      Scheduler::Baseline, Scheduler::Autotuner};
  const int Runs = timedRuns(Args, 2);
  const double Budget = Args.getDouble("autotune-budget", 5.0);
  const int Candidates =
      static_cast<int>(Args.getInt("autotune-candidates", 0));
  const std::string Only = Args.getString("bench", "");
  const bool Sim = Args.has("sim");
  const bool Verify = Args.has("verify");

  JITCompiler Compiler;
  AutotuneOutcome TunerTotals;
  std::vector<int> Widths = {10, 15, 12, 14, 10, 10, 40};
  printRow({"benchmark", "scheduler", "best(ms)", "median(sd)", "rel-tput",
            Sim ? "sim-cyc" : "", "schedule"},
           Widths);

  for (const BenchmarkDef &Def : allBenchmarks()) {
    if (!Only.empty() && Only != Def.Name)
      continue;
    int64_t Size = problemSize(Def, Args);

    struct Row {
      Scheduler S;
      BenchmarkInstance Instance;
      TimingStats Stats;
      double SimCycles = -1.0;
      std::string Description;
      bool Applicable = true;
    };
    std::vector<Row> Rows;

    // Pass 1: schedule every configuration. The rows must all exist
    // before compile jobs are made — the jobs point at the instances'
    // buffer maps.
    for (Scheduler S : Schedulers) {
      Row R;
      R.S = S;
      R.Instance = Def.Create(Size);
      AutotuneOutcome Outcome;
      R.Description = applyScheduler(R.Instance, S, Arch, &Compiler,
                                     Budget, {}, Candidates, &Outcome);
      TunerTotals.CandidatesEvaluated += Outcome.CandidatesEvaluated;
      TunerTotals.CandidatesFailed += Outcome.CandidatesFailed;
      TunerTotals.CandidatesPruned += Outcome.CandidatesPruned;
      TunerTotals.CandidatesLintPruned += Outcome.CandidatesLintPruned;

      // Proposed+NTI only differs when the classifier enables streaming
      // stores; report it once, on the kernels it applies to.
      if (S == Scheduler::ProposedNTI &&
          !R.Instance.Stages.back().isStoreNonTemporal())
        R.Applicable = false;
      Rows.push_back(std::move(R));
    }

    // Pass 2: batch-compile every applicable configuration in one
    // compileMany call (cold kernels overlap on the thread pool; warm
    // reruns load everything from the disk cache), then time.
    if (jitAvailable()) {
      std::vector<PipelineCompileJob> Jobs;
      std::vector<size_t> JobRows;
      for (size_t I = 0; I != Rows.size(); ++I)
        if (Rows[I].Applicable) {
          Jobs.push_back(makeCompileJob(Rows[I].Instance));
          JobRows.push_back(I);
        }
      std::vector<ErrorOr<CompiledPipeline>> Compiled =
          compilePipelines(Jobs, Compiler);
      for (size_t J = 0; J != Jobs.size(); ++J) {
        if (!Compiled[J]) {
          std::fprintf(stderr, "warning: JIT compile failed: %s\n",
                       Compiled[J].getError().c_str());
          continue;
        }
        Rows[JobRows[J]].Stats =
            timeCompiledStats(*Compiled[J], Rows[JobRows[J]].Instance, Runs);
      }
    }

    for (Row &R : Rows) {
      if (!R.Applicable)
        continue;
      if (Verify) {
        // Verify on a small replica: the interpreter is the oracle and
        // far too slow for bench-sized problems.
        BenchmarkInstance Small = Def.Create(simSize(Def.Name) / 2);
        applyScheduler(Small, R.S, Arch, &Compiler, 1.0, {}, Candidates);
        std::string Error = runInterpreted(Small);
        if (!Error.empty())
          std::printf("!! VERIFY FAILED: %s / %s: %s\n", Def.Name.c_str(),
                      schedulerName(R.S), Error.c_str());
        else if (!verifyOutput(Small))
          std::printf("!! VERIFY FAILED: %s / %s\n", Def.Name.c_str(),
                      schedulerName(R.S));
      }
      if (Sim) {
        BenchmarkInstance SimInstance = Def.Create(simSize(Def.Name));
        applyScheduler(SimInstance, R.S, Arch, &Compiler, 1.0, {},
                       Candidates);
        ErrorOr<SimResult> SimR = simulatePipeline(SimInstance, Arch);
        if (!SimR) {
          std::fprintf(stderr, "error: %s\n", SimR.getError().c_str());
          return 1;
        }
        R.SimCycles = SimR->EstimatedCycles;
      }
    }

    double BestSeconds = -1.0;
    for (const Row &R : Rows)
      if (R.Applicable && R.Stats.BestSeconds > 0.0 &&
          (BestSeconds < 0.0 || R.Stats.BestSeconds < BestSeconds))
        BestSeconds = R.Stats.BestSeconds;

    for (const Row &R : Rows) {
      if (!R.Applicable) {
        printRow({Def.Name, schedulerName(R.S), "-", "-", "-",
                  Sim ? "-" : "", "(NTI not applicable)"},
                 Widths);
        continue;
      }
      double Seconds = R.Stats.BestSeconds;
      std::string TimeText =
          Seconds > 0.0 ? strFormat("%.2f", Seconds * 1e3) : "n/a";
      std::string SpreadText =
          Seconds > 0.0
              ? strFormat("%.2f (%.2f)", R.Stats.MedianSeconds * 1e3,
                          R.Stats.StddevSeconds * 1e3)
              : "n/a";
      std::string RelText =
          Seconds > 0.0 && BestSeconds > 0.0
              ? strFormat("%.3f", BestSeconds / Seconds)
              : "n/a";
      std::string SimText =
          Sim ? (R.SimCycles > 0.0 ? strFormat("%.3g", R.SimCycles) : "n/a")
              : "";
      printRow({Def.Name, schedulerName(R.S), TimeText, SpreadText, RelText,
                SimText, R.Description.substr(0, 60)},
               Widths);
      std::string Extra = strFormat("\"size\": %lld",
                                    static_cast<long long>(Size));
      if (Sim && R.SimCycles > 0.0)
        Extra += strFormat(", \"sim_cycles\": %.9g", R.SimCycles);
      reportResult(Def.Name, schedulerName(R.S), R.Stats, Extra);
    }
    std::printf("\n");
  }
  std::printf("autotuner stats  : %d candidates evaluated | %d pruned "
              "statically | %d lint-pruned | %d failed to compile\n",
              TunerTotals.CandidatesEvaluated, TunerTotals.CandidatesPruned,
              TunerTotals.CandidatesLintPruned,
              TunerTotals.CandidatesFailed);
  printJITStats(Compiler);
  printTelemetryFooter();
  return 0;
}
