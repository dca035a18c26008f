//===- fig6_nti.cpp - Figure 6: effect of non-temporal stores -------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Regenerates Figure 6: throughput of Proposed+NTI and the Auto-Scheduler
// relative to the proposed schedule *without* NTI, on the four streaming
// kernels (tpm, tp, copy, mask) where the classifier detects no output
// reuse. The paper reports NTI gains up to ~1.5x from the removed
// read-for-ownership traffic and reduced cache pollution; the same
// direction is expected in both the wall-clock and simulator columns
// (the simulator reports DRAM line transfers, which NTI cuts by about
// one third on copy-like kernels).
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <cstdio>

using namespace ltp;
using namespace ltp::bench;

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "fig6");
  ArchParams Arch = archFromArgs(Args);
  printHeader("Figure 6: non-temporal store effect (relative to "
              "Proposed without NTI)",
              Arch);

  const int Runs = timedRuns(Args, 3);
  JITCompiler Compiler;
  std::vector<int> Widths = {10, 15, 12, 10, 14, 12};
  printRow({"benchmark", "scheduler", "time(ms)", "rel-tput", "dram-lines",
            "sim-rel"},
           Widths);

  const std::vector<Scheduler> Schedulers = {
      Scheduler::Proposed, Scheduler::ProposedNTI,
      Scheduler::AutoScheduler};

  for (const char *Name : {"tpm", "tp", "copy", "mask"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    int64_t Size = problemSize(*Def, Args);
    int64_t SimSize = std::min<int64_t>(Size, 512);

    double BaseSeconds = -1.0, BaseCycles = -1.0;
    struct Row {
      Scheduler S;
      double Seconds;
      uint64_t DramLines;
      double Cycles;
    };
    std::vector<Row> Rows;
    for (Scheduler S : Schedulers) {
      BenchmarkInstance Instance = Def->Create(Size);
      applyScheduler(Instance, S, Arch, &Compiler);
      double Seconds =
          jitAvailable() ? timePipeline(Instance, Compiler, Runs) : -1.0;

      BenchmarkInstance SimInstance = Def->Create(SimSize);
      applyScheduler(SimInstance, S, Arch, &Compiler);
      ErrorOr<SimResult> Sim = simulatePipeline(SimInstance, Arch);
      if (!Sim) {
        std::fprintf(stderr, "error: %s\n", Sim.getError().c_str());
        return 1;
      }

      Rows.push_back({S, Seconds, Sim->Stats.memoryTraffic(),
                      Sim->EstimatedCycles});
      if (S == Scheduler::Proposed) {
        BaseSeconds = Seconds;
        BaseCycles = Sim->EstimatedCycles;
      }
    }
    for (const Row &R : Rows) {
      printRow(
          {Name, schedulerName(R.S),
           R.Seconds > 0.0 ? strFormat("%.2f", R.Seconds * 1e3) : "n/a",
           R.Seconds > 0.0 && BaseSeconds > 0.0
               ? strFormat("%.3f", BaseSeconds / R.Seconds)
               : "n/a",
           strFormat("%llu", static_cast<unsigned long long>(R.DramLines)),
           BaseCycles > 0.0 ? strFormat("%.3f", BaseCycles / R.Cycles)
                            : "n/a"},
          Widths);
    }
    std::printf("\n");
  }
  return 0;
}
