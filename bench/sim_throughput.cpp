//===- sim_throughput.cpp - simulator trace throughput --------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Measures the cache simulator's trace throughput (simulated accesses per
// second) of the access program, the simulator's trace engine. Emits a
// JSON array so CI can track it; see EXPERIMENTS.md ("Simulator
// throughput"). Exits 1 when a row's program is refused.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <optional>

using namespace ltp;
using namespace ltp::bench;

namespace {

double bestSeconds(int Runs, const std::function<void()> &Fn) {
  double Best = -1.0;
  for (int R = 0; R != Runs; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    double S = std::chrono::duration<double>(T1 - T0).count();
    if (Best < 0.0 || S < Best)
      Best = S;
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "sim_throughput");
  ArchParams Arch = intelI7_6700();
  const int Runs = timedRuns(Args, 3);
  int64_t Size = Args.getInt("size", 96);
  printHeader("Simulator throughput: access program", Arch);

  struct Case {
    const char *Name;
    const char *Benchmark;
    Scheduler Sched;
    bool Schedule;
  };
  const std::vector<Case> Cases = {
      {"matmul-seed", "matmul", Scheduler::Baseline, false},
      {"matmul-proposed", "matmul", Scheduler::Proposed, true},
      {"doitgen-seed", "doitgen", Scheduler::Baseline, false},
      {"copy-nti", "copy", Scheduler::ProposedNTI, true},
      {"trmm-proposed", "trmm", Scheduler::Proposed, true},
  };

  std::vector<int> Widths = {18, 12, 12, 10};
  printRow({"kernel", "accesses", "M/s", "seconds"}, Widths);

  JITCompiler Compiler;
  bool AllSimulated = true;
  std::string Json = "[";
  for (size_t C = 0; C != Cases.size(); ++C) {
    const Case &K = Cases[C];
    const BenchmarkDef *Def = findBenchmark(K.Benchmark);
    BenchmarkInstance Instance = Def->Create(Size);
    if (K.Schedule)
      applyScheduler(Instance, K.Sched, Arch, &Compiler);
    std::vector<ir::StmtPtr> Lowered = lowerPipeline(Instance);

    std::optional<ErrorOr<SimResult>> Sim;
    double Seconds = bestSeconds(
        Runs, [&] { Sim = simulate(Lowered, Instance.Buffers, Arch); });
    if (!*Sim) {
      std::printf("%s: %s\n", K.Name, Sim->getError().c_str());
      AllSimulated = false;
      continue;
    }
    uint64_t Accesses = (*Sim)->Accesses;
    double Rate = static_cast<double>(Accesses) / Seconds;
    printRow({K.Name,
              strFormat("%llu", static_cast<unsigned long long>(Accesses)),
              strFormat("%.1f", Rate / 1e6), strFormat("%.4f", Seconds)},
             Widths);
    Json += strFormat("%s{\"kernel\":\"%s\",\"accesses\":%llu,"
                      "\"accesses_per_sec\":%.0f}",
                      Json.size() == 1 ? "" : ",", K.Name,
                      static_cast<unsigned long long>(Accesses), Rate);
  }
  Json += "]";
  std::printf("\n");
  printTelemetryFooter();
  std::printf("\n%s\n", Json.c_str());
  return AllSimulated ? 0 : 1;
}
