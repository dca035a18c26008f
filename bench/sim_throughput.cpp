//===- sim_throughput.cpp - simulator trace-engine throughput -------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Measures the cache simulator's trace throughput (simulated accesses per
// second) for both trace engines — the compiled access-program fast path
// and the interpreter-hook path on the bytecode VM — verifying on the way
// that they produce identical statistics. Emits a JSON array so CI can
// track the speedup; see EXPERIMENTS.md ("Simulator throughput"). Exits 1
// when any row's statistics differ.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <chrono>
#include <cstdio>

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

bool statsIdentical(const HierarchyStats &A, const HierarchyStats &B) {
  auto Level = [](const CacheLevelStats &X, const CacheLevelStats &Y) {
    return X.DemandHits == Y.DemandHits && X.DemandMisses == Y.DemandMisses &&
           X.PrefetchFills == Y.PrefetchFills &&
           X.PrefetchHits == Y.PrefetchHits && X.Evictions == Y.Evictions;
  };
  return Level(A.L1, B.L1) && Level(A.L2, B.L2) && Level(A.L3, B.L3) &&
         A.MemoryAccesses == B.MemoryAccesses &&
         A.PrefetchMemoryFills == B.PrefetchMemoryFills &&
         A.Writebacks == B.Writebacks &&
         A.NonTemporalStores == B.NonTemporalStores &&
         A.NonTemporalLines == B.NonTemporalLines &&
         A.PrefetchIssuedL1 == B.PrefetchIssuedL1 &&
         A.PrefetchIssuedL2 == B.PrefetchIssuedL2;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "sim_throughput");
  ArchParams Arch = intelI7_6700();
  const int Runs = timedRuns(Args, 3);
  int64_t Size = Args.getInt("size", 96);
  printHeader("Simulator throughput: compiled fast path vs interpreter",
              Arch);

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
  };

  std::vector<int> Widths = {18, 12, 12, 12, 10, 10};
  printRow({"kernel", "accesses", "fast(M/s)", "vm(M/s)", "fast/vm",
            "identical"},
           Widths);

  JITCompiler Compiler;
  bool AllIdentical = true;
  std::string Json = "[";
  for (size_t C = 0; C != Cases.size(); ++C) {
    const Case &K = Cases[C];
    const BenchmarkDef *Def = findBenchmark(K.Benchmark);
    BenchmarkInstance Instance = Def->Create(Size);
    if (K.Schedule)
      applyScheduler(Instance, K.Sched, Arch, &Compiler);
    std::vector<ir::StmtPtr> Lowered = lowerPipeline(Instance);

    SimResult Fast, Interp;
    double FastSeconds = bestSeconds(Runs, [&] {
      Fast = simulate(Lowered, Instance.Buffers, Arch, LatencyModel(),
                      SimEngine::Auto);
    });
    double InterpSeconds = bestSeconds(Runs, [&] {
      Interp = simulate(Lowered, Instance.Buffers, Arch, LatencyModel(),
                        SimEngine::Interpreter);
    });

    bool Identical = statsIdentical(Fast.Stats, Interp.Stats) &&
                     Fast.Accesses == Interp.Accesses;
    AllIdentical = AllIdentical && Identical;
    double FastRate = static_cast<double>(Fast.Accesses) / FastSeconds;
    double InterpRate =
        static_cast<double>(Interp.Accesses) / InterpSeconds;
    double FastSpeedup = FastRate / InterpRate;

    printRow({K.Name,
              strFormat("%llu", static_cast<unsigned long long>(
                                    Interp.Accesses)),
              strFormat("%.1f", FastRate / 1e6),
              strFormat("%.1f", InterpRate / 1e6),
              strFormat("%.1fx", FastSpeedup), Identical ? "yes" : "NO"},
             Widths);

    Json += strFormat(
        "%s{\"kernel\":\"%s\",\"accesses\":%llu,"
        "\"fast_engine\":\"%s\",\"interp_engine\":\"%s\","
        "\"fast_accesses_per_sec\":%.0f,\"vm_accesses_per_sec\":%.0f,"
        "\"speedup\":%.2f,\"stats_identical\":%s}",
        C == 0 ? "" : ",", K.Name,
        static_cast<unsigned long long>(Interp.Accesses),
        traceEngineName(Fast.Engine), traceEngineName(Interp.Engine),
        FastRate, InterpRate, FastSpeedup, Identical ? "true" : "false");
  }
  Json += "]";
  // Engine selection now lands in the registry (sim.engine.* counters);
  // the per-kernel engines remain in the JSON blob below.
  std::printf("\n");
  printTelemetryFooter();
  std::printf("\n%s\n", Json.c_str());
  return AllIdentical ? 0 : 1;
}
