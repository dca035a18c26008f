//===- ablation_model.cpp - ablations of the model's design choices -------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Isolates the design choices the paper motivates but does not measure
// separately (DESIGN.md, "Ablation benches"):
//   (a) prefetch-aware vs prefetch-unaware miss model (Eqs. 3/8),
//   (b) the L2 effective-set halving in Algorithm 1,
//   (c) the Corder reorder step (Eq. 12),
//   (d) the Eq. 13 parallelism constraint.
// Each variant reschedules matmul and doitgen; reported are wall-clock
// time (JIT) and simulated misses under the modeled platform.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "cachesim/AccessProgram.h"
#include "lang/Lower.h"
#include "support/Format.h"

#include <cstdio>
#include <deque>

using namespace ltp;
using namespace ltp::bench;

namespace {

struct Variant {
  const char *Name;
  TemporalOptions Options;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out;
  Out.push_back({"full-model", {}});
  TemporalOptions A;
  A.PrefetchUnawareModel = true;
  Out.push_back({"no-prefetch-model", A});
  TemporalOptions B;
  B.NoL2SetHalving = true;
  Out.push_back({"no-L2-halving", B});
  TemporalOptions C;
  C.SkipReorderStep = true;
  Out.push_back({"no-reorder-step", C});
  TemporalOptions D;
  D.IgnoreParallelConstraint = true;
  Out.push_back({"no-eq13", D});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "ablation_model");
  ArchParams Arch = archFromArgs(Args);
  printHeader("Ablation: model components on matmul and doitgen", Arch);

  const int Runs = timedRuns(Args, 2);
  JITCompiler Compiler;
  std::vector<int> Widths = {10, 18, 12, 12, 12, 40};
  printRow({"benchmark", "variant", "time(ms)", "sim-L1miss", "sim-dram",
            "schedule"},
           Widths);

  // Schedule + JIT timing run serially (both mutate shared state); the
  // per-variant simulations batch into one simulateMany fan-out.
  struct PendingRow {
    const char *Benchmark;
    const char *Variant;
    double Seconds;
    std::string Description;
  };
  std::vector<PendingRow> Pending;
  std::deque<BenchmarkInstance> SimInstances;
  std::vector<PipelineSimJob> Jobs;
  for (const char *Name : {"matmul", "doitgen"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    int64_t Size = problemSize(*Def, Args);
    int64_t SimSize = std::string(Name) == "doitgen" ? 32 : 96;

    for (const Variant &V : variants()) {
      BenchmarkInstance Instance = Def->Create(Size);
      std::string Description = applyScheduler(
          Instance, Scheduler::Proposed, Arch, &Compiler, 1.0, V.Options);
      double Seconds =
          jitAvailable() ? timePipeline(Instance, Compiler, Runs) : -1.0;

      SimInstances.push_back(Def->Create(SimSize));
      applyScheduler(SimInstances.back(), Scheduler::Proposed, Arch,
                     &Compiler, 1.0, V.Options);
      Jobs.push_back({&SimInstances.back(), Arch});
      Pending.push_back({Name, V.Name, Seconds, std::move(Description)});
    }
  }
  std::vector<ErrorOr<SimResult>> Sims = simulatePipelines(Jobs);
  for (const ErrorOr<SimResult> &Sim : Sims)
    if (!Sim) {
      std::fprintf(stderr, "error: %s\n", Sim.getError().c_str());
      return 1;
    }
  for (size_t I = 0; I != Pending.size(); ++I) {
    const PendingRow &Row = Pending[I];
    const SimResult &Sim = *Sims[I];
    printRow({Row.Benchmark, Row.Variant,
              Row.Seconds > 0.0 ? strFormat("%.2f", Row.Seconds * 1e3)
                                : "n/a",
              strFormat("%llu", static_cast<unsigned long long>(
                                    Sim.Stats.L1.DemandMisses)),
              strFormat("%llu", static_cast<unsigned long long>(
                                    Sim.Stats.memoryTraffic())),
              Row.Description.substr(0, 40)},
             Widths);
    if (Row.Variant == std::string("no-eq13"))
      std::printf("\n");
  }

  // Replacement-policy sensitivity: the model assumes LRU-like behaviour;
  // tree-PLRU (what real L1s implement) should not change the miss
  // profile of the chosen schedule much — if it did, the tile bounds
  // would be fragile.
  std::printf("replacement-policy sensitivity (matmul, proposed "
              "schedule):\n");
  for (ReplacementPolicy Policy :
       {ReplacementPolicy::LRU, ReplacementPolicy::TreePLRU}) {
    const BenchmarkDef *Def = findBenchmark("matmul");
    BenchmarkInstance SimInstance = Def->Create(96);
    applyScheduler(SimInstance, Scheduler::Proposed, Arch, &Compiler, 1.0);
    ErrorOr<AccessProgram> Program =
        compileAccessProgram(lowerPipeline(SimInstance), SimInstance.Buffers);
    if (!Program) {
      std::fprintf(stderr, "error: %s\n", Program.getError().c_str());
      return 1;
    }
    MemoryHierarchy Hierarchy(Arch, Policy);
    Program->run(Hierarchy);
    HierarchyStats Stats = Hierarchy.stats();
    std::printf("  %-9s L1 misses %8llu   L2 misses %8llu   dram %8llu\n",
                Policy == ReplacementPolicy::LRU ? "LRU" : "tree-PLRU",
                static_cast<unsigned long long>(Stats.L1.DemandMisses),
                static_cast<unsigned long long>(Stats.L2.DemandMisses),
                static_cast<unsigned long long>(Stats.memoryTraffic()));
  }
  return 0;
}
