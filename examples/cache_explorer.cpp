//===- cache_explorer.cpp - inspecting schedules with the simulator -------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Uses the trace-driven cache simulator to look inside two matmul
// schedules — the developer baseline and the proposed prefetch-aware
// tiling — on a platform we do not have (the paper's i7-6700
// configuration), and compares the analytical model's L1 miss estimate
// (Eq. 5) against the simulator's measured misses for the proposed
// schedule.
//
//   ./build/examples/cache_explorer [N]
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "model/NestScorer.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace ltp;

namespace {

void report(const char *Label, const SimResult &Sim) {
  std::printf("%-10s  L1 miss %6.2f%%  L2 miss %6.2f%%  "
              "L1-pref-hits %8llu  dram lines %8llu  est cycles %.4g\n",
              Label, 100.0 * Sim.Stats.L1.missRate(),
              100.0 * Sim.Stats.L2.missRate(),
              static_cast<unsigned long long>(Sim.Stats.L1.PrefetchHits),
              static_cast<unsigned long long>(Sim.Stats.memoryTraffic()),
              Sim.EstimatedCycles);
}

} // namespace

int main(int Argc, char **Argv) {
  const int64_t N = Argc > 1 ? std::atoll(Argv[1]) : 96;
  // Scale the caches with the (trace-simulation-sized) problem so the
  // problem:cache ratio matches a paper-sized run; see EXPERIMENTS.md.
  ArchParams Arch = intelI7_6700();
  Arch.L1.SizeBytes /= 4;
  Arch.L2.SizeBytes /= 4;
  Arch.L3.SizeBytes /= 4;
  std::printf("cache explorer: %lld^3 matmul on a 1:4-scaled %s "
              "configuration\n\n",
              static_cast<long long>(N), Arch.Name.c_str());

  const BenchmarkDef *Def = findBenchmark("matmul");

  // Baseline schedule.
  BenchmarkInstance Baseline = Def->Create(N);
  applyBaselineSchedule(Baseline.Stages[0], Baseline.StageExtents[0],
                        Arch);
  ErrorOr<SimResult> BaselineSim = simulatePipeline(Baseline, Arch);
  if (!BaselineSim) {
    std::fprintf(stderr, "error: %s\n", BaselineSim.getError().c_str());
    return 1;
  }
  report("baseline", *BaselineSim);

  // Proposed schedule.
  BenchmarkInstance Proposed = Def->Create(N);
  OptimizationResult R =
      optimize(Proposed.Stages[0], Proposed.StageExtents[0], Arch);
  ErrorOr<SimResult> ProposedSim = simulatePipeline(Proposed, Arch);
  if (!ProposedSim) {
    std::fprintf(stderr, "error: %s\n", ProposedSim.getError().c_str());
    return 1;
  }
  report("proposed", *ProposedSim);

  std::printf("\nschedule: %s\n", R.Description.c_str());
  std::printf("\nmodel vs simulator (proposed schedule):\n");
  StageAccessInfo Info = analyzeComputeStage(Proposed.Stages[0],
                                             Proposed.StageExtents[0]);
  model::NestScorer Scorer(Info, Arch);
  std::vector<int64_t> Tiles;
  for (const LoopInfo &Loop : Info.Loops)
    Tiles.push_back(R.Temporal.Tiles.at(Loop.Name));
  double ModelL1 = Scorer.l1Misses(
      Tiles.data(), Scorer.loopIndex(R.Temporal.IntraOrder.back()));
  std::printf("  Eq. 5 estimated L1 misses : %.4g\n", ModelL1);
  std::printf("  simulated L1 misses       : %llu\n",
              static_cast<unsigned long long>(
                  ProposedSim->Stats.L1.DemandMisses));
  std::printf("  (same order of magnitude expected; the model counts\n"
              "   prefetch-adjusted cold misses of the update stage only)\n");

  double CycleGain =
      BaselineSim->EstimatedCycles / ProposedSim->EstimatedCycles;
  double TrafficGain =
      static_cast<double>(BaselineSim->Stats.memoryTraffic()) /
      static_cast<double>(ProposedSim->Stats.memoryTraffic());
  std::printf("\ntiling vs baseline on this configuration: %.2fx estimated "
              "cycles, %.2fx DRAM traffic\n"
              "(cycles compress the difference because both nests enjoy "
              "high L1 hit rates at\n trace-simulation sizes; DRAM "
              "traffic is the bandwidth-bound signal)\n",
              CycleGain, TrafficGain);
  return 0;
}
