//===- model_validation.cpp - simulator vs hardware counters --------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Validates the cache simulator against the machine it runs on: every
// benchmark is scheduled with the proposed optimizer, its miss profile is
// predicted by simulating the schedule against the *detected host*
// parameters, and the same JIT-compiled kernel is then run under Linux
// perf_event hardware counters (L1D / LLC read accesses and misses). The
// report compares predicted and measured miss rates side by side.
//
// Containers and locked-down kernels frequently refuse perf_event_open
// (perf_event_paranoid, seccomp); the bench then prints an explicit skip
// notice and exits successfully so CI can run it everywhere. See
// EXPERIMENTS.md ("Model validation").
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "core/AccessInfo.h"
#include "model/MissModel.h"
#include "obs/PerfCounters.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <cstdio>

using namespace ltp;
using namespace ltp::bench;

namespace {

/// Simulation-tractable sizes (the simulator replays every access).
/// The measured run uses the same size so the rates are comparable.
int64_t validationSize(const std::string &Name) {
  if (Name == "convlayer")
    return 16;
  if (Name == "doitgen")
    return 32;
  if (Name == "tp" || Name == "tpm" || Name == "copy" || Name == "mask")
    return 512;
  return 96;
}

std::string rateText(double Rate) {
  return Rate < 0.0 ? "n/a" : strFormat("%.2f%%", Rate * 100.0);
}

/// Sums the closed-form analytic prediction over every stage of the
/// scheduled instance. Returns false (with \p WhyNot) when any stage
/// falls outside the model's applicability.
bool predictAnalytic(BenchmarkInstance &Instance, const ArchParams &Arch,
                     double &L1, double &L2, std::string &WhyNot) {
  model::BufferStrides Strides;
  for (const auto &[BufName, Buf] : Instance.Buffers)
    Strides[BufName] = Buf.Strides;
  L1 = L2 = 0.0;
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    bool NT = F.isStoreNonTemporal();
    for (int S = -1; S < F.numUpdates(); ++S) {
      StageAccessInfo Info = analyzeStage(F, S, Instance.StageExtents[I]);
      analysis::LegalityReport Legality =
          analysis::verifyStageSchedule(F, S, Instance.StageExtents[I]);
      model::MissPrediction P =
          model::predictMisses(Info, Legality.Nest, Arch, Strides, NT);
      if (!P.Analytic) {
        WhyNot = P.WhyNot;
        return false;
      }
      L1 += P.L1Misses;
      L2 += P.L2Misses;
    }
  }
  return true;
}

double measuredRate(const obs::PerfSnapshot &Before,
                    const obs::PerfSnapshot &After, size_t AccessIdx,
                    size_t MissIdx, bool AccessOpen, bool MissOpen) {
  if (!AccessOpen || !MissOpen)
    return -1.0;
  uint64_t Accesses = After.Values[AccessIdx] - Before.Values[AccessIdx];
  uint64_t Misses = After.Values[MissIdx] - Before.Values[MissIdx];
  if (Accesses == 0)
    return -1.0;
  return static_cast<double>(Misses) / static_cast<double>(Accesses);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "model_validation");
  ArchParams Host = detectHost();
  printHeader("Model validation: simulated vs hardware miss rates", Host);

  std::string Reason;
  if (!obs::PerfCounterSet::available(&Reason)) {
    std::printf("perf_event unavailable: %s\n", Reason.c_str());
    std::printf("SKIPPED: hardware counters are not accessible in this "
                "environment (container/paranoid kernel); nothing to "
                "validate.\n");
    reportSkipped("perf_event unavailable: " + Reason);
    printTelemetryFooter();
    return 0;
  }
  if (!jitAvailable()) {
    std::printf("SKIPPED: JIT unavailable; cannot run kernels under "
                "hardware counters.\n");
    reportSkipped("JIT unavailable");
    printTelemetryFooter();
    return 0;
  }

  // Open the counter group before the first parallelFor spins up the
  // global thread pool: inherit=1 extends the counts to every thread the
  // process creates after this point, so worker-thread cache traffic is
  // included in the reads.
  obs::PerfCounterSet Counters({
      obs::PerfEvent::L1DReadAccess,
      obs::PerfEvent::L1DReadMiss,
      obs::PerfEvent::LLCReadAccess,
      obs::PerfEvent::LLCReadMiss,
  });
  for (size_t I = 0; I != 4; ++I)
    if (!Counters.open(I))
      std::printf("note: %s not available: %s\n",
                  obs::perfEventName(static_cast<obs::PerfEvent>(I)),
                  Counters.error().c_str());

  const int Runs = timedRuns(Args, 3);
  const std::string Only = Args.getString("bench", "");

  JITCompiler Compiler;
  std::vector<int> Widths = {10, 8, 12, 12, 12, 12, 12, 10};
  printRow({"benchmark", "size", "L1 anl", "L1 sim", "L1 meas",
            "LLC sim", "LLC meas", "time(ms)"},
           Widths);

  for (const BenchmarkDef &Def : allBenchmarks()) {
    if (!Only.empty() && Only != Def.Name)
      continue;
    int64_t Size = validationSize(Def.Name);

    // Predicted: simulate the proposed schedule against the host model.
    BenchmarkInstance SimInstance = Def.Create(Size);
    applyScheduler(SimInstance, Scheduler::Proposed, Host, &Compiler);
    ErrorOr<SimResult> Simulated = simulatePipeline(SimInstance, Host);
    if (!Simulated) {
      std::fprintf(stderr, "error: %s\n", Simulated.getError().c_str());
      return 1;
    }
    const SimResult &Sim = *Simulated;
    double PredL1 = Sim.Stats.L1.missRate();
    // The hardware LLC event maps to the last level the host actually
    // has; the ARM-like 2-level config has no L3.
    bool HasL3 = Host.L3.SizeBytes > 0;
    double PredLLC = HasL3 ? Sim.Stats.L3.missRate()
                           : Sim.Stats.L2.missRate();

    // Analytic: the closed-form model on the same schedule. Miss counts
    // become rates over the simulator's (deterministic) demand-access
    // count so the three columns are directly comparable. Declines show
    // as n/a — that schedule would score through the simulator.
    double AnlL1Misses = 0.0, AnlL2Misses = 0.0, AnlL1 = -1.0;
    std::string ModelWhy;
    bool AnlOk = predictAnalytic(SimInstance, Host, AnlL1Misses,
                                 AnlL2Misses, ModelWhy);
    uint64_t L1Acc = Sim.Stats.L1.demandAccesses();
    if (AnlOk && L1Acc > 0)
      AnlL1 = AnlL1Misses / static_cast<double>(L1Acc);

    // Measured: the same schedule, JIT-compiled, run under the counters.
    BenchmarkInstance RunInstance = Def.Create(Size);
    applyScheduler(RunInstance, Scheduler::Proposed, Host, &Compiler);
    auto Pipeline = compilePipeline(RunInstance, Compiler);
    if (!Pipeline) {
      std::fprintf(stderr, "warning: JIT compile failed for %s: %s\n",
                   Def.Name.c_str(), Pipeline.getError().c_str());
      continue;
    }
    Pipeline->run(RunInstance); // warm-up: page faults, cold caches
    obs::PerfSnapshot Before = Counters.read();
    Timer T;
    for (int R = 0; R != Runs; ++R)
      Pipeline->run(RunInstance);
    double Millis = T.elapsedMillis() / Runs;
    obs::PerfSnapshot After = Counters.read();

    double MeasL1 = measuredRate(Before, After, 0, 1, Counters.open(0),
                                 Counters.open(1));
    double MeasLLC = measuredRate(Before, After, 2, 3, Counters.open(2),
                                  Counters.open(3));

    printRow({Def.Name, strFormat("%lld", static_cast<long long>(Size)),
              rateText(AnlL1), rateText(PredL1), rateText(MeasL1),
              rateText(PredLLC), rateText(MeasLLC),
              strFormat("%.3f", Millis)},
             Widths);

    TimingStats Stats;
    Stats.BestSeconds = Millis / 1e3;
    Stats.MedianSeconds = Millis / 1e3;
    Stats.StddevSeconds = 0.0;
    Stats.Runs = Runs;
    std::string Extra =
        strFormat("\"pred_l1_miss_rate\": %.6g, "
                  "\"meas_l1_miss_rate\": %.6g, "
                  "\"pred_llc_miss_rate\": %.6g, "
                  "\"meas_llc_miss_rate\": %.6g, "
                  "\"analytic\": %s",
                  PredL1, MeasL1, PredLLC, MeasLLC,
                  AnlOk ? "true" : "false");
    if (AnlOk)
      Extra += strFormat(", \"anl_l1_miss_rate\": %.6g, "
                         "\"anl_l1_misses\": %.6g, "
                         "\"anl_l2_misses\": %.6g",
                         AnlL1, AnlL1Misses, AnlL2Misses);
    reportResult(Def.Name, "model_validation", Stats, Extra);
  }

  std::printf("\nNote: the simulator replays *kernel* accesses only; the "
              "hardware counts include harness and runtime overhead, so "
              "agreement is expected in trend, not in the last digit.\n");
  printJITStats(Compiler);
  printTelemetryFooter();
  return 0;
}
