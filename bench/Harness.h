//===- Harness.h - shared benchmark-harness utilities -----------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure bench binaries: the five
/// scheduler configurations of Figure 4, JIT-based timing, simulator
/// evaluation, and tabular output helpers.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BENCH_HARNESS_H
#define LTP_BENCH_HARNESS_H

#include "baselines/Autotuner.h"
#include "baselines/Baselines.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <string>
#include <vector>

namespace ltp {
namespace bench {

/// The scheduler configurations compared in the evaluation.
enum class Scheduler {
  Proposed,
  ProposedNTI,
  AutoScheduler,
  Baseline,
  Autotuner,
  TSS,
  TTS,
};

const char *schedulerName(Scheduler S);

/// Applies \p S to every stage of \p Instance. The autotuner needs a JIT
/// compiler and a budget; other schedulers ignore those arguments. A
/// non-zero \p AutotuneMaxCandidates caps the autotuner's candidate
/// stream so cold and warm runs compile an identical schedule set. When
/// \p OutcomeOut is non-null and \p S is the autotuner, the full search
/// outcome (including the statically-pruned candidate count) is copied
/// out for stats footers. Returns a short description of what was
/// applied.
std::string applyScheduler(BenchmarkInstance &Instance, Scheduler S,
                           const ArchParams &Arch,
                           JITCompiler *Compiler = nullptr,
                           double AutotuneBudgetSeconds = 5.0,
                           const TemporalOptions &Ablation = {},
                           int AutotuneMaxCandidates = 0,
                           AutotuneOutcome *OutcomeOut = nullptr);

/// Ablation toggle for the autotuner's lint-pruning stage (the
/// lint-pruning row in EXPERIMENTS.md): fig4/fig5 map --no-lint-prune
/// onto it. Defaults to enabled.
void setAutotunerLintPrune(bool Enabled);

/// Compiles and times the pipeline: best of \p Runs wall-clock seconds.
/// Returns a negative value when JIT compilation is unavailable/fails.
double timePipeline(const BenchmarkInstance &Instance,
                    JITCompiler &Compiler, int Runs,
                    bool EnableNonTemporalCodegen = true);

/// Statistics over the timed runs of one configuration. Best-of remains
/// the headline estimator (noise-robust for memory-bound kernels); the
/// median and standard deviation expose run-to-run spread.
struct TimingStats {
  double BestSeconds = -1.0;
  double MedianSeconds = -1.0;
  double StddevSeconds = -1.0;
  int Runs = 0;
};

/// Times an already-compiled pipeline (one warm-up run, then the best of
/// \p Runs).
double timeCompiled(const CompiledPipeline &Pipeline,
                    const BenchmarkInstance &Instance, int Runs);

/// Like timeCompiled, but keeps every run: one warm-up, then \p Runs
/// timed runs summarized as best/median/stddev.
TimingStats timeCompiledStats(const CompiledPipeline &Pipeline,
                              const BenchmarkInstance &Instance, int Runs);

/// Formats a seconds value as milliseconds for table cells ("n/a" when
/// negative).
std::string formatMillis(double Seconds);

/// Handles the shared telemetry flags once per bench binary, right after
/// argument parsing: `--trace-json=FILE` (or the LTP_TRACE environment
/// toggle) enables span collection and writes a Chrome-trace JSON on
/// exit; `--json[=FILE]` writes a machine-readable BENCH_<name>.json
/// report of every reportResult() row on exit (default file name
/// BENCH_<name>.json in the working directory).
void setupTelemetry(const ArgParse &Args, const std::string &BenchName);

/// Adds one row to the machine-readable report (no-op without --json).
/// \p ExtraJson, when non-empty, is a raw JSON fragment of additional
/// fields, e.g. "\"throughput\":1.5" (no leading comma).
void reportResult(const std::string &Bench, const std::string &Config,
                  const TimingStats &Stats,
                  const std::string &ExtraJson = "");

/// Marks the whole bench as skipped in the machine-readable report
/// (`"skipped": "<reason>"`). Call on SKIPPED early-exit paths before
/// returning so --json consumers (tools/ltp-bench-diff) can tell an
/// environment skip from an empty run.
void reportSkipped(const std::string &Reason);

/// Prints every registered counter and gauge as the `telemetry :` footer
/// line. Metrics are process-wide; the footer is the one consistent place
/// benches report JIT / simulator / optimizer activity.
void printTelemetryFooter();

/// Prints the JIT activity footer: actual cc invocations, in-process
/// memo hits and on-disk cache hits. A warm rerun of a deterministic
/// bench reports `cc invocations : 0` — every kernel loads from the
/// content-addressed disk cache.
void printJITStats(const JITCompiler &Compiler);

/// Scaled problem size for one benchmark: the default container-scaled
/// size multiplied by --scale, or the paper size under --paper.
int64_t problemSize(const BenchmarkDef &Def, const ArgParse &Args);

/// Number of timed runs (--runs, default \p Default).
int timedRuns(const ArgParse &Args, int Default);

/// The platform named by --arch (default 5930k) through archByName;
/// prints the error and exits 1 on an unknown name.
ArchParams archFromArgs(const ArgParse &Args);

/// Prints the standard bench header (platform modeled, host detected,
/// JIT availability).
void printHeader(const char *Title, const ArchParams &Arch);

/// Prints one row of a fixed-width table.
void printRow(const std::vector<std::string> &Cells,
              const std::vector<int> &Widths);

} // namespace bench
} // namespace ltp

#endif // LTP_BENCH_HARNESS_H
