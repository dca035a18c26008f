//===- Autotuner.h - OpenTuner-style schedule search ------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reimplementation of the Halide/OpenTuner autotuner used as the
/// paper's empirical comparison point: random schedule search evaluated
/// by actually compiling (through the JIT) and timing each candidate
/// until a wall-clock budget runs out. As the paper notes, the search
/// space "only attempt[s] tiling in the dimensions of the output array" —
/// reduction loops are never tiled — which is one of the two reasons the
/// autotuner converges to poor schedules on these kernels (the other
/// being the budget itself).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BASELINES_AUTOTUNER_H
#define LTP_BASELINES_AUTOTUNER_H

#include "benchmarks/Benchmarks.h"
#include "jit/JIT.h"

#include <cstdint>
#include <string>

namespace ltp {

/// Search configuration.
struct AutotuneOptions {
  /// Wall-clock search budget (the paper used 1 hour / 1 day; scaled down
  /// here and recorded in EXPERIMENTS.md).
  double BudgetSeconds = 10.0;
  /// RNG seed; runs are deterministic given the seed and budget outcomes.
  uint32_t Seed = 42;
  /// Allow tiling reduction dimensions too (not part of the paper's
  /// autotuner search space; available for ablation).
  bool TileReductions = false;
  /// Timed runs per candidate (minimum is kept).
  int RunsPerCandidate = 1;
  /// Candidates drawn per compilation batch; each batch is compiled in
  /// one JITCompiler::compileMany call so the cc invocations overlap on
  /// the thread pool before any candidate is timed.
  int BatchSize = 8;
  /// Hard cap on candidates drawn (0 = budget-only). With a cap the
  /// candidate set is a deterministic function of the seed, so a warm
  /// rerun replays exactly the schedules a cold run compiled and the
  /// on-disk kernel cache serves every compilation.
  int MaxCandidates = 0;
  /// Miss-model pruning: rank each batch's legal candidates by predicted
  /// weighted misses (Eq. 11 weights) and compile only the best
  /// `ceil(fraction * legal)` of them, spending the compile+time budget
  /// on schedules the model thinks can win. 1.0 compiles every legal
  /// candidate (the original search). Candidates are scored by the
  /// closed-form miss model; one it declines (a predicated domain, say)
  /// is never pruned and goes straight to compile-and-time.
  double ModelKeepFraction = 0.5;
  /// Lint pruning: after the legality verifier accepts a candidate, run
  /// the static diagnostics pass and drop the candidate when a rule of
  /// Error severity fires (an oversized tile, a scattering vectorize)
  /// before spending a compilation on it. Warnings never prune.
  bool LintPrune = true;
};

/// Search outcome. The best schedule found is left applied to the
/// instance's stages.
struct AutotuneOutcome {
  double BestSeconds = -1.0;
  int CandidatesEvaluated = 0;
  int CandidatesFailed = 0;
  /// Candidates rejected by the static legality verifier before any
  /// compilation was attempted (e.g. a parallel mark drawn on a
  /// dependence-carrying reduction loop).
  int CandidatesPruned = 0;
  /// Legal candidates dropped by the miss-model ranking before any
  /// compilation was attempted.
  int CandidatesModelPruned = 0;
  /// Legal candidates dropped because a static lint diagnostic of Error
  /// severity fired on their schedule.
  int CandidatesLintPruned = 0;
  /// Candidates the closed-form model scored for the pruning stage (the
  /// rest it declined, and they were compiled unranked).
  int ScoredAnalytic = 0;
  std::string BestDescription;
};

/// Runs the search on \p Instance using \p Compiler for evaluation.
AutotuneOutcome autotune(BenchmarkInstance &Instance, JITCompiler &Compiler,
                         const AutotuneOptions &Options = {});

} // namespace ltp

#endif // LTP_BASELINES_AUTOTUNER_H
