//===- Optimizer.h - the end-to-end optimization flow (Figure 1) -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the optimization flow (Figures 1 and 3): classify the input
/// statement, dispatch to the temporal or spatial optimizer (or to plain
/// parallelization/vectorization), and apply the resulting directives —
/// including `store_nontemporal` when the classifier finds no output-data
/// reuse and the target supports streaming stores — to the Func's compute
/// stage.
///
/// The flow is split into a *pure planning* step and an *apply* step so
/// stateless services (tools/ltp-serve) can compute a plan once from a
/// const Func and apply it to any number of per-session instances:
///
///   StagePlan Plan = planStage(F, Extents, Arch);   // no mutation
///   applyPlan(F, Plan);                             // directives only
///
/// `optimize()` remains the one-call wrapper (clear + plan + apply +
/// debug-verify) used by the benches and tests.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CORE_OPTIMIZER_H
#define LTP_CORE_OPTIMIZER_H

#include "analysis/Legality.h"
#include "arch/ArchParams.h"
#include "core/Classifier.h"
#include "core/SpatialOptimizer.h"
#include "core/TemporalOptimizer.h"
#include "lang/Func.h"

#include <string>
#include <vector>

namespace ltp {

/// Options of the end-to-end flow.
struct OptimizerOptions {
  /// Forwarded to the temporal optimizer (including the ablation knobs).
  TemporalOptions Temporal;
  /// Globally disable non-temporal stores (the comparison configurations
  /// "Proposed" vs "Proposed+NTI" in Figures 4-6).
  bool EnableNonTemporal = true;
};

/// Plain parallelize/vectorize treatment chosen for one stage: the
/// directives applyPlan will issue, not a search result.
struct ParVecPlan {
  /// Outermost pure loop to parallelize ("" = none).
  std::string ParallelVar;
  /// Innermost loop to vectorize ("" = none).
  std::string VectorVar;
};

/// A fully decided schedule for one Func, produced by planStage without
/// mutating anything. Contains everything applyPlan needs, so a plan can
/// be computed once and replayed onto per-session copies of the Func.
struct StagePlan {
  /// How the compute stage is scheduled.
  enum class Mode {
    Temporal, ///< Algorithm 2 schedule in Temporal.
    Spatial,  ///< Algorithm 3 schedule in Spatial.
    ParVec,   ///< Plain treatment in ComputeParVec (no-transform and the
              ///< >2-D spatial fallback).
  };

  Classification Class;
  Mode Kind = Mode::ParVec;
  TemporalSchedule Temporal;
  SpatialSchedule Spatial;
  ParVecPlan ComputeParVec;
  /// Reduction init-stage treatment (valid when HasInitStage).
  ParVecPlan InitParVec;
  bool HasInitStage = false;
  /// Mark the output store non-temporal.
  bool NonTemporalOutput = false;
  /// The analyzed compute stage (applyTemporalSchedule consumes it).
  StageAccessInfo Info;
  /// Human-readable schedule summary.
  std::string Description;
  /// Phase breakdown (Table 5's --json report): analysis+classification,
  /// then the search phase that ran (at most one of temporal/spatial is
  /// non-zero).
  double ClassifyMillis = 0.0;
  double TemporalMillis = 0.0;
  double SpatialMillis = 0.0;
};

/// Outcome of optimizing one Func.
struct OptimizationResult {
  Classification Class;
  /// Filled when Class.Kind == TemporalReuse.
  TemporalSchedule Temporal;
  /// Filled when Class.Kind == SpatialReuse.
  SpatialSchedule Spatial;
  /// True when the schedule marks the output store non-temporal.
  bool AppliedNonTemporal = false;
  /// Human-readable schedule summary.
  std::string Description;
  /// Optimizer wall-clock in milliseconds (Table 5).
  double RuntimeMillis = 0.0;
  /// Phase breakdown of RuntimeMillis (Table 5's --json report):
  /// analysis+classification, then the search phase that ran (at most one
  /// of temporal/spatial is non-zero).
  double ClassifyMillis = 0.0;
  double TemporalMillis = 0.0;
  double SpatialMillis = 0.0;
  /// The legality verifier's report on the compute stage's final
  /// schedule (optimize()'s post-condition), for a caller that lints the
  /// stage next (lint::LintOptions::PrecomputedLegality).
  analysis::LegalityReport Legality;
};

/// Classifies the compute stage of \p F and runs the matching search,
/// without touching \p F. The stage is analyzed as defined (any existing
/// scheduling directives are ignored — callers replaying plans onto
/// scheduled Funcs must clearSchedules() before applyPlan).
StagePlan planStage(const Func &F, const std::vector<int64_t> &OutputExtents,
                    const ArchParams &Arch,
                    const OptimizerOptions &Options = {});

/// Applies \p Plan to \p F as scheduling directives. \p F must be
/// schedule-free (clearSchedules) and structurally identical to the Func
/// the plan was computed from.
void applyPlan(Func &F, const StagePlan &Plan);

/// Classifies and schedules the compute stage of \p F (in place). The
/// pure init stage of reductions receives the matching parallel/vectorize
/// treatment so initialization does not dominate.
OptimizationResult optimize(Func &F,
                            const std::vector<int64_t> &OutputExtents,
                            const ArchParams &Arch,
                            const OptimizerOptions &Options = {});

} // namespace ltp

#endif // LTP_CORE_OPTIMIZER_H
