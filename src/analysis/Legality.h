//===- Legality.h - schedule legality verification --------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static legality verification of a stage's schedule against its
/// dependence graph. The verifier replays the scheduling directives over a
/// shadow copy of the loop nest, mirroring lowering's split/fuse/reorder
/// semantics, while transforming every dependence's distance vector
/// through the same changes of basis. Each directive receives a verdict:
///
///   - reorder/fuse/split must not make any dependence lexicographically
///     negative in the final loop order;
///   - parallel requires that the marked loop carries no dependence;
///   - vectorize / unroll_jam require no carried dependence shorter than
///     the vector width / jam factor, and a vectorized loop's constant
///     extent must be within the back end's limit
///     (IRVerifyOptions::MaxVectorExtent). A reduction (accumulator)
///     dependence does not count against unroll_jam, nor against
///     vectorize on a loop no pure loop contributes to: the accumulated
///     element stays fixed along it, and lane-wise partial sums only
///     reassociate the chain;
///   - store_nontemporal warns when the written buffer is re-read in the
///     same nest (non-temporal stores bypass the cache the re-read hits).
///
/// Verdicts inherit the dependence analyzer's soundness contract: a
/// schedule reported clean is safe (modulo non-affine over-approximation,
/// which only ever adds verdicts); a rejection may be conservative.
///
/// The replay is the one place outside lowering that applies split,
/// fuse, reorder and unroll_jam to a loop nest. The report publishes the
/// final nest (ScheduledNest) with its marks and jams; the lint rules and
/// the analytical miss model read it instead of replaying the schedule
/// themselves, and a structurally invalid directive (unknown loop, name
/// clash, non-adjacent fuse) is the one verdict that stops the replay.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_ANALYSIS_LEGALITY_H
#define LTP_ANALYSIS_LEGALITY_H

#include "analysis/Dependence.h"
#include "lang/Func.h"

#include <optional>
#include <string>
#include <vector>

namespace ltp {
namespace analysis {

/// One loop of a stage's scheduled nest. A split replaces its loop in
/// place with (inner, outer): inner trip min(f, trip), outer trip
/// ceil(trip / f) and stride * f; unroll_jam is a split into
/// `<n>_ujo`/`<n>_uji`; a fuse merges two adjacent loops.
struct NestLoop {
  std::string Name;
  /// The original loop variable this loop iterates; empty after a fuse.
  std::string Origin;
  /// Exact trip count when it is a compile-time constant (the inner loop
  /// of a non-divisible split has none).
  std::optional<int64_t> ConstExtent;
  /// Upper bound on the trip count, carried through splits and fuses from
  /// the original loop's constant extent (1 when that is not constant;
  /// every reader of Trip analyzes the stage first, which requires it).
  int64_t Trip = 1;
  /// Step in iterations of Origin per increment.
  int64_t Stride = 1;
  /// The jammed copies (`_uji`) and the loop stepping over them (`_ujo`)
  /// of an unroll_jam.
  bool JamInner = false;
  bool JamOuter = false;
  /// True for a fused loop and for every loop split off one.
  bool Fused = false;
  /// Index of the directive that created the loop; -1 for an original.
  int CreatedBy = -1;
};

/// A parallel / vectorize / unroll mark, in directive order.
struct NestMark {
  int DirIndex = -1;
  MarkDirective::Kind Kind = MarkDirective::Kind::Parallel;
  std::string Name;
};

/// An unroll_jam of loop `Loop` into `Loop_ujo` / `Loop_uji`.
struct NestJam {
  int DirIndex = -1;
  std::string Loop;
  /// Origin of the jammed loop (empty when it was fused).
  std::string Origin;
  /// The directive's factor.
  int64_t Factor = 0;
  /// Jammed copies: the factor clamped to the loop's trip bound.
  int64_t Copies = 0;
};

/// The nest a stage's directive list produces, as the verifier replays it.
struct ScheduledNest {
  /// Innermost first.
  std::vector<NestLoop> Loops;
  std::vector<NestMark> Marks;
  std::vector<NestJam> Jams;
  /// Reorders that left the loop order as it was.
  std::vector<int> NoopReorders;
  /// False when the replay stopped at a structurally invalid directive
  /// (the report's last verdict); nothing else here is meaningful then.
  bool Complete = true;

  /// Position of the loop called \p Name in Loops, or -1.
  int find(const std::string &Name) const;
};

/// Violation severity. Errors make the schedule unrunnable (races, wrong
/// results); warnings flag performance hazards that preserve semantics.
enum class Severity { Error, Warning };

/// The verdict for one scheduling directive (or for the stage itself when
/// Index is -1, e.g. the store_nontemporal check).
struct DirectiveVerdict {
  /// Index into the stage's directive list; -1 for stage-level checks.
  int Index = -1;
  /// Human-readable rendering of the directive, e.g. "parallel(k)".
  std::string Directive;
  bool Legal = true;
  Severity Sev = Severity::Error;
  std::string Message;
};

/// The full verification result for one stage.
struct LegalityReport {
  DependenceGraph Graph;
  std::vector<DirectiveVerdict> Verdicts;
  ScheduledNest Nest;

  /// The verdict of the structurally invalid directive the replay stopped
  /// at, or nullptr when the whole directive list replayed.
  const DirectiveVerdict *structuralError() const;
  /// True when some directive is an illegal Error (warnings excluded).
  bool hasErrors() const;
  /// True when every directive is legal (warnings included).
  bool clean() const;
  /// All failing verdicts joined into one multi-line diagnostic.
  std::string message() const;
};

struct LegalityOptions {
  /// Vector width assumed for a vectorize mark on a loop whose extent is
  /// not a compile-time constant.
  int VectorWidth = 16;
};

/// Verifies the schedule of stage \p StageIndex (-1 = pure) of \p F
/// realized over \p OutputExtents.
LegalityReport verifyStageSchedule(const Func &F, int StageIndex,
                                   const std::vector<int64_t> &OutputExtents,
                                   const LegalityOptions &Options = {});

/// Verifies every stage (pure and updates) of \p F. Reports are ordered
/// pure first, then updates.
std::vector<LegalityReport>
verifyFuncSchedule(const Func &F, const std::vector<int64_t> &OutputExtents,
                   const LegalityOptions &Options = {});

} // namespace analysis
} // namespace ltp

#endif // LTP_ANALYSIS_LEGALITY_H
