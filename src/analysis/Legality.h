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
//===----------------------------------------------------------------------===//

#ifndef LTP_ANALYSIS_LEGALITY_H
#define LTP_ANALYSIS_LEGALITY_H

#include "analysis/Dependence.h"
#include "lang/Func.h"

#include <string>
#include <vector>

namespace ltp {
namespace analysis {

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
