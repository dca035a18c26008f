//===- Lint.h - static prefetch-efficiency diagnostics ----------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static diagnostics over a scheduled stage: rules that flag *legal but
/// prefetcher-hostile* schedules before any compilation or simulation,
/// each derived from the architecture parameters and the analytical model
/// rather than hard-coded thresholds. Every diagnostic carries a rule id,
/// a severity, the source span of the responsible schedule-text unit and
/// — where a rewrite is mechanical — a fix-it that edits the text.
///
/// Rule catalog (see DESIGN.md "Static analysis" for the full table):
///
///   strided-innermost (error)        no access streams unit-stride along
///                                    the innermost loop; the L1 next-line
///                                    prefetcher is defeated. Fix-it:
///                                    reorder a unit-stride loop innermost.
///   vectorize-noncontiguous (error)  vectorize on a loop whose output
///                                    stride is not +1 (gather/scatter
///                                    lanes). Fix-it: retarget the mark.
///   tile-exceeds-bound (error)       a reuse-pivot tile exceeds the
///                                    Algorithm-1 emulation bound, so
///                                    tile rows interfere in the cache the
///                                    tiling targets. Fix-it: clamp the
///                                    split factor to the bound.
///   streamer-oversubscription (warn) concurrent streams exceed the L2
///                                    streamer's tracked-train capacity.
///                                    Fix-it: clamp the unroll_jam factor
///                                    multiplying the stream count.
///   unrolljam-spill (warn)           the register-accumulator footprint
///                                    of the jam exceeds the ISA vector
///                                    register file. Fix-it: clamp the jam.
///   nt-store-reuse (warn)            store_nontemporal on a buffer the
///                                    nest re-reads (via the dependence
///                                    graph). Fix-it: drop the directive.
///   dead-directive (warn)            a mark names a loop a later
///                                    split/fuse destroys; lowering drops
///                                    it silently. Fix-it: delete it.
///   shadowed-reorder (warn)          a reorder immediately overridden by
///                                    a later reorder covering its loops.
///                                    Fix-it: delete the earlier one.
///   redundant-directive (warn)       a no-op reorder or duplicate mark.
///                                    Fix-it: delete it.
///
/// The rules read the nest the legality verifier's replay records
/// (LegalityReport::Nest); the pass keeps no replay of its own. Text the
/// verifier cannot replay (unknown loop, name clash, non-adjacent fuse)
/// yields one invalid-schedule Error with the verifier's message, and
/// unparseable text one parse-error.
///
/// Spans index into the exact text handed to lintScheduleText, so fix-its
/// are plain text edits; applyLintFixes() performs them back-to-front and
/// the result round-trips through applyVerifiedScheduleText.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_ANALYSIS_LINT_H
#define LTP_ANALYSIS_LINT_H

#include "analysis/Legality.h"
#include "arch/ArchParams.h"
#include "lang/Func.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ltp {
namespace lint {

/// One machine-applicable edit of the linted schedule text.
struct FixIt {
  size_t Offset = 0;
  size_t Length = 0;
  std::string Replacement;
};

/// One finding. Offset/Length delimit the schedule-text unit the rule
/// anchors to (the whole text for nest-level rules with no single unit).
struct Diagnostic {
  std::string RuleId;
  analysis::Severity Sev = analysis::Severity::Warning;
  size_t Offset = 0;
  size_t Length = 0;
  std::string Message;
  bool HasFixIt = false;
  FixIt Fix;
};

/// The lint result for one stage.
struct LintReport {
  /// The text the spans index into.
  std::string ScheduleText;
  std::vector<Diagnostic> Diagnostics;

  bool hasErrors() const;
  /// True when there are no diagnostics at all (warnings included).
  bool clean() const;
  /// All diagnostics joined into one multi-line message.
  std::string message() const;
};

struct LintOptions {
  /// Loops at or below this extent are ignored when identifying the
  /// reuse pivots, mirroring TemporalOptions::SmallLoopExtent.
  int64_t SmallLoopExtent = 8;
  /// Reuse a legality report the caller already computed for this exact
  /// schedule (the autotuner verifies before linting); nullptr reruns the
  /// verifier, whose nest every rule reads.
  const analysis::LegalityReport *PrecomputedLegality = nullptr;
};

/// Lints \p Text applied to stage \p StageIndex (-1 = pure) of \p F
/// realized over \p OutputExtents. Clears the stage's schedule and
/// applies \p Text (so spans map to it); on return the stage carries
/// exactly the directives of \p Text. Unparseable text, or text the
/// legality verifier cannot replay, produces a single Error diagnostic
/// instead of asserting.
LintReport lintScheduleText(Func &F, int StageIndex, const std::string &Text,
                            const std::vector<int64_t> &OutputExtents,
                            const ArchParams &Arch,
                            const LintOptions &Options = {});

/// Lints the schedule currently applied to the stage by round-tripping it
/// through printSchedule (print -> parse is the identity on directive
/// lists, so the stage is unchanged and spans index the canonical text).
LintReport lintStageSchedule(Func &F, int StageIndex,
                             const std::vector<int64_t> &OutputExtents,
                             const ArchParams &Arch,
                             const LintOptions &Options = {});

/// Applies every fix-it in \p Report to its ScheduleText (back to front;
/// fix-its never overlap) and returns the rewritten text.
std::string applyLintFixes(const LintReport &Report);

const char *severityName(analysis::Severity Sev);

/// Renders one diagnostic as a JSON object with a fixed field order
/// (stage, rule, severity, offset, length, message[, fixit]) so scripted
/// consumers can match rule+span with a single substring.
std::string diagnosticJson(const Diagnostic &D, int StageOrdinal);

} // namespace lint
} // namespace ltp

#endif // LTP_ANALYSIS_LINT_H
