//===- ScheduleText.h - schedule (de)serialization --------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a stage's schedule to a Halide-like textual form and parses
/// it back, so schedules can be stored next to experiments, diffed, and
/// replayed without re-running the optimizer:
///
///   split(j, j_t, j_i, 512); split(i, i_t, i_i, 32);
///   reorder(j_i, k, i_i, k_t, i_t); parallel(i_t); vectorize(j_i);
///   store_nontemporal;
///
/// The grammar is `directive(arg, ...)` separated by `;`, with
/// `store_nontemporal` as a bare word. Whitespace is insignificant.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_LANG_SCHEDULETEXT_H
#define LTP_LANG_SCHEDULETEXT_H

#include "lang/Func.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ltp {

namespace analysis {
struct LegalityReport;
} // namespace analysis

/// Source region of one textual schedule unit and the directive indices
/// it produced (a unit like `vectorize(j, 8)` expands to two directives).
struct ScheduleSpan {
  size_t Offset = 0;
  size_t Length = 0;
  int FirstDirective = 0;
  int LastDirective = 0;
};

/// Renders the schedule of stage \p StageIndex (-1 = pure) of \p F,
/// including a trailing `store_nontemporal;` when the Func is marked.
std::string printSchedule(const Func &F, int StageIndex);

/// Parses \p Text and applies the directives to stage \p StageIndex of
/// \p F (on top of any existing directives; callers usually
/// clearSchedules() first). Returns an error message with the offending
/// token on malformed input; on error the stage may be partially
/// scheduled. When \p Spans is non-null it receives one entry per parsed
/// unit, mapping source offsets to directive indices.
ErrorOr<bool> applyScheduleText(Func &F, int StageIndex,
                                const std::string &Text,
                                std::vector<ScheduleSpan> *Spans = nullptr);

/// Parses and applies \p Text like applyScheduleText, then runs the
/// static legality verifier over the stage realized at \p OutputExtents.
/// The verifier's replay of the directives is the one name and structure
/// check: an unknown loop, a name clash or a non-adjacent fuse is rejected
/// like any illegal schedule, with a diagnostic quoting the offending
/// source span, before lowering could assert on it. The Func is left with
/// the (illegal) schedule applied, so callers should clearSchedules()
/// before retrying. When \p Verified is non-null and the text applied, it
/// receives the verifier's report (for LintOptions::PrecomputedLegality).
ErrorOr<bool>
applyVerifiedScheduleText(Func &F, int StageIndex, const std::string &Text,
                          const std::vector<int64_t> &OutputExtents,
                          analysis::LegalityReport *Verified = nullptr);

} // namespace ltp

#endif // LTP_LANG_SCHEDULETEXT_H
