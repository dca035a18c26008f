//===- Provenance.h - optimizer decision-provenance log ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records *why* the optimizer chose a schedule: every candidate the
/// temporal/spatial search considered, with its predicted L1/L2 misses,
/// cost-model score and accept/prune reason, grouped under the stage's
/// classifier verdict. `ltp-opt --explain` turns the log on and prints
/// it, making the Table-4/Figure-4 schedule choices auditable.
///
/// The log is disabled by default; when disabled, instrumentation sites
/// pay one relaxed atomic load and build no strings. Recording never
/// feeds back into the search, so enabling it cannot change the chosen
/// schedule (DeterminismTest pins this).
///
/// Decisions are accumulated per thread (an optimize() call runs on one
/// thread) and published to a global list when the decision ends, so
/// concurrent optimizer calls cannot interleave their candidate lists.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_PROVENANCE_H
#define LTP_OBS_PROVENANCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace ltp {
namespace obs {

/// One candidate schedule the search evaluated (or pruned).
struct CandidateRecord {
  /// Rendered candidate: tile assignment plus reuse pivots, e.g.
  /// "tiles{i=32,j=512,k=64} u=i v=k".
  std::string Candidate;
  /// Predicted misses from the analytical model (Eqs. 5 and 10);
  /// negative when the candidate was pruned before evaluation.
  double PredL1Misses = -1.0;
  double PredL2Misses = -1.0;
  /// Cost-model score (Eq. 11 weighted total, or the spatial Eq. 15/17
  /// total); negative when pruned before scoring.
  double Cost = -1.0;
  /// True when this candidate became the best-so-far when evaluated.
  bool Accepted = false;
  /// Why it was accepted or pruned ("best so far", "cost above best",
  /// "ws-L1 overflow", "parallelism constraint", ...).
  std::string Reason;
};

/// The full provenance of one optimize() call on one stage.
struct DecisionRecord {
  std::string Stage;          ///< Func name
  std::string Classification; ///< classifier verdict (Figure 3)
  std::string Chosen;         ///< final schedule description
  /// The serve request this decision belongs to (obs::currentRequestId()
  /// at beginDecision time; empty outside a request scope), joining
  /// provenance against log lines and spans.
  std::string RequestId;
  std::vector<CandidateRecord> Candidates;
};

/// True when candidate recording is active.
bool explainEnabled();

/// Turns the decision log on or off.
void setExplainEnabled(bool Enabled);

/// Opens a decision scope for the current thread. Candidates recorded
/// until endDecision attach to it.
void beginDecision(const std::string &Stage,
                   const std::string &Classification);

/// Appends a candidate to the current thread's open decision (no-op when
/// the log is disabled or no decision is open).
void recordCandidate(CandidateRecord Record);

/// Closes the current decision with the final schedule description and
/// publishes it to the global log.
void endDecision(const std::string &Chosen);

/// Takes (and clears) every published decision, in publish order.
std::vector<DecisionRecord> takeDecisions();

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_PROVENANCE_H
