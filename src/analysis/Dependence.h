//===- Dependence.h - affine dependence analysis ----------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static dependence analysis of one Func stage. Every pair of accesses to
/// the stage's output buffer (the only buffer a stage writes) is run
/// through classical subscript tests — ZIV, strong SIV, the GCD test and
/// Banerjee bounds — producing flow/anti/output dependences with a
/// per-loop distance summary: the possible signs of the distance on each
/// loop, plus the exact constant distance when the tests pin it down.
///
/// Soundness contract: the analysis only ever over-approximates. A
/// non-affine subscript yields a dependence with every direction possible
/// on every loop (Approximate); `where` predicates are ignored, so the
/// analyzed iteration space is a superset of the executed one. A query
/// that answers "no dependence" is therefore a proof; "dependence" may be
/// a false positive.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_ANALYSIS_DEPENDENCE_H
#define LTP_ANALYSIS_DEPENDENCE_H

#include "lang/Func.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ltp {
namespace analysis {

/// The possible values of a dependence distance on one loop, as a set of
/// signs plus an optional exact constant. Distances are target minus
/// source iteration, so a positive distance means the dependence is
/// carried forward by the loop.
struct DistanceSet {
  static constexpr uint8_t Neg = 1;
  static constexpr uint8_t Zero = 2;
  static constexpr uint8_t Pos = 4;
  static constexpr uint8_t All = Neg | Zero | Pos;

  uint8_t Signs = All;
  std::optional<int64_t> Exact;
  /// When non-empty, the negative direction can only occur jointly with
  /// the named loop having a positive distance. Split tail correlation:
  /// for a non-negative distance d split as d = F*d_o + d_i, a negative
  /// d_i forces d_o >= 1. Consumers may ignore the Neg bit whenever the
  /// named loop is nested outside and pinned to distance zero.
  std::string NegGuard;

  static DistanceSet exact(int64_t D) {
    DistanceSet S;
    S.Exact = D;
    S.Signs = D < 0 ? Neg : D > 0 ? Pos : Zero;
    return S;
  }
  static DistanceSet any() { return DistanceSet(); }

  bool mayBeNegative() const { return Signs & Neg; }
  bool mayBeZero() const { return Signs & Zero; }
  bool mayBePositive() const { return Signs & Pos; }
  bool mayBeNonZero() const { return Signs & (Neg | Pos); }
  bool definitelyZero() const { return Signs == Zero; }
  bool infeasible() const { return Signs == 0; }

  /// Removes the negative direction (lexicographic normalization).
  void dropNegative() {
    Signs &= ~Neg;
    if (Exact && *Exact < 0) {
      Signs = 0;
      Exact.reset();
    }
    NegGuard.clear();
  }

  DistanceSet negated() const {
    DistanceSet S;
    S.Signs = (mayBeNegative() ? Pos : 0) | (mayBeZero() ? Zero : 0) |
              (mayBePositive() ? Neg : 0);
    if (Exact)
      S.Exact = -*Exact;
    return S;
  }

  /// Compact rendering: "+2", "0", "-", "0/+", "*".
  std::string str() const;
};

/// Dependence kinds: flow (write then read), anti (read then write),
/// output (write then write).
enum class DepKind { Flow, Anti, Output };

const char *depKindName(DepKind K);

/// One dependence between two accesses of the stage's output buffer.
struct Dependence {
  DepKind Kind = DepKind::Flow;
  std::string Buffer;
  /// True when a subscript was non-affine (or otherwise unanalyzable) and
  /// the distance vector is the conservative "anything" answer.
  bool Approximate = false;
  /// True for the accumulator pattern of an update stage: the output is
  /// read, modified and written at the identical address across reduction
  /// iterations. Such dependences forbid racing (parallel) execution of a
  /// carrying loop, but reordering them is reassociation, which the
  /// system's semantics (like the paper's) accept: order-based checks,
  /// unroll_jam and vectorize along a reduction loop skip them.
  bool Reduction = false;
  /// Distance per original loop (keyed by loop name); lexicographically
  /// non-negative in the original loop order.
  std::map<std::string, DistanceSet> Distance;

  /// "flow C->C (k:0/+, i:0, j:0)" with loops in the given order.
  std::string describe(const std::vector<std::string> &LoopOrder) const;
};

/// One loop of the stage's original (unscheduled) nest.
struct DepLoop {
  std::string Name;
  bool IsReduction = false;
  /// Constant lower bound when known (pure loops start at 0).
  std::optional<int64_t> Min;
  /// Constant trip count when known.
  std::optional<int64_t> Extent;
};

/// The dependence graph of one stage: loops in original execution order
/// (outermost first) and every dependence between its output accesses.
struct DependenceGraph {
  std::vector<DepLoop> Loops;
  std::vector<Dependence> Deps;
  /// False when some access had a non-affine subscript.
  bool Affine = true;

  /// Loop names, outermost first.
  std::vector<std::string> loopOrder() const;

  /// True when some dependence can be carried by the named loop in the
  /// original order (every outer loop's distance may be zero and this
  /// loop's distance may be non-zero).
  bool mayCarry(const std::string &LoopName) const;

  /// Multi-line human-readable rendering.
  std::string print() const;
};

/// Builds the dependence graph of stage \p StageIndex (-1 = pure) of \p F
/// realized over \p OutputExtents.
DependenceGraph buildDependenceGraph(const Func &F, int StageIndex,
                                     const std::vector<int64_t> &OutputExtents);

} // namespace analysis
} // namespace ltp

#endif // LTP_ANALYSIS_DEPENDENCE_H
