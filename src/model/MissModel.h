//===- MissModel.h - closed-form per-level miss prediction ------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicts absolute L1/L2 demand-miss counts for a *scheduled* affine
/// loop nest directly from the access functions and the ArchParams
/// prefetcher description — no trace replay. This generalizes the
/// paper's Eq. 5 / Eq. 10 from the temporal optimizer's two reuse pivots
/// to an arbitrary nest, which is what the autotuner needs to rank
/// randomly drawn schedules without compiling or simulating them.
///
/// Model (per cache level L, per reuse group g of uniformly generated
/// references):
///
///  1. Traversal-ordered fresh sweep: walk the group's moving loops
///     inside-out tracking the contiguous byte range each stream
///     instance covers. An advance adjacent to the covered range
///     concatenates (the next-line prefetcher bridges the crossing, via
///     L1 residency of the in-between footprint when several streams
///     interleave); any other advance multiplies the number of stream
///     heads. L1 cold misses = stream heads; at the L2 the heads form a
///     constant-stride stream the per-4KB-page streamer covers after ~3
///     training misses per page when the stride fits its window.
///  2. Set-aware residency: a prefix of the nest counts as resident at L
///     when its line-granular footprint fits 7/8 of L's capacity AND no
///     group's run segments concentrate into fewer sets than its lines
///     need ways for (gcd of the segment line stride with the set count —
///     the power-of-two-stride conflict case of a transposed tile).
///  3. Outer-loop replay: each loop outside the resident prefix
///     multiplies the misses by its trip count when it advances the
///     group's index — or when the prefix through it is not resident at
///     L (the group gets evicted between iterations) — and by 1
///     otherwise (the Eq. 5/10 pivot collapse, applied at every level).
///
/// The nest is the one the legality verifier's replay records; a split
/// loop contributes two entries over the same origin variable, the inner
/// with (trip min(f, extent), stride 1) and the outer with
/// (trip ceil(extent / f), stride f).
///
/// Applicability is checked, never assumed: non-affine subscripts,
/// predicated (data-dependent) domains, non-unit strides along the
/// contiguous dimension, coupled subscripts, fused loops, unknown buffer
/// shapes, and sub-line strided traversals whose revisit window is not
/// L1-resident (column-major walks, conflict-prone tile strides) all
/// return Analytic=false with a reason; the autotuner then compiles and
/// times the candidate unranked.
/// AnalyticModelTest pins the prediction against the simulator across
/// the kernel suite and randomized schedules within a pinned tolerance.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_MODEL_MISSMODEL_H
#define LTP_MODEL_MISSMODEL_H

#include "analysis/Legality.h"
#include "arch/ArchParams.h"
#include "core/AccessInfo.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {
namespace model {

/// Element strides per dimension for each buffer (BufferRef::Strides);
/// the streamer model needs the real row stride in memory.
using BufferStrides = std::map<std::string, std::vector<int64_t>>;

struct MissPrediction {
  /// True when the closed form applied; false => use the simulator.
  bool Analytic = false;
  /// Human-readable reason when Analytic is false.
  std::string WhyNot;
  /// Predicted demand misses per level (valid when Analytic).
  double L1Misses = 0.0;
  double L2Misses = 0.0;
};

/// Predicts per-level demand misses for \p Info executed under
/// \p Schedule on \p Arch. \p Schedule is the legality verifier's replay
/// of the stage's directives (LegalityReport::Nest): loops innermost
/// first, each with its origin variable, trip bound and stride.
/// \p Strides supplies each buffer's element strides; \p NonTemporalOutput
/// marks the output store as streaming (bypasses the hierarchy,
/// contributing no misses).
MissPrediction predictMisses(const StageAccessInfo &Info,
                             const analysis::ScheduledNest &Schedule,
                             const ArchParams &Arch,
                             const BufferStrides &Strides,
                             bool NonTemporalOutput = false);

} // namespace model
} // namespace ltp

#endif // LTP_MODEL_MISSMODEL_H
