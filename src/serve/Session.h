//===- Session.h - per-request optimization session -------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All state built for one serve request that missed the dedup table:
/// the benchmark's shape (stages, buffer extents and strides; it never
/// owns data buffers), the plans chosen for each stage, and the response
/// under construction. The
/// OptimizerService itself is stateless across requests apart from its
/// caches — everything mutable during an optimization lives here, so
/// concurrent sessions never share Funcs.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_SERVE_SESSION_H
#define LTP_SERVE_SESSION_H

#include "arch/ArchParams.h"
#include "benchmarks/Benchmarks.h"
#include "core/Optimizer.h"
#include "serve/Protocol.h"

#include <optional>
#include <vector>

namespace ltp {
namespace serve {

/// Per-request mutable state (see file comment). Created by the service
/// on a dedup miss, destroyed when the response template is published;
/// only the Response survives into the result cache.
struct Session {
  Request Req;
  ArchParams Arch;
  /// The session's own kernel shape; stages are scheduled in place.
  BenchmarkInstance Instance;
  /// One optimizer result per stage (empty when replaying a user
  /// schedule).
  std::vector<OptimizationResult> StageResults;
  /// Per stage, the legality verifier's report on the schedule just
  /// applied, where scheduling ran the verifier (every stage under the
  /// optimizer, the last one under a user schedule). The lint op reads
  /// it instead of replaying the schedule a second time.
  std::vector<std::optional<analysis::LegalityReport>> StageLegality;
  /// The response template being built (Id/Dedup filled per request by
  /// the service).
  Response Resp;
};

} // namespace serve
} // namespace ltp

#endif // LTP_SERVE_SESSION_H
