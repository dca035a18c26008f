//===- Protocol.h - ltp-serve wire protocol ---------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol of the `ltp-serve` daemon: one
/// JSON object per line in each direction over a Unix-domain stream
/// socket. Requests name a kernel (or a schedule to replay) plus a
/// platform; responses carry the verified schedule and the paths of
/// ready-to-`dlopen` kernel shared objects in the content-addressed
/// store.
///
///   {"op":"optimize","kernel":"matmul","size":256,"arch":"6700"}
///   {"op":"optimize","kernel":"matmul",
///    "schedule":"split(i,it,ii,32); parallel(it);"}
///   {"op":"lint","kernel":"matmul","schedule":"reorder(i, j, k);"}
///   {"op":"stats"}  {"op":"metrics"}  {"op":"dump"}
///   {"op":"ping"}  {"op":"shutdown"}
///
/// Every response carries a server-minted `request_id`, the join key
/// across structured log lines, trace spans, provenance records and
/// flight-recorder digests for that request.
///
/// Requests are *canonicalized* before dedup keying: the key is the full
/// resolved request text — kernel, size, schedule text, NTI
/// and compile toggles, and the platform rendered through
/// archParamsToText (so `"arch":"6700"` and an inline `arch_text` with
/// identical parameters dedup onto one optimization).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_SERVE_PROTOCOL_H
#define LTP_SERVE_PROTOCOL_H

#include "arch/ArchParams.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ltp {
namespace serve {

/// One parsed request line.
struct Request {
  /// "optimize" (default), "lint", "stats", "metrics", "dump", "ping" or
  /// "shutdown". A lint request schedules like optimize (replaying
  /// `schedule` when present) but returns static diagnostics instead of
  /// compiled kernels; "metrics" returns the Prometheus exposition and
  /// "dump" the flight-recorder ring.
  std::string Op = "optimize";
  /// Client-chosen identifier echoed back verbatim (optional).
  std::string Id;
  /// Server-minted per-request ID (mintRequestId). Not a wire field —
  /// clients cannot set it; the protocol layer stamps it on arrival.
  std::string RequestId;
  /// Benchmark kernel name (allBenchmarks/extendedBenchmarks).
  std::string Kernel;
  /// Problem size; 0 = the kernel's container-scaled default.
  int64_t Size = 0;
  /// Optional textual schedule replayed (verified) instead of running
  /// the optimizer.
  std::string Schedule;
  /// Named platform: 5930k | 6700 | a15 | host (default host).
  std::string ArchName = "host";
  /// Inline platform description (ArchFile key=value text); when
  /// non-empty it overrides ArchName.
  std::string ArchText;
  /// Allow non-temporal stores (default true).
  bool EnableNTI = true;
  /// Also JIT-compile the scheduled pipeline into the shared kernel
  /// store and return the `.so` paths (default true).
  bool Compile = true;
};

/// Parses one request line. Unknown fields are an error (they are most
/// likely typos of known ones).
ErrorOr<Request> parseRequest(const std::string &Line);

/// Mints a process-unique request ID ("r-<pid>-<seq>"). Called by the
/// transport layer on every parsed request (and by the service for
/// requests that arrive without one, e.g. direct handle() calls in
/// tests and benches).
std::string mintRequestId();

/// Resolves the request's platform: ArchText when present, else the
/// named platform.
ErrorOr<ArchParams> resolveArch(const Request &Req);

/// The canonical dedup key of an optimize request against a resolved
/// platform: every semantically significant field, with the platform
/// rendered through archParamsToText so equivalent descriptions collide.
std::string canonicalKey(const Request &Req, const ArchParams &Arch);

/// 64-bit FNV-1a of \p Key as fixed-width hex — the short form echoed to
/// clients and used to name things in logs.
std::string keyHash(const std::string &Key);

/// How a request was satisfied relative to the dedup table.
enum class DedupOutcome {
  Miss,     ///< this request ran the optimization
  Inflight, ///< identical request was in flight; waited for its result
  Cached,   ///< identical request had already completed
};

const char *dedupOutcomeName(DedupOutcome O);

/// Error classification mirrored into the response `kind` field (and
/// aligned with ltp-opt's exit codes, so scripted callers classify
/// failures the same way against both surfaces).
enum class ErrorKind {
  None,
  BadRequest,      ///< malformed JSON / unknown kernel / bad field value
  IllegalSchedule, ///< schedule text rejected by parse or the verifier
  Internal,        ///< optimizer/JIT failure
};

const char *errorKindName(ErrorKind K);

/// One response line (before serialization).
struct Response {
  bool Ok = false;
  std::string Id;
  /// Server-minted ID of the request this answers (see Request).
  std::string RequestId;
  ErrorKind Kind = ErrorKind::None;
  std::string Error;
  std::string Kernel;
  std::string Class;       ///< classifier verdict (temporal/spatial/...)
  std::string Schedule;    ///< directive text of the final-stage schedule
  std::string Description; ///< optimizer summary ("temporal: ... +NTI")
  std::vector<std::string> SoPaths; ///< one per pipeline stage
  /// True when the request ran the lint pass; an empty DiagnosticsJson
  /// then means "clean" (the `diagnostics` array is emitted either way).
  bool LintRan = false;
  /// Pre-rendered diagnostic JSON objects (lint::diagnosticJson), kept as
  /// strings so the protocol layer stays decoupled from the lint library.
  std::vector<std::string> DiagnosticsJson;
  DedupOutcome Dedup = DedupOutcome::Miss;
  std::string KeyHash; ///< canonical-key hash (dedup debugging)
  double OptMillis = 0.0;
  double CompileMillis = 0.0;
  /// Per-stage wall times ("opt.stage0", "lint", "compile", ...) in
  /// execution order. Not serialized onto the wire; feeds the flight
  /// recorder and the slow-request log. Only the dedup owner carries
  /// them (duplicates did not run the stages).
  std::vector<std::pair<std::string, double>> StageMillis;
};

/// Renders \p R as one JSON line (no trailing newline).
std::string renderResponse(const Response &R);

} // namespace serve
} // namespace ltp

#endif // LTP_SERVE_PROTOCOL_H
