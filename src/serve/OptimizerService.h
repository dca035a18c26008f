//===- OptimizerService.h - stateless optimization-as-a-service -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-side optimization engine behind `tools/ltp-serve`: a
/// thread-safe, stateless-per-request service that turns canonicalized
/// requests into verified schedules and ready-to-`dlopen` kernels.
///
/// Layering (top to bottom):
///
///   handle(Request)
///     └─ canonicalize → dedup table: identical kernel+platform+mode
///        requests — in flight *or* completed — share one optimization
///        and one compile (`serve.dedup.{miss,inflight,cached}`)
///     └─ Session (per-request state): build the benchmark's shape,
///        schedule each stage (core optimize(), or a verified user
///        schedule), lower and bounds-check it into a compile job
///        (makeCompileJob)
///     └─ compilePipelines on the session's own thread: one compileMany
///        per request, so a slow compile never holds up another request
///     └─ JITCompiler: sharded in-process memo over the flock-guarded
///        content-addressed `.so` disk cache — the shared kernel store;
///        at most one `cc` per pool thread runs at once (`jit.cc_wait`)
///
/// The in-memory result cache is the dedup table itself: completed
/// entries stay resident, so a warm hit costs one map lookup plus
/// response serialization (no optimizer, no JIT, no disk).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_SERVE_OPTIMIZERSERVICE_H
#define LTP_SERVE_OPTIMIZERSERVICE_H

#include "jit/JIT.h"
#include "serve/Protocol.h"

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ltp {
namespace serve {

struct Session;

/// Service configuration (daemon flags).
struct ServiceOptions {
  /// Globally disable kernel compilation (schedule-only service).
  bool DisableCompile = false;
};

/// See file comment. One instance per daemon; handle() is called
/// concurrently from every connection handler.
class OptimizerService {
public:
  explicit OptimizerService(ServiceOptions Opts = {});
  ~OptimizerService();

  OptimizerService(const OptimizerService &) = delete;
  OptimizerService &operator=(const OptimizerService &) = delete;

  /// Serves one optimize request (thread-safe, blocking). Mints a
  /// request ID when the transport layer did not, binds it to the
  /// handling thread (logs/spans/provenance), and records a
  /// flight-recorder digest for every outcome.
  Response handle(const Request &Req);

  /// The shared kernel store underneath (tests and stats).
  JITCompiler &compiler() { return Compiler; }

  /// Completed + in-flight entries in the dedup table.
  size_t dedupTableSize();

private:
  /// One dedup-table entry: the first request with a given canonical key
  /// owns it and computes; duplicates wait on Ready, then copy the
  /// published response template.
  struct Entry {
    std::mutex Mu;
    std::condition_variable Ready;
    bool Done = false;
    Response Template;
  };

  /// Dedup lookup + owner/duplicate resolution (the body of handle()
  /// minus per-request observability).
  Response handleKeyed(const Request &Req);

  /// Per-request epilogue: stamps the request ID onto \p R, observes the
  /// latency histogram, records the flight-recorder digest, and emits
  /// the structured request / slow-request log lines.
  void finishRequest(const Request &Req, Response &R, double TotalMillis);

  /// Runs a full per-request session (dedup miss path); returns the
  /// response template.
  Response runSession(const Request &Req, const ArchParams &Arch,
                      const std::string &Key);

  /// Schedules every stage of the session's instance (optimizer search
  /// or verified user-schedule replay). Returns false after filling the
  /// error fields of the session response.
  bool scheduleSession(Session &Sess);

  /// Lowers and compiles the scheduled session on the calling thread,
  /// filling SoPaths. Returns false on a bounds or compile failure.
  bool compileSession(Session &Sess);

  ServiceOptions Opts;
  JITCompiler Compiler;
  std::mutex TableMu;
  std::map<std::string, std::shared_ptr<Entry>> Table;
};

} // namespace serve
} // namespace ltp

#endif // LTP_SERVE_OPTIMIZERSERVICE_H
