//===- BatchCompiler.h - cross-request async compile batching ---*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Funnels the pipeline compile jobs of concurrent serve sessions into
/// batched `compilePipelines` calls: sessions enqueue their job with a
/// future and continue blocking only on their own result, while a single
/// drainer thread repeatedly swallows *everything* pending and issues one
/// compilePipelines for the union. Requests that arrive while a batch is
/// in the compiler coalesce into the next batch, so a burst of N sessions
/// costs a handful of compileMany calls (each fanning cold builds across
/// the process thread pool) instead of N serialized compiles.
///
/// Telemetry: the gauge `serve.batch_queue_depth` (submissions waiting
/// when the drainer last looked) and the counters `serve.batch.flushes`
/// and `serve.batch.jobs` (stages). Each flush's span lists
/// the request IDs whose jobs it carried, so a batched compile is
/// attributable to the requests that coalesced into it.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_SERVE_BATCHCOMPILER_H
#define LTP_SERVE_BATCHCOMPILER_H

#include "benchmarks/PipelineRunner.h"

#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ltp {
namespace serve {

/// See file comment. Thread-safe; owns its drainer thread.
class BatchCompiler {
public:
  explicit BatchCompiler(JITCompiler &Compiler);
  ~BatchCompiler();

  BatchCompiler(const BatchCompiler &) = delete;
  BatchCompiler &operator=(const BatchCompiler &) = delete;

  /// Enqueues \p Job; the future resolves with its pipeline once the
  /// drainer's compilePipelines containing it returns. \p RequestId, when
  /// non-empty, attributes the job's share of the flush span to the
  /// originating request.
  std::future<ErrorOr<CompiledPipeline>> submit(PipelineCompileJob Job,
                                                std::string RequestId = {});

private:
  struct Pending {
    PipelineCompileJob Job;
    std::promise<ErrorOr<CompiledPipeline>> Result;
    std::string RequestId;
  };

  void drainLoop();

  JITCompiler &Compiler;
  std::mutex Mu;
  std::condition_variable HasWork;
  std::vector<Pending> Queue;
  bool Stopping = false;
  std::thread Drainer;
};

} // namespace serve
} // namespace ltp

#endif // LTP_SERVE_BATCHCOMPILER_H
