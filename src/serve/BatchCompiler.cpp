//===- BatchCompiler.cpp - cross-request async compile batching -----------===//

#include "serve/BatchCompiler.h"

#include "obs/Telemetry.h"
#include "support/Format.h"

using namespace ltp;
using namespace ltp::serve;

namespace {

obs::Gauge &queueDepthGauge() {
  static obs::Gauge &G = obs::gauge("serve.batch_queue_depth");
  return G;
}
obs::Counter &flushesCounter() {
  static obs::Counter &C = obs::counter("serve.batch.flushes");
  return C;
}
obs::Counter &jobsCounter() {
  static obs::Counter &C = obs::counter("serve.batch.jobs");
  return C;
}

} // namespace

BatchCompiler::BatchCompiler(JITCompiler &Compiler) : Compiler(Compiler) {
  Drainer = std::thread([this] { drainLoop(); });
}

BatchCompiler::~BatchCompiler() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  HasWork.notify_all();
  Drainer.join();
}

std::future<ErrorOr<CompiledPipeline>>
BatchCompiler::submit(PipelineCompileJob Job, std::string RequestId) {
  Pending P;
  P.Job = std::move(Job);
  P.RequestId = std::move(RequestId);
  std::future<ErrorOr<CompiledPipeline>> F = P.Result.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(P));
    queueDepthGauge().set(static_cast<int64_t>(Queue.size()));
  }
  HasWork.notify_one();
  return F;
}

void BatchCompiler::drainLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    HasWork.wait(Lock, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty() && Stopping)
      return;
    // Swallow everything pending; submissions arriving while the
    // compiler runs coalesce into the next flush.
    std::vector<Pending> Taken;
    Taken.swap(Queue);
    queueDepthGauge().set(0);
    Lock.unlock();

    std::vector<PipelineCompileJob> Jobs;
    size_t Stages = 0;
    for (Pending &P : Taken) {
      Stages += P.Job.Stages.size();
      Jobs.push_back(std::move(P.Job));
    }
    obs::ScopedSpan Span("serve.batch", [&] {
      std::string Detail =
          strFormat("batches=%zu jobs=%zu", Taken.size(), Stages);
      for (const Pending &P : Taken)
        if (!P.RequestId.empty())
          Detail += " rid=" + P.RequestId;
      return Detail;
    });
    flushesCounter().add();
    jobsCounter().add(static_cast<int64_t>(Stages));

    std::vector<ErrorOr<CompiledPipeline>> Results =
        compilePipelines(Jobs, Compiler);
    for (size_t I = 0; I != Taken.size(); ++I)
      Taken[I].Result.set_value(std::move(Results[I]));

    Lock.lock();
  }
}
