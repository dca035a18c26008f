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

std::future<BatchCompiler::BatchResult>
BatchCompiler::submit(std::vector<CompileJob> Jobs, std::string RequestId) {
  Pending P;
  P.Jobs = std::move(Jobs);
  P.RequestId = std::move(RequestId);
  std::future<BatchResult> F = P.Result.get_future();
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
    // Swallow everything pending; batches arriving while compileMany
    // runs coalesce into the next flush.
    std::vector<Pending> Taken;
    Taken.swap(Queue);
    queueDepthGauge().set(0);
    Lock.unlock();

    std::vector<CompileJob> All;
    for (const Pending &P : Taken)
      All.insert(All.end(), P.Jobs.begin(), P.Jobs.end());
    obs::ScopedSpan Span("serve.batch", [&] {
      std::string Detail =
          strFormat("batches=%zu jobs=%zu", Taken.size(), All.size());
      for (const Pending &P : Taken)
        if (!P.RequestId.empty())
          Detail += " rid=" + P.RequestId;
      return Detail;
    });
    flushesCounter().add();
    jobsCounter().add(static_cast<int64_t>(All.size()));

    BatchResult Results = Compiler.compileMany(All);
    size_t Offset = 0;
    for (Pending &P : Taken) {
      BatchResult Own;
      Own.reserve(P.Jobs.size());
      for (size_t I = 0; I != P.Jobs.size(); ++I)
        Own.push_back(std::move(Results[Offset + I]));
      Offset += P.Jobs.size();
      P.Result.set_value(std::move(Own));
    }

    Lock.lock();
  }
}
