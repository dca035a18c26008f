//===- Telemetry.cpp - spans and trace export -----------------------------===//

#include "obs/Telemetry.h"

#include "obs/Log.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

using namespace ltp;
using namespace ltp::obs;

//===----------------------------------------------------------------------===//
// Runtime toggle
//===----------------------------------------------------------------------===//

namespace {

bool envTraceRequested() {
  const char *Env = std::getenv("LTP_TRACE"); // NOLINT(concurrency-mt-unsafe)
  return Env && std::string(Env) != "0" && std::string(Env) != "";
}

} // namespace

std::atomic<bool> ltp::obs::detail::TracingEnabled{envTraceRequested()};

void ltp::obs::setTracingEnabled(bool Enabled) {
  detail::TracingEnabled.store(Enabled, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Clock
//===----------------------------------------------------------------------===//

namespace {

using SteadyClock = std::chrono::steady_clock;

SteadyClock::time_point traceEpoch() {
  static const SteadyClock::time_point Epoch = SteadyClock::now();
  return Epoch;
}

/// Forces the epoch to be taken during static initialization so the
/// first span does not pay for it (and timestamps are process-relative).
[[maybe_unused]] const SteadyClock::time_point EpochAnchor = traceEpoch();

} // namespace

int64_t ScopedSpan::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - traceEpoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Span buffers
//===----------------------------------------------------------------------===//

namespace {

struct SpanEvent {
  const char *Name;
  std::string Args;
  std::string Rid; ///< request ID bound to the thread when recorded
  int64_t StartNs;
  int64_t DurNs;
};

/// Per-thread event buffer. Only the owning thread appends; writeTrace
/// and clearTrace read/clear from arbitrary threads, so every access is
/// under the buffer's own mutex (the critical sections are tiny and the
/// lock is uncontended in steady state).
struct ThreadBuffer {
  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid) {}
  uint32_t Tid;
  std::mutex Mutex;
  std::vector<SpanEvent> Events;
};

struct BufferRegistry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  uint32_t NextTid = 1;
};

BufferRegistry &bufferRegistry() {
  static BufferRegistry *Registry = new BufferRegistry(); // never destroyed:
  // worker threads may record spans during process teardown.
  return *Registry;
}

ThreadBuffer &threadBuffer() {
  thread_local ThreadBuffer *Buffer = [] {
    BufferRegistry &Registry = bufferRegistry();
    std::lock_guard<std::mutex> Lock(Registry.Mutex);
    Registry.Buffers.push_back(
        std::make_unique<ThreadBuffer>(Registry.NextTid++));
    return Registry.Buffers.back().get();
  }();
  return *Buffer;
}

} // namespace

void ScopedSpan::record() {
  int64_t EndNs = nowNs();
  ThreadBuffer &Buffer = threadBuffer();
  std::lock_guard<std::mutex> Lock(Buffer.Mutex);
  Buffer.Events.push_back(SpanEvent{Name, std::move(Args),
                                    currentRequestId(), StartNs,
                                    EndNs - StartNs});
}

size_t ltp::obs::traceEventCount() {
  BufferRegistry &Registry = bufferRegistry();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  size_t Count = 0;
  for (const auto &Buffer : Registry.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->Mutex);
    Count += Buffer->Events.size();
  }
  return Count;
}

void ltp::obs::clearTrace() {
  BufferRegistry &Registry = bufferRegistry();
  std::lock_guard<std::mutex> Lock(Registry.Mutex);
  for (const auto &Buffer : Registry.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->Mutex);
    Buffer->Events.clear();
  }
}

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

bool ltp::obs::writeTrace(const std::string &Path, std::string *Error) {
  // Snapshot all buffers (brief per-buffer locks), then format outside
  // any lock.
  struct Snapshot {
    uint32_t Tid;
    std::vector<SpanEvent> Events;
  };
  std::vector<Snapshot> Snapshots;
  {
    BufferRegistry &Registry = bufferRegistry();
    std::lock_guard<std::mutex> Lock(Registry.Mutex);
    for (const auto &Buffer : Registry.Buffers) {
      std::lock_guard<std::mutex> BufferLock(Buffer->Mutex);
      Snapshots.push_back(Snapshot{Buffer->Tid, Buffer->Events});
    }
  }

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open trace file for writing: " + Path;
    return false;
  }

  std::fputs("{\"traceEvents\":[\n", Out);
  bool First = true;
  auto Comma = [&] {
    if (!First)
      std::fputs(",\n", Out);
    First = false;
  };

  // Thread-name metadata so Perfetto labels the tracks.
  for (const Snapshot &S : Snapshots) {
    Comma();
    std::fprintf(Out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 S.Tid,
                 S.Tid == 1 ? "main" : strFormat("worker-%u", S.Tid).c_str());
  }

  int64_t MaxEndNs = 0;
  for (const Snapshot &S : Snapshots) {
    for (const SpanEvent &E : S.Events) {
      MaxEndNs = std::max(MaxEndNs, E.StartNs + E.DurNs);
      Comma();
      std::fprintf(Out,
                   "{\"name\":\"%s\",\"cat\":\"ltp\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                   jsonEscape(E.Name).c_str(),
                   static_cast<double>(E.StartNs) / 1e3,
                   static_cast<double>(E.DurNs) / 1e3, S.Tid);
      if (!E.Args.empty() || !E.Rid.empty()) {
        std::fputs(",\"args\":{", Out);
        if (!E.Args.empty())
          std::fprintf(Out, "\"detail\":\"%s\"", jsonEscape(E.Args).c_str());
        if (!E.Rid.empty())
          std::fprintf(Out, "%s\"rid\":\"%s\"", E.Args.empty() ? "" : ",",
                       jsonEscape(E.Rid).c_str());
        std::fputs("}", Out);
      }
      std::fputs("}", Out);
    }
  }

  // One terminal sample per counter, as Chrome counter events.
  for (const auto &[Name, Value] : snapshotMetrics().Counters) {
    Comma();
    std::fprintf(Out,
                 "{\"name\":\"%s\",\"cat\":\"ltp\",\"ph\":\"C\","
                 "\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%lld}}",
                 jsonEscape(Name).c_str(),
                 static_cast<double>(MaxEndNs) / 1e3,
                 static_cast<long long>(Value));
  }

  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", Out);
  bool Ok = std::fclose(Out) == 0;
  if (!Ok && Error)
    *Error = "error writing trace file: " + Path;
  return Ok;
}
