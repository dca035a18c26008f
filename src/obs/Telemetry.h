//===- Telemetry.h - spans and trace export ---------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the telemetry layer: RAII *scoped spans*
/// recording wall-clock intervals into per-thread buffers, exported as a
/// Chrome-trace-event JSON file that Perfetto and chrome://tracing load
/// directly (`writeTrace`). Counters, gauges and histograms live in the
/// metrics registry (Metrics.h), included here so that every
/// instrumented layer reaches `obs::counter` through this header.
///
/// Tracing is off by default. It is enabled programmatically
/// (`setTracingEnabled`) — the `--trace-json=FILE` flag of ltp-opt and of
/// the bench harness does this — or by setting `LTP_TRACE=1` in the
/// environment. When disabled, a span costs one relaxed atomic load and
/// performs no allocation; compiling with `-DLTP_OBS_DISABLED` removes
/// even that. Tracing never feeds back into optimization decisions, so
/// enabling it cannot perturb schedules (DeterminismTest pins this).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_TELEMETRY_H
#define LTP_OBS_TELEMETRY_H

#include "obs/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

namespace ltp {
namespace obs {

//===----------------------------------------------------------------------===//
// Runtime toggle
//===----------------------------------------------------------------------===//

namespace detail {
/// The master switch. Initialized once from LTP_TRACE; flipped by
/// setTracingEnabled.
extern std::atomic<bool> TracingEnabled;
} // namespace detail

/// True when span recording is active.
inline bool tracingEnabled() {
#ifdef LTP_OBS_DISABLED
  return false;
#else
  return detail::TracingEnabled.load(std::memory_order_relaxed);
#endif
}

/// Turns span recording on or off (on also honours LTP_TRACE=1 at
/// process start, checked during static initialization).
void setTracingEnabled(bool Enabled);

//===----------------------------------------------------------------------===//
// Scoped spans
//===----------------------------------------------------------------------===//

/// RAII span: records [construction, destruction) on the calling thread.
/// \p Name must be a string literal (stored by pointer). Inactive spans
/// (tracing disabled at construction) cost nothing on destruction.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Name(Name) {
    if (tracingEnabled())
      StartNs = nowNs();
  }

  /// Deferred-args form: \p ArgsFn is only invoked (and its string only
  /// allocated) when tracing is enabled.
  template <typename ArgsFnT>
  ScopedSpan(const char *Name, ArgsFnT &&ArgsFn) : Name(Name) {
    if (tracingEnabled()) {
      StartNs = nowNs();
      Args = std::forward<ArgsFnT>(ArgsFn)();
    }
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// True when this span is recording (callers use this to skip building
  /// detail strings for setArgs).
  bool active() const { return StartNs >= 0; }

  /// Replaces the span's detail string; useful when the interesting
  /// detail (iteration counts, cache-hit outcome) is only known at the
  /// end of the scope.
  void setArgs(std::string NewArgs) {
    if (active())
      Args = std::move(NewArgs);
  }

  ~ScopedSpan() {
    if (StartNs >= 0)
      record();
  }

  /// Nanoseconds since the process-wide trace epoch.
  static int64_t nowNs();

private:
  void record();

  const char *Name;
  std::string Args;
  int64_t StartNs = -1;
};

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

/// Writes every recorded span (all threads) plus one terminal sample per
/// counter of a metrics snapshot as Chrome trace events:
/// `{"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...}]}`.
/// Timestamps are microseconds from the trace epoch. Returns false and
/// fills \p Error on I/O failure.
bool writeTrace(const std::string &Path, std::string *Error = nullptr);

/// Number of span events currently buffered across all threads.
size_t traceEventCount();

/// Discards all buffered span events (tests).
void clearTrace();

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_TELEMETRY_H
