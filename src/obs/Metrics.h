//===- Metrics.h - the metrics registry and its renderers -------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one metrics registry of the telemetry layer. It hands out three
/// kinds of named handle:
///
///  * `Counter` — monotonic, always on (one relaxed fetch_add per bump);
///  * `Gauge` — a point-in-time value that may go down;
///  * `Histogram` — a lock-free log-linear latency distribution.
///
/// `snapshotMetrics()` copies every registered metric into one
/// `MetricsSnapshot`, and every output surface is a renderer of that
/// snapshot: the Prometheus text of the `metrics` serve op and of
/// `MetricsSnapshotter`, the `stats` op's JSON, the bench `--json`
/// counters block, the `telemetry :` footer and the trace's counter
/// events (`writeTrace`).
///
/// Histograms use log-linear bucketing over nanoseconds: each power-of-2
/// octave is split into 8 linear sub-buckets, bounding the relative
/// bucket width at 12.5% across the full uint64 range with 496 fixed
/// buckets. An observation is two relaxed fetch_adds (bucket count and
/// running sum) — no locks, no allocation — so per-request recording is
/// safe on the serve hot path. Snapshots from concurrent threads are
/// mergeable by bucket-wise addition, and quantiles (p50/p90/p99/p99.9)
/// are derived from any snapshot by a cumulative-rank walk with linear
/// interpolation inside the landing bucket.
///
/// Counters are always on. Histogram observations (and gauges whose
/// call site chooses to) honour `metricsEnabled()`: callers guard their
/// observe calls, and `-DLTP_OBS_DISABLED` compiles the guard to a
/// constant false.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_OBS_METRICS_H
#define LTP_OBS_METRICS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ltp {
namespace obs {

//===----------------------------------------------------------------------===//
// Runtime toggle
//===----------------------------------------------------------------------===//

namespace detail {
/// Master switch for metric recording. On by default; LTP_METRICS=0 in
/// the environment or setMetricsEnabled(false) turns it off.
extern std::atomic<bool> MetricsEnabled;
} // namespace detail

/// True when guarded histogram/gauge recording is active.
inline bool metricsEnabled() {
#ifdef LTP_OBS_DISABLED
  return false;
#else
  return detail::MetricsEnabled.load(std::memory_order_relaxed);
#endif
}

/// Turns metric recording on or off (bench/serve_load measures the
/// overhead of the "on" state against this "off" state).
void setMetricsEnabled(bool Enabled);

//===----------------------------------------------------------------------===//
// Counter
//===----------------------------------------------------------------------===//

/// One named monotonic counter, always on.
class Counter {
public:
  Counter() = default;
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(int64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend void resetCounters();
  std::atomic<int64_t> Value{0};
};

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Lock-free log-linear latency histogram over milliseconds (stored as
/// nanosecond buckets). Thread-safe: observe() from any number of
/// threads concurrently with snapshot().
class Histogram {
public:
  /// Sub-buckets per power-of-2 octave (8 → 12.5% max relative error
  /// before interpolation).
  static constexpr int SubBits = 3;
  static constexpr int SubBuckets = 1 << SubBits;
  /// Buckets 0..SubBuckets-1 cover [0, SubBuckets) ns linearly; each
  /// later block of SubBuckets covers one octave.
  static constexpr size_t NumBuckets =
      static_cast<size_t>(64 - SubBits + 1) * SubBuckets;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Records one latency observation. Two relaxed fetch_adds; negative
  /// values clamp to zero.
  void observe(double Millis);

  /// A point-in-time copy of the bucket counts, mergeable across
  /// histograms (per-thread or per-shard) by bucket-wise addition.
  struct Snapshot {
    std::vector<uint64_t> Counts; ///< size NumBuckets
    double SumMillis = 0.0;
    uint64_t Count = 0;

    /// Adds \p Other bucket-wise (the merge used to combine per-thread
    /// histograms into one distribution).
    void merge(const Snapshot &Other);

    /// Quantile in milliseconds by cumulative-rank walk with linear
    /// interpolation inside the landing bucket. \p Q in [0, 1]. Returns
    /// a negative value when the snapshot is empty.
    double quantile(double Q) const;
  };

  Snapshot snapshot() const;

  /// The bucket an observation of \p Nanos lands in.
  static size_t bucketIndex(uint64_t Nanos);
  /// Inclusive lower / exclusive upper bucket bounds in milliseconds
  /// (computed in double to avoid overflow on the top octave).
  static double bucketLowerMillis(size_t Index);
  static double bucketUpperMillis(size_t Index);

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> SumNanos{0};
};

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

/// A point-in-time value (queue depth, live connections, table size).
/// Unlike Counter, a gauge is expected to go down.
class Gauge {
public:
  Gauge() = default;
  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

//===----------------------------------------------------------------------===//
// Registry and snapshot
//===----------------------------------------------------------------------===//

/// Find or create the metric of that kind named \p Name. Thread-safe; the
/// returned reference stays valid for the process lifetime — cache it in
/// a function-local static when recording from a hot path.
Counter &counter(const std::string &Name);
Gauge &gauge(const std::string &Name);
Histogram &histogram(const std::string &Name);

/// Zeroes every registered counter; handles stay valid (tests).
void resetCounters();

using NamedValues = std::vector<std::pair<std::string, int64_t>>;

/// A point-in-time copy of every registered metric, each kind sorted by
/// name.
struct MetricsSnapshot {
  NamedValues Counters;
  NamedValues Gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> Histograms;
};

MetricsSnapshot snapshotMetrics();

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

/// Renders \p Values as a JSON object of integers: `{"a": 1, "b": 2}` on
/// one line, or one member per line when \p Indent is non-empty (members
/// at \p Indent plus two spaces, the closing brace at \p Indent).
std::string renderJsonObject(const NamedValues &Values,
                             const std::string &Indent = "");

/// The `stats` op's members: `"counters": {...}, "gauges": {...}`.
std::string renderStatsJson(const MetricsSnapshot &S);

/// The `telemetry :` footer line (every counter, then every gauge, as
/// `name=value`), or an empty string when nothing is registered.
std::string renderFooter(const MetricsSnapshot &S);

/// Mangles a registry name into a Prometheus metric name: "ltp_" prefix,
/// non-alphanumerics to '_' ("serve.request_ms" → "ltp_serve_request_ms").
std::string prometheusName(const std::string &Name);

/// Renders every counter, gauge and histogram of \p S in Prometheus text
/// exposition format (`# TYPE` line per family; cumulative `_bucket`
/// samples with an explicit `+Inf`, then `_sum` and `_count`, per
/// histogram). Empty histogram buckets are elided.
std::string renderPrometheusText(const MetricsSnapshot &S);

/// Writes the Prometheus text of a fresh snapshot to \p Path (atomically,
/// via a .tmp rename). Returns false and fills \p Error on I/O failure.
bool writeMetricsSnapshot(const std::string &Path,
                          std::string *Error = nullptr);

/// Background thread writing a metrics snapshot to a file every
/// \p IntervalSeconds, plus once on destruction, so an external scraper
/// (or a human with `cat`) always finds a recent exposition.
class MetricsSnapshotter {
public:
  MetricsSnapshotter(std::string Path, double IntervalSeconds);
  MetricsSnapshotter(const MetricsSnapshotter &) = delete;
  MetricsSnapshotter &operator=(const MetricsSnapshotter &) = delete;
  ~MetricsSnapshotter();

  /// Stops the periodic thread after one final snapshot (idempotent).
  void stop();

private:
  struct Impl;
  Impl *State;
};

} // namespace obs
} // namespace ltp

#endif // LTP_OBS_METRICS_H
