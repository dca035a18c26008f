//===- Common.h - shared pieces of the benchmark runner ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Options, statistics, the result line and the benchmark's own span
/// recorder. Spans recorded here wrap calls into the project's layers from
/// the runner's side; they are kept in memory and written once, as a
/// Chrome-trace file that `ltp-trace-check` validates.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_COMMON_H
#define LTP_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Small sizes and short phases: the self-test of every workload.
  bool Tiny = false;
  /// The ltp-serve binary to spawn.
  std::string ServeBinary;
  /// Absolute path of this run's private directory (the process cwd).
  std::string RunDir;
  /// Where the traced run writes its span file.
  std::string TraceOut;
};

/// Seconds on the steady clock since an arbitrary epoch.
double nowSeconds();

/// Linear-interpolated quantile of \p Values (copied and sorted); -1 when
/// empty.
double quantile(std::vector<double> Values, double Q);

inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// Geometric mean of positive values.
double geomean(const std::vector<double> &Values);

/// The run's outcome: metric values plus the attempted/failed tally that
/// the result line carries.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one attempted operation and whether it failed.
  void attempt(bool Ok, const std::string &What = "");
  /// Counts \p N attempts of which \p NumFailed failed.
  void attempts(int64_t N, int64_t NumFailed, const std::string &What);
  /// A failure not tied to a counted attempt (a check that could not run).
  void fail(const std::string &What);

  /// Prints the failures and metrics, human-readable, to stderr.
  void printTable(const Options &Opts) const;
  /// The JSON result line.
  std::string jsonLine() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  bool Broken = false;
  std::vector<std::string> FailureNotes;
  mutable std::mutex Mu;
};

/// The runner's own spans (name, start, end, parent, request id).
class SpanRecorder {
public:
  /// Opens a span; returns its id. \p Parent is 0 for a root span.
  int begin(const char *Name, int Parent, const std::string &RequestId);
  /// Closes span \p Id and returns its duration in milliseconds.
  double end(int Id);
  /// Writes every span as Chrome-trace JSON; false on I/O failure.
  bool write(const std::string &Path) const;
  size_t size() const { return Spans.size(); }

private:
  struct Span {
    const char *Name;
    int Parent;
    std::string RequestId;
    double Start;
    double End = -1.0;
  };
  std::vector<Span> Spans;
};

/// RAII helper over SpanRecorder.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, const char *Name, int Parent,
             const std::string &RequestId)
      : Rec(Rec), Id(Rec.begin(Name, Parent, RequestId)) {}
  ~ScopedSpan() {
    if (Open)
      Rec.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int id() const { return Id; }
  /// Closes the span early and returns its duration in milliseconds.
  double close() {
    Open = false;
    return Rec.end(Id);
  }

private:
  SpanRecorder &Rec;
  int Id;
  bool Open = true;
};

/// Workload entry points. Each fills \p R and returns nonzero only when
/// the run could not take place at all (no result is printed then).
int runColdCompile(const Options &Opts, Result &R);
int runColdPlan(const Options &Opts, Result &R);
int runWarmServe(const Options &Opts, Result &R);
int runKernelRun(const Options &Opts, Result &R);
/// The traced run of any workload: per-layer metrics only.
int traceWorkload(const Options &Opts, Result &R);

/// Reads a whole file; empty when unreadable.
std::string readFile(const std::string &Path);

} // namespace perfbench

#endif // LTP_PERFBENCH_COMMON_H
