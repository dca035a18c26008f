//===- Metrics.cpp - the metrics registry and its renderers ---------------===//

#include "obs/Metrics.h"

#include "obs/Log.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

using namespace ltp;
using namespace ltp::obs;

//===----------------------------------------------------------------------===//
// Runtime toggle
//===----------------------------------------------------------------------===//

namespace {

bool envMetricsEnabled() {
  const char *Env = std::getenv("LTP_METRICS"); // NOLINT(concurrency-mt-unsafe)
  return !Env || std::string(Env) != "0";
}

} // namespace

std::atomic<bool> ltp::obs::detail::MetricsEnabled{envMetricsEnabled()};

void ltp::obs::setMetricsEnabled(bool Enabled) {
  detail::MetricsEnabled.store(Enabled, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

/// Converts a millisecond observation to clamped nanoseconds.
uint64_t nanosFromMillis(double Millis) {
  if (!(Millis > 0.0))
    return 0;
  // Anything above ~2^63 ns (centuries) saturates the top bucket.
  if (Millis >= 9.0e12)
    return UINT64_MAX;
  return static_cast<uint64_t>(Millis * 1e6);
}

int floorLog2(uint64_t V) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(V);
#else
  int E = 0;
  while (V >>= 1)
    ++E;
  return E;
#endif
}

} // namespace

size_t Histogram::bucketIndex(uint64_t Nanos) {
  if (Nanos < static_cast<uint64_t>(SubBuckets))
    return static_cast<size_t>(Nanos);
  int Exp = floorLog2(Nanos); // >= SubBits
  size_t Sub = (Nanos >> (Exp - SubBits)) & (SubBuckets - 1);
  return static_cast<size_t>(Exp - SubBits + 1) * SubBuckets + Sub;
}

double Histogram::bucketLowerMillis(size_t Index) {
  if (Index < static_cast<size_t>(SubBuckets))
    return static_cast<double>(Index) / 1e6;
  int Shift = static_cast<int>(Index / SubBuckets) - 1;
  double Base = static_cast<double>(SubBuckets + Index % SubBuckets);
  return std::ldexp(Base, Shift) / 1e6;
}

double Histogram::bucketUpperMillis(size_t Index) {
  if (Index < static_cast<size_t>(SubBuckets))
    return static_cast<double>(Index + 1) / 1e6;
  int Shift = static_cast<int>(Index / SubBuckets) - 1;
  double Base = static_cast<double>(SubBuckets + Index % SubBuckets + 1);
  return std::ldexp(Base, Shift) / 1e6;
}

void Histogram::observe(double Millis) {
  uint64_t Nanos = nanosFromMillis(Millis);
  Buckets[bucketIndex(Nanos)].fetch_add(1, std::memory_order_relaxed);
  SumNanos.fetch_add(Nanos, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot S;
  S.Counts.resize(NumBuckets);
  for (size_t I = 0; I != NumBuckets; ++I) {
    uint64_t N = Buckets[I].load(std::memory_order_relaxed);
    S.Counts[I] = N;
    S.Count += N;
  }
  S.SumMillis =
      static_cast<double>(SumNanos.load(std::memory_order_relaxed)) / 1e6;
  return S;
}

void Histogram::Snapshot::merge(const Snapshot &Other) {
  if (Counts.size() < Other.Counts.size())
    Counts.resize(Other.Counts.size());
  for (size_t I = 0; I != Other.Counts.size(); ++I)
    Counts[I] += Other.Counts[I];
  SumMillis += Other.SumMillis;
  Count += Other.Count;
}

double Histogram::Snapshot::quantile(double Q) const {
  if (Count == 0)
    return -1.0;
  Q = std::min(1.0, std::max(0.0, Q));
  double Rank = std::max(1.0, Q * static_cast<double>(Count));
  uint64_t Cumulative = 0;
  for (size_t I = 0; I != Counts.size(); ++I) {
    if (Counts[I] == 0)
      continue;
    uint64_t Previous = Cumulative;
    Cumulative += Counts[I];
    if (static_cast<double>(Cumulative) >= Rank) {
      double Lower = Histogram::bucketLowerMillis(I);
      double Upper = Histogram::bucketUpperMillis(I);
      double Frac =
          (Rank - static_cast<double>(Previous)) /
          static_cast<double>(Counts[I]);
      return Lower + (Upper - Lower) * Frac;
    }
  }
  return Histogram::bucketUpperMillis(Counts.size() - 1);
}

//===----------------------------------------------------------------------===//
// Registry and snapshot
//===----------------------------------------------------------------------===//

namespace {

/// The one registry, never destroyed (worker threads may record during
/// process teardown). unique_ptr entries keep handle addresses stable.
struct Registry {
  std::mutex Mutex;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

Registry &registry() {
  static Registry *R = new Registry();
  return *R;
}

template <typename T>
T &findOrCreate(std::map<std::string, std::unique_ptr<T>> Registry::*Kind,
                const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::unique_ptr<T> &Slot = (R.*Kind)[Name];
  if (!Slot)
    Slot = std::make_unique<T>();
  return *Slot;
}

} // namespace

Counter &ltp::obs::counter(const std::string &Name) {
  return findOrCreate(&Registry::Counters, Name);
}

Gauge &ltp::obs::gauge(const std::string &Name) {
  return findOrCreate(&Registry::Gauges, Name);
}

Histogram &ltp::obs::histogram(const std::string &Name) {
  return findOrCreate(&Registry::Histograms, Name);
}

void ltp::obs::resetCounters() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (auto &[Name, C] : R.Counters)
    C->Value.store(0, std::memory_order_relaxed);
}

MetricsSnapshot ltp::obs::snapshotMetrics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  MetricsSnapshot S; // std::map iteration is already name-sorted
  for (const auto &[Name, C] : R.Counters)
    S.Counters.emplace_back(Name, C->value());
  for (const auto &[Name, G] : R.Gauges)
    S.Gauges.emplace_back(Name, G->value());
  for (const auto &[Name, H] : R.Histograms)
    S.Histograms.emplace_back(Name, H->snapshot());
  return S;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

std::string ltp::obs::renderJsonObject(const NamedValues &Values,
                                       const std::string &Indent) {
  if (Values.empty())
    return "{}";
  const std::string Open = Indent.empty() ? "" : "\n" + Indent + "  ";
  const std::string Sep = Indent.empty() ? ", " : "," + Open;
  std::string Out = "{" + Open;
  for (size_t I = 0; I != Values.size(); ++I)
    Out += (I ? Sep : "") + "\"" + jsonEscape(Values[I].first) +
           "\": " + std::to_string(Values[I].second);
  return Out + (Indent.empty() ? "}" : "\n" + Indent + "}");
}

std::string ltp::obs::renderStatsJson(const MetricsSnapshot &S) {
  return "\"counters\": " + renderJsonObject(S.Counters) +
         ", \"gauges\": " + renderJsonObject(S.Gauges);
}

std::string ltp::obs::renderFooter(const MetricsSnapshot &S) {
  if (S.Counters.empty() && S.Gauges.empty())
    return "";
  std::string Out = "telemetry        :";
  for (const NamedValues *Values : {&S.Counters, &S.Gauges})
    for (const auto &[Name, Value] : *Values)
      Out += " " + Name + "=" + std::to_string(Value);
  return Out + "\n";
}

std::string ltp::obs::prometheusName(const std::string &Name) {
  std::string Out = "ltp_";
  Out.reserve(Name.size() + 4);
  for (char C : Name) {
    bool Alnum = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                 (C >= '0' && C <= '9');
    Out += Alnum ? C : '_';
  }
  return Out;
}

std::string ltp::obs::renderPrometheusText(const MetricsSnapshot &S) {
  std::string Out;
  Out.reserve(4096);

  for (const auto &[Kind, Values] :
       {std::make_pair("counter", &S.Counters),
        std::make_pair("gauge", &S.Gauges)})
    for (const auto &[Name, Value] : *Values) {
      std::string PName = prometheusName(Name);
      Out += strFormat("# TYPE %s %s\n%s %lld\n", PName.c_str(), Kind,
                       PName.c_str(), static_cast<long long>(Value));
    }

  for (const auto &[Name, Snap] : S.Histograms) {
    std::string PName = prometheusName(Name);
    Out += strFormat("# TYPE %s histogram\n", PName.c_str());
    uint64_t Cumulative = 0;
    for (size_t I = 0; I != Snap.Counts.size(); ++I) {
      if (Snap.Counts[I] == 0)
        continue; // elide empty buckets; samples stay cumulative
      Cumulative += Snap.Counts[I];
      Out += strFormat("%s_bucket{le=\"%.9g\"} %llu\n", PName.c_str(),
                       Histogram::bucketUpperMillis(I),
                       static_cast<unsigned long long>(Cumulative));
    }
    Out += strFormat("%s_bucket{le=\"+Inf\"} %llu\n", PName.c_str(),
                     static_cast<unsigned long long>(Snap.Count));
    Out += strFormat("%s_sum %.9g\n%s_count %llu\n", PName.c_str(),
                     Snap.SumMillis, PName.c_str(),
                     static_cast<unsigned long long>(Snap.Count));
  }
  return Out;
}

bool ltp::obs::writeMetricsSnapshot(const std::string &Path,
                                    std::string *Error) {
  std::string Text = renderPrometheusText(snapshotMetrics());
  std::string TmpPath = Path + ".tmp";
  std::FILE *Out = std::fopen(TmpPath.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open metrics snapshot file for writing: " + TmpPath;
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), Out) == Text.size();
  Ok = std::fclose(Out) == 0 && Ok;
  if (Ok)
    Ok = std::rename(TmpPath.c_str(), Path.c_str()) == 0;
  if (!Ok && Error)
    *Error = "error writing metrics snapshot: " + Path;
  return Ok;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshotter
//===----------------------------------------------------------------------===//

struct MetricsSnapshotter::Impl {
  std::string Path;
  double IntervalSeconds;
  std::mutex Mutex;
  std::condition_variable Cv;
  bool StopRequested = false;
  std::thread Worker;
};

MetricsSnapshotter::MetricsSnapshotter(std::string Path,
                                       double IntervalSeconds)
    : State(new Impl()) {
  State->Path = std::move(Path);
  State->IntervalSeconds = std::max(0.1, IntervalSeconds);
  State->Worker = std::thread([this] {
    std::unique_lock<std::mutex> Lock(State->Mutex);
    while (!State->StopRequested) {
      auto Interval = std::chrono::duration<double>(State->IntervalSeconds);
      State->Cv.wait_for(Lock, Interval,
                         [this] { return State->StopRequested; });
      if (State->StopRequested)
        break;
      Lock.unlock();
      writeMetricsSnapshot(State->Path);
      Lock.lock();
    }
  });
}

void MetricsSnapshotter::stop() {
  {
    std::lock_guard<std::mutex> Lock(State->Mutex);
    if (State->StopRequested)
      return;
    State->StopRequested = true;
  }
  State->Cv.notify_all();
  if (State->Worker.joinable())
    State->Worker.join();
  writeMetricsSnapshot(State->Path); // final snapshot on shutdown
}

MetricsSnapshotter::~MetricsSnapshotter() {
  stop();
  delete State;
}
