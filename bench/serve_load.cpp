//===- serve_load.cpp - ltp-serve load generator and latency bench --------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Replays a duplicate-heavy stream of optimization requests against an
// in-process ltp-serve server over its real Unix-domain socket and
// reports the serving metrics the design targets:
//
//   p50/p99 request latency, warm dedup-hit p50 (< 1 ms target),
//   aggregate throughput, dedup hit rate (>= 50% on a >= 50%-repeat
//   mix), kernel-store hit rate, and the speedup over the
//   one-`ltp-opt`-process-per-request baseline (>= 10x target).
//
// The request mix draws from --unique distinct (kernel, size, platform)
// combinations; everything beyond the first coverage pass is a repeat,
// so --requests 1000 --unique 24 is a ~97.6% duplicate stream. With
// --json the metrics land in BENCH_serve_load.json for
// tools/ltp-bench-diff to gate against bench/baselines/.
//
// Measurement is steady-state: a sequential warmup pass first serves
// every unique request once (cold optimizations + batched compiles into
// the kernel store), then two timed phases replay the duplicate-heavy
// stream against the warm daemon — first with metrics recording and
// JSON logging enabled (the production configuration, reported as the
// "mixed" row), then with both disabled (the "metrics_off" row), so the
// observability overhead is itself a gated number. Latency quantiles
// (p50/p90/p99/p99.9) come from the same log-linear obs::Histogram the
// daemon exports, exercising its merge/quantile math under load. The spawn baseline execs
// `ltp-opt <kernel> --compile` per request against the *same* warm
// content-addressed kernel store (tool located next to this binary,
// overridable with --ltp-opt), so both sides pay only their per-request
// serving cost — process spawn + re-optimization for the baseline, one
// dedup-table lookup for the daemon — which is exactly the cost the
// daemon exists to amortize. Skipped (speedup reported as -1, which
// ltp-bench-diff ignores) when the tool is missing.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "serve/Server.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ltp;
using namespace ltp::bench;

namespace {

struct LoadRequest {
  std::string Kernel;
  int64_t Size = 0;
  std::string Arch;
  std::string Line; ///< serialized request
};

/// The unique-request pool: cheap spatial/no-transform kernels at small
/// sizes across the paper's platforms and the host (the daemon's default
/// platform, probed once per process), so one cold optimization is
/// milliseconds and the bench measures serving, not optimizer search.
std::vector<LoadRequest> buildPool(int Unique) {
  const char *Kernels[] = {"copy", "mask", "tp", "tpm"};
  const int64_t Sizes[] = {64, 96, 128};
  const char *Archs[] = {"6700", "5930k", "a15", "host"};
  std::vector<LoadRequest> Pool;
  for (int64_t Size : Sizes)
    for (const char *Arch : Archs)
      for (const char *Kernel : Kernels) {
        if (static_cast<int>(Pool.size()) == Unique)
          return Pool;
        LoadRequest R;
        R.Kernel = Kernel;
        R.Size = Size;
        R.Arch = Arch;
        R.Line = strFormat("{\"op\": \"optimize\", \"kernel\": \"%s\", "
                           "\"size\": %lld, \"arch\": \"%s\"}",
                           Kernel, static_cast<long long>(Size), Arch);
        Pool.push_back(std::move(R));
      }
  return Pool;
}

int connectTo(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendLine(int Fd, const std::string &Line) {
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::write(Fd, Out.data() + Off, Out.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Reads one newline-terminated response, buffering leftovers per
/// connection.
bool readLine(int Fd, std::string &Buffer, std::string &Line) {
  size_t Pos;
  while ((Pos = Buffer.find('\n')) == std::string::npos) {
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
  Line = Buffer.substr(0, Pos);
  Buffer.erase(0, Pos + 1);
  return true;
}

struct Sample {
  double Millis = 0.0;
  bool Ok = false;
  bool WarmHit = false; ///< served from the completed-entry cache
};

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return -1.0;
  size_t Idx = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

/// Locates the ltp-opt binary next to this executable (build trees place
/// both under sibling directories).
std::string findLtpOpt(const ArgParse &Args) {
  std::string Override = Args.getString("ltp-opt", "");
  if (!Override.empty())
    return ::access(Override.c_str(), X_OK) == 0 ? Override : "";
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  std::string Dir(Buf);
  size_t Slash = Dir.rfind('/');
  if (Slash == std::string::npos)
    return "";
  Dir.resize(Slash);
  for (const char *Candidate : {"/../tools/ltp-opt", "/ltp-opt"}) {
    std::string Path = Dir + Candidate;
    if (::access(Path.c_str(), X_OK) == 0)
      return Path;
  }
  return "";
}

/// One-process-per-request baseline: sequential ltp-opt --compile runs
/// over the same mix, sharing the same disk kernel store. Returns
/// requests/second, or -1 when the tool is unavailable.
double spawnBaselineRps(const std::string &LtpOpt,
                        const std::vector<LoadRequest> &Pool,
                        const std::vector<int> &Schedule, int Spawns) {
  if (LtpOpt.empty() || Spawns <= 0)
    return -1.0;
  auto T0 = std::chrono::steady_clock::now();
  int Ran = 0;
  for (int I = 0; I != Spawns && I != static_cast<int>(Schedule.size());
       ++I) {
    const LoadRequest &R = Pool[Schedule[I]];
    std::string Cmd = strFormat(
        "'%s' %s --size %lld --arch %s --compile >/dev/null 2>&1",
        LtpOpt.c_str(), R.Kernel.c_str(), static_cast<long long>(R.Size),
        R.Arch.c_str());
    if (std::system(Cmd.c_str()) != 0)
      return -1.0;
    ++Ran;
  }
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return Seconds > 0.0 ? Ran / Seconds : -1.0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "serve_load");

  const int Requests = static_cast<int>(Args.getInt("requests", 1000));
  const int Clients = static_cast<int>(Args.getInt("clients", 16));
  const int Unique = static_cast<int>(
      std::max(1L, std::min(Args.getInt("unique", 24), 48L)));
  const unsigned Seed = static_cast<unsigned>(Args.getInt("seed", 42));
  const int Spawns = static_cast<int>(Args.getInt("spawn-requests", 20));

  std::vector<LoadRequest> Pool = buildPool(Unique);
  // The warmup pass covers every unique request once (the true misses);
  // the timed stream samples the pool uniformly, so of the full run's
  // Requests + |Pool| requests, all but |Pool| are duplicates.
  std::vector<int> Schedule;
  Schedule.reserve(Requests);
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int> Pick(
      0, static_cast<int>(Pool.size()) - 1);
  while (static_cast<int>(Schedule.size()) < Requests)
    Schedule.push_back(Pick(Rng));

  std::string SocketPath =
      strFormat("/tmp/ltp-serve-load-%d.sock", static_cast<int>(::getpid()));
  serve::Server Server(SocketPath);
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    reportSkipped("cannot bind " + SocketPath);
    return 1;
  }

  std::printf("serve_load: %d requests, %d clients, %d unique "
              "(%.1f%% duplicates incl. warmup), socket %s\n",
              Requests, Clients, static_cast<int>(Pool.size()),
              100.0 * Requests /
                  std::max(1, Requests + static_cast<int>(Pool.size())),
              SocketPath.c_str());

  // Warmup: serve each unique request once, sequentially, so the timed
  // phase measures steady-state serving rather than one-time cold
  // optimizer searches and cc invocations.
  {
    auto T0 = std::chrono::steady_clock::now();
    int WarmFd = connectTo(SocketPath);
    if (WarmFd < 0) {
      std::fprintf(stderr, "error: warmup connect failed\n");
      reportSkipped("warmup connect failed");
      return 1;
    }
    std::string Buffer, Line;
    for (const LoadRequest &R : Pool) {
      if (!sendLine(WarmFd, R.Line) || !readLine(WarmFd, Buffer, Line) ||
          Line.find("\"ok\": true") == std::string::npos) {
        std::fprintf(stderr, "error: warmup request failed: %s\n",
                     Line.c_str());
        reportSkipped("warmup request failed");
        return 1;
      }
    }
    ::close(WarmFd);
    std::printf("  warmup          : %zu unique requests in %.2f s "
                "(cold optimize + batched compile)\n",
                Pool.size(),
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count());
  }

  std::atomic<int> Failures{0};

  struct PhaseResult {
    std::vector<Sample> Samples;
    double Seconds = 0.0;
    size_t OkCount = 0;
  };

  auto runPhase = [&](const char *Label) {
    PhaseResult Phase;
    Phase.Samples.assign(static_cast<size_t>(Requests), Sample{});
    std::atomic<int> Next{0};

    auto Worker = [&] {
      int Fd = connectTo(SocketPath);
      if (Fd < 0) {
        Failures.fetch_add(1);
        return;
      }
      std::string Buffer, Line;
      for (;;) {
        int I = Next.fetch_add(1);
        if (I >= Requests)
          break;
        auto T0 = std::chrono::steady_clock::now();
        bool Ok = sendLine(Fd, Pool[Schedule[I]].Line) &&
                  readLine(Fd, Buffer, Line);
        auto T1 = std::chrono::steady_clock::now();
        Sample &S = Phase.Samples[I];
        S.Millis =
            std::chrono::duration<double, std::milli>(T1 - T0).count();
        S.Ok = Ok && Line.find("\"ok\": true") != std::string::npos;
        S.WarmHit = Ok && Line.find("\"dedup\": \"cached\"") !=
                              std::string::npos;
        if (!S.Ok)
          Failures.fetch_add(1);
      }
      ::close(Fd);
    };

    auto Start = std::chrono::steady_clock::now();
    std::vector<std::thread> Threads;
    for (int C = 0; C != Clients; ++C)
      Threads.emplace_back(Worker);
    for (std::thread &T : Threads)
      T.join();
    Phase.Seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    for (const Sample &S : Phase.Samples)
      if (S.Ok)
        ++Phase.OkCount;
    std::printf("  phase %-10s: %zu ok in %.2f s\n", Label, Phase.OkCount,
                Phase.Seconds);
    return Phase;
  };

  // Phase A — the production configuration: histogram/gauge recording on
  // and structured JSON logs at info level (sunk to /dev/null so the
  // bench pays the formatting cost, not the terminal's).
  obs::setMetricsEnabled(true);
  obs::setLogFile("/dev/null");
  obs::setLogLevel(obs::LogLevel::Info);
  PhaseResult OnPhase = runPhase("metrics_on");

  // Dedup counters snapshot here so phase B's repeats do not inflate the
  // reported hit rate of the measured (phase A) stream.
  const int64_t DedupHits = obs::counter("serve.dedup_hit").value();
  const int64_t DedupMisses = obs::counter("serve.dedup_miss").value();
  const double DedupRate =
      DedupHits + DedupMisses > 0
          ? static_cast<double>(DedupHits) / (DedupHits + DedupMisses)
          : -1.0;

  // Phase B — observability off: same schedule, same warm daemon.
  obs::setLogLevel(obs::LogLevel::Off);
  obs::setMetricsEnabled(false);
  PhaseResult OffPhase = runPhase("metrics_off");

  Server.requestStop();
  Server.wait();

  // Client-observed latency distributions through the daemon's own
  // log-linear histogram (merge + interpolated quantiles).
  obs::Histogram OnHist, OffHist;
  std::vector<double> Warm;
  for (const Sample &S : OnPhase.Samples) {
    if (!S.Ok)
      continue;
    OnHist.observe(S.Millis);
    if (S.WarmHit)
      Warm.push_back(S.Millis);
  }
  for (const Sample &S : OffPhase.Samples)
    if (S.Ok)
      OffHist.observe(S.Millis);
  std::sort(Warm.begin(), Warm.end());

  const obs::Histogram::Snapshot OnSnap = OnHist.snapshot();
  const obs::Histogram::Snapshot OffSnap = OffHist.snapshot();
  const double P50 = OnSnap.quantile(0.50);
  const double P90 = OnSnap.quantile(0.90);
  const double P99 = OnSnap.quantile(0.99);
  const double P999 = OnSnap.quantile(0.999);
  const double WarmP50 = percentile(Warm, 0.50);
  const double Rps =
      OnPhase.Seconds > 0.0 ? OnPhase.OkCount / OnPhase.Seconds : -1.0;
  const double OffP50 = OffSnap.quantile(0.50);
  const double OffP99 = OffSnap.quantile(0.99);
  const double OffRps =
      OffPhase.Seconds > 0.0 ? OffPhase.OkCount / OffPhase.Seconds : -1.0;

  const JITCompiler &Compiler = Server.service().compiler();
  const int64_t StoreHits = Compiler.cacheHitCount() + Compiler.diskHitCount();
  const int64_t StoreLookups = StoreHits + Compiler.compileCount();
  const double StoreRate =
      StoreLookups > 0 ? static_cast<double>(StoreHits) / StoreLookups : -1.0;

  const std::string LtpOpt = findLtpOpt(Args);
  const double SpawnRps = Args.has("no-spawn-baseline")
                              ? -1.0
                              : spawnBaselineRps(LtpOpt, Pool, Schedule,
                                                 Spawns);
  const double Speedup =
      SpawnRps > 0.0 && Rps > 0.0 ? Rps / SpawnRps : -1.0;

  std::printf("\n  requests ok     : %zu of %d per phase (%d failures)\n",
              OnPhase.OkCount, Requests, Failures.load());
  std::printf("  latency p50/p90 : %.3f / %.3f ms\n", P50, P90);
  std::printf("  latency p99/p999: %.3f / %.3f ms\n", P99, P999);
  std::printf("  warm-hit p50    : %.3f ms  (dedup-cached responses; "
              "target < 1 ms)\n",
              WarmP50);
  std::printf("  throughput      : %.1f req/s (metrics+logs on)\n", Rps);
  std::printf("  metrics off     : p50 %.3f ms, p99 %.3f ms, %.1f req/s\n",
              OffP50, OffP99, OffRps);
  std::printf("  dedup hit rate  : %.1f%%  (%lld hits, %lld misses)\n",
              100.0 * DedupRate, static_cast<long long>(DedupHits),
              static_cast<long long>(DedupMisses));
  std::printf("  kernel store    : %.1f%% hits (%lld of %lld lookups)\n",
              100.0 * StoreRate, static_cast<long long>(StoreHits),
              static_cast<long long>(StoreLookups));
  if (SpawnRps > 0.0)
    std::printf("  spawn baseline  : %.2f req/s over %d requests -> "
                "%.1fx speedup\n",
                SpawnRps, Spawns, Speedup);
  else
    std::printf("  spawn baseline  : skipped (%s)\n",
                LtpOpt.empty() ? "ltp-opt not found" : "disabled/failed");

  TimingStats Stats;
  Stats.BestSeconds = P50 / 1e3;
  Stats.MedianSeconds = P50 / 1e3;
  Stats.Runs = static_cast<int>(OnPhase.OkCount);
  reportResult(
      "serve_load", "mixed", Stats,
      strFormat("\"seed\":%u,\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
                "\"warm_p50_ms\":%.4f,\"throughput_rps\":%.2f,"
                "\"dedup_hit_rate\":%.4f,\"kcache_hit_rate\":%.4f,"
                "\"speedup_vs_spawn\":%.2f,"
                "\"latency\":{\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f,"
                "\"p999\":%.4f}",
                Seed, P50, P99, WarmP50, Rps, DedupRate, StoreRate,
                Speedup, P50, P90, P99, P999));
  TimingStats OffStats;
  OffStats.BestSeconds = OffP50 / 1e3;
  OffStats.MedianSeconds = OffP50 / 1e3;
  OffStats.Runs = static_cast<int>(OffPhase.OkCount);
  reportResult(
      "serve_load", "metrics_off", OffStats,
      strFormat("\"seed\":%u,\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
                "\"throughput_rps\":%.2f,"
                "\"latency\":{\"p50\":%.4f,\"p99\":%.4f}",
                Seed, OffP50, OffP99, OffRps, OffP50, OffP99));
  printTelemetryFooter();

  // Failures or a saturated-error run are a real regression even when the
  // latency numbers look plausible.
  return Failures.load() == 0 ? 0 : 1;
}
