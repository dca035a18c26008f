//===- KernelRun.cpp - the kernel_run workload and the kernel probe -------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// kernel_run, in one process: build, optimize (host platform, NTI on) and
// compile the 12 Table-4 kernels at their default sizes into an empty
// store, then time repeated runs of every compiled pipeline, interleaved
// across kernels in a seeded order per round, after a discarded warm-up.
// Every output is checked against its native reference at the end.
//
// The same timing, with the program's own spans switched on for part of
// it, is the kernel probe that closes every traced run.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "obs/JsonCheck.h"
#include "obs/Telemetry.h"
#include "serve/Protocol.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <thread>

using namespace perfbench;
using namespace ltp;

namespace {

/// Long enough to absorb the slow first seconds of a fresh process.
double warmupSeconds(const Options &Opts) { return Opts.Tiny ? 0.05 : 2.0; }

int64_t sizeOf(const BenchmarkDef &Def, const Options &Opts) {
  return Opts.Tiny ? 24 : Def.DefaultSize;
}

ArchParams hostArch() {
  serve::Request Req;
  Req.ArchName = "host";
  return *serve::resolveArch(Req);
}

/// Per-kernel run times (milliseconds, one per round) of a timed phase
/// and the length of each round.
struct Rounds {
  std::vector<std::vector<double>> Millis;
  std::vector<double> RoundSeconds;
};

/// Runs every pipeline round-robin, in a seeded order per round, until
/// both \p Seconds and \p MinRounds are reached.
Rounds timeRounds(const KernelSet &Set, double Seconds, int MinRounds,
                  std::mt19937_64 &Rng) {
  Rounds Out;
  Out.Millis.resize(Set.Pipes.size());
  std::vector<size_t> Order(Set.Pipes.size());
  for (size_t K = 0; K != Order.size(); ++K)
    Order[K] = K;
  const double Deadline = nowSeconds() + Seconds;
  for (int Round = 0; Round < MinRounds || nowSeconds() < Deadline;
       ++Round) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    const double RoundStart = nowSeconds();
    for (size_t K : Order) {
      double T0 = nowSeconds();
      Set.Pipes[K].run(Set.Instances[K]);
      Out.Millis[K].push_back((nowSeconds() - T0) * 1e3);
    }
    Out.RoundSeconds.push_back(nowSeconds() - RoundStart);
  }
  return Out;
}

/// Checks every output against its native reference (the naive oracles
/// run in parallel; each touches only its own instance).
void verifyAll(const KernelSet &Set, Result &R) {
  std::atomic<size_t> Next{0};
  std::vector<char> Ok(Set.Instances.size(), 0);
  auto Worker = [&] {
    for (size_t K; (K = Next.fetch_add(1)) < Set.Instances.size();)
      Ok[K] = verifyOutput(Set.Instances[K]);
  };
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != std::max(1u, std::thread::hardware_concurrency());
       ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  for (size_t K = 0; K != Ok.size(); ++K)
    R.attempt(Ok[K], Set.Instances[K].Name + " differs from its reference");
}

/// Per-kernel quantile \p Q of the run times.
std::vector<double> perKernel(const Rounds &Timed, double Q) {
  std::vector<double> Out;
  for (const std::vector<double> &T : Timed.Millis)
    Out.push_back(quantile(T, Q));
  return Out;
}

/// kernel_run's end-to-end figures. A kernel run is the workload's
/// request: its latency is a pipeline's run time (the per-kernel quantile,
/// geometric mean over the kernels, so every kernel weighs the same), its
/// throughput runs per second. Each is the median over windows of
/// RoundsPerWindow consecutive rounds, so a burst of CPU taken by other
/// tenants of the machine moves only the windows it hit.
struct KernelFigures {
  double P50 = 0, P90 = 0, RunsPerSecond = 0;
};

constexpr size_t RoundsPerWindow = 4;

KernelFigures windowedFigures(const Rounds &Timed) {
  const size_t NumRounds = Timed.RoundSeconds.size();
  const size_t Windows = std::max<size_t>(1, NumRounds / RoundsPerWindow);
  std::vector<double> P50, P90, Rate;
  for (size_t W = 0; W != Windows; ++W) {
    const size_t Lo = W * NumRounds / Windows;
    const size_t Hi = (W + 1) * NumRounds / Windows;
    std::vector<double> Q50, Q90;
    for (const std::vector<double> &Kernel : Timed.Millis) {
      std::vector<double> Slice(Kernel.begin() + Lo, Kernel.begin() + Hi);
      Q50.push_back(quantile(Slice, 0.5));
      Q90.push_back(quantile(Slice, 0.9));
    }
    double Seconds = 0;
    for (size_t Round = Lo; Round != Hi; ++Round)
      Seconds += Timed.RoundSeconds[Round];
    P50.push_back(geomean(Q50));
    P90.push_back(geomean(Q90));
    Rate.push_back(static_cast<double>(Timed.Millis.size() * (Hi - Lo)) /
                   Seconds);
  }
  std::fprintf(stderr, "%zu rounds in %zu windows; window p50/p90 ms:",
               NumRounds, Windows);
  for (size_t W = 0; W != Windows; ++W)
    std::fprintf(stderr, " %.2f/%.2f", P50[W], P90[W]);
  std::fprintf(stderr, "\n");
  return {median(P50), median(P90), median(Rate)};
}

int occurrences(const std::string &Text, const std::string &Needle) {
  int Count = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + 1))
    ++Count;
  return Count;
}

/// Median over parallel_for calls of (longest − shortest) pool.share
/// span inside it, from the program's own trace.
double poolSkewMs(const std::string &TracePath, Result &R) {
  std::string Error;
  std::unique_ptr<obs::JsonValue> Doc =
      obs::parseJson(readFile(TracePath), &Error);
  const obs::JsonValue *Events = Doc ? Doc->find("traceEvents") : nullptr;
  if (!Events) {
    R.fail("unreadable program trace: " + Error);
    return -1.0;
  }
  struct Interval {
    double Start, Dur;
  };
  std::vector<Interval> Loops, Shares;
  for (const obs::JsonValue &E : Events->Elements) {
    const obs::JsonValue *Name = E.find("name");
    const obs::JsonValue *Ts = E.find("ts");
    const obs::JsonValue *Dur = E.find("dur");
    if (!Name || !Ts || !Dur)
      continue;
    if (Name->StringValue == "pool.parallel_for")
      Loops.push_back({Ts->NumberValue, Dur->NumberValue});
    else if (Name->StringValue == "pool.share")
      Shares.push_back({Ts->NumberValue, Dur->NumberValue});
  }
  std::vector<double> Skews;
  for (const Interval &L : Loops) {
    double Lo = 1e300, Hi = -1.0;
    for (const Interval &S : Shares)
      if (S.Start >= L.Start && S.Start <= L.Start + L.Dur) {
        Lo = std::min(Lo, S.Dur);
        Hi = std::max(Hi, S.Dur);
      }
    if (Hi >= 0)
      Skews.push_back((Hi - Lo) / 1e3);
  }
  return Skews.empty() ? 0.0 : median(Skews);
}

} // namespace

bool perfbench::buildKernelSet(const Options &Opts, const std::string &Store,
                               KernelSet &Set, Result &R) {
  useStore(Store);
  Set.Compiler = std::make_unique<JITCompiler>();
  const ArchParams Arch = hostArch();
  std::vector<PipelineCompileJob> Jobs;
  Set.Instances.reserve(allBenchmarks().size());
  for (const BenchmarkDef &Def : allBenchmarks()) {
    Set.Instances.push_back(Def.Create(sizeOf(Def, Opts)));
    BenchmarkInstance &I = Set.Instances.back();
    for (size_t S = 0; S != I.Stages.size(); ++S)
      optimize(I.Stages[S], I.StageExtents[S], Arch);
  }
  for (const BenchmarkInstance &I : Set.Instances)
    Jobs.push_back(makeCompileJob(I));
  for (ErrorOr<CompiledPipeline> &P : compilePipelines(Jobs, *Set.Compiler)) {
    if (!P) {
      R.fail("compile failed: " + P.getError());
      return false;
    }
    Set.Pipes.push_back(std::move(*P));
  }
  return true;
}

double perfbench::probeKernels(const Options &Opts, const KernelSet &Set,
                               double PlainSeconds, double TracedSeconds,
                               Result &R) {
  std::mt19937_64 Rng(Opts.Seed);
  timeRounds(Set, warmupSeconds(Opts), 2, Rng);
  std::vector<double> Plain =
      perKernel(timeRounds(Set, PlainSeconds, 3, Rng), 0.5);
  // The program's own spans, for the pool's per-thread shares.
  obs::setTracingEnabled(true);
  std::vector<double> Traced =
      perKernel(timeRounds(Set, TracedSeconds, 3, Rng), 0.5);
  obs::setTracingEnabled(false);
  const std::string ProgramTrace = Opts.RunDir + "/program-trace.json";
  std::string Error;
  if (!obs::writeTrace(ProgramTrace, &Error))
    R.fail("cannot write the program trace: " + Error);
  verifyAll(Set, R);

  for (size_t K = 0; K != Set.Instances.size(); ++K) {
    const std::string &Name = Set.Instances[K].Name;
    int Ivdep = 0, Unroll = 0;
    for (const CompiledKernel &Kernel : Set.Pipes[K].Kernels) {
      Ivdep += occurrences(Kernel.source(), "#pragma GCC ivdep");
      Unroll += occurrences(Kernel.source(), "#pragma GCC unroll");
    }
    R.metric("codegen.ivdep_fallbacks." + Name, Ivdep, "count");
    R.metric("codegen.unroll_pragmas." + Name, Unroll, "count");
    R.metric("runtime.gflops." + Name,
             Set.Instances[K].Work / (Plain[K] * 1e-3) / 1e9, "GFLOP/s");
  }
  R.metric("runtime.pool_skew_ms", poolSkewMs(ProgramTrace, R), "ms");
  return geomean(Traced) / geomean(Plain);
}

int perfbench::runKernelRun(const Options &Opts, Result &R) {
  // Set-up is repeated on fresh stores; setup_s is the median.
  std::vector<double> SetupTimes;
  KernelSet Set;
  const int Reps = Opts.Tiny ? 1 : 3;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    Set = KernelSet();
    double T0 = nowSeconds();
    if (!buildKernelSet(Opts, Opts.RunDir + strFormat("/kstore%d", Rep), Set,
                        R))
      return 1;
    SetupTimes.push_back(nowSeconds() - T0);
  }

  std::mt19937_64 Rng(Opts.Seed);
  timeRounds(Set, warmupSeconds(Opts), 2, Rng);
  Rounds Timed = timeRounds(Set, Opts.Seconds, 3, Rng);
  verifyAll(Set, R);

  const KernelFigures Figures = windowedFigures(Timed);
  R.metric("setup_s", median(SetupTimes), "s");
  R.metric("latency_p50_ms", Figures.P50, "ms");
  R.metric("latency_p90_ms", Figures.P90, "ms");
  R.metric("throughput_rps", Figures.RunsPerSecond, "req/s");
  return 0;
}
