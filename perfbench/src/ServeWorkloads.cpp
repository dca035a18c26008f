//===- ServeWorkloads.cpp - cold_compile, cold_plan, warm_serve -----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// The untraced serving workloads. Each drives a freshly spawned ltp-serve
// daemon with a private, empty kernel store over its socket, with
// NumClients closed-loop clients, and reports the end-to-end metrics.
// Outputs are checked outside the timed window.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "lang/ScheduleText.h"
#include "obs/JsonCheck.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <dlfcn.h>
#include <limits>
#include <mutex>
#include <random>
#include <sys/stat.h>
#include <thread>

using namespace perfbench;
using namespace ltp;

Phase perfbench::closedLoop(
    Daemon &D, double Seconds, size_t Count,
    const std::function<const std::string &(size_t)> &LineOf,
    const ReplyCheck &Check, double MinSendGap) {
  std::atomic<size_t> Next{0};
  std::mutex GateMu;
  double LastSend = 0.0;
  std::vector<Phase> PerClient(NumClients);
  const double Start = nowSeconds();
  const double Deadline = Start + Seconds;
  std::vector<double> EndTimes(NumClients, Start);

  auto Client = [&](int C) {
    Phase &Mine = PerClient[static_cast<size_t>(C)];
    Connection Conn(D.socket());
    std::string Reply;
    for (;;) {
      if (nowSeconds() >= Deadline)
        break;
      size_t I = Next.fetch_add(1);
      if (I >= Count)
        break;
      ++Mine.Sent;
      if (MinSendGap > 0) {
        std::lock_guard<std::mutex> Lock(GateMu);
        double Wait = LastSend + MinSendGap - nowSeconds();
        if (Wait > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
        LastSend = nowSeconds();
      }
      double T0 = nowSeconds();
      bool Answered = Conn.roundTrip(LineOf(I), Reply);
      double T1 = nowSeconds();
      if (!Answered) {
        Check(I, ""); // counted as a failed attempt by the caller
        break;
      }
      Mine.Millis.push_back((T1 - T0) * 1e3);
      Mine.DoneAt.push_back(T1 - Start);
      if (Check(I, Reply))
        ++Mine.OkCount;
    }
    EndTimes[static_cast<size_t>(C)] = nowSeconds();
  };

  std::vector<std::thread> Threads;
  for (int C = 0; C != NumClients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();

  Phase All;
  for (const Phase &P : PerClient) {
    All.Millis.insert(All.Millis.end(), P.Millis.begin(), P.Millis.end());
    All.DoneAt.insert(All.DoneAt.end(), P.DoneAt.begin(), P.DoneAt.end());
    All.Sent += P.Sent;
    All.OkCount += P.OkCount;
  }
  All.Seconds = *std::max_element(EndTimes.begin(), EndTimes.end()) - Start;
  return All;
}

double Phase::windowed(double Q) const {
  const size_t Windows = std::max<size_t>(1, static_cast<size_t>(Seconds));
  const double Width = Seconds / static_cast<double>(Windows);
  std::vector<std::vector<double>> ByWindow(Windows);
  for (size_t K = 0; K != Millis.size(); ++K)
    ByWindow[std::min(Windows - 1, static_cast<size_t>(DoneAt[K] / Width))]
        .push_back(Millis[K]);
  std::vector<double> Values;
  for (const std::vector<double> &Window : ByWindow)
    Values.push_back(Q < 0 ? static_cast<double>(Window.size()) / Width
                           : quantile(Window, Q));
  return median(Values);
}

bool perfbench::timeStartups(const Options &Opts, int Spawns,
                             std::vector<double> &Times) {
  const std::string Store = Opts.RunDir + "/probe-store";
  for (int I = 0; I != Spawns; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    double T = timeDaemonStartup(Opts.ServeBinary,
                                 strFormat("probe%zu.sock", Times.size()),
                                 Store);
    if (T < 0)
      return false;
    Times.push_back(T);
  }
  return true;
}

bool perfbench::startTimed(Daemon &D, const Options &Opts,
                           const std::string &StoreDir,
                           std::vector<double> &Times) {
  double Start = nowSeconds();
  if (!D.start(Opts.ServeBinary, "serve.sock", StoreDir) || !D.waitReady(30.0))
    return false;
  Times.push_back(nowSeconds() - Start);
  return true;
}

std::map<std::string, double> perfbench::daemonCounters(Daemon &D) {
  std::map<std::string, double> Out;
  std::string Reply, Error;
  if (!D.request("{\"op\": \"stats\"}", Reply))
    return Out;
  std::unique_ptr<obs::JsonValue> Doc = obs::parseJson(Reply, &Error);
  const obs::JsonValue *Counters = Doc ? Doc->find("counters") : nullptr;
  if (!Counters)
    return Out;
  for (const auto &[Name, Value] : Counters->Members)
    Out[Name] = Value.NumberValue;
  return Out;
}

std::string perfbench::replyField(const std::string &Reply,
                                  const std::string &Field) {
  std::string Error;
  std::unique_ptr<obs::JsonValue> Doc = obs::parseJson(Reply, &Error);
  const obs::JsonValue *V = Doc ? Doc->find(Field) : nullptr;
  return V && V->isString() ? V->StringValue : "";
}

std::string perfbench::replyPayload(const std::string &Reply) {
  std::string Out = Reply;
  auto eraseValue = [&Out](const std::string &Key) {
    size_t At = Out.find(Key);
    if (At == std::string::npos)
      return;
    size_t ValueStart = At + Key.size();
    size_t ValueEnd = Out.find('"', ValueStart);
    if (ValueEnd != std::string::npos)
      Out.erase(ValueStart, ValueEnd - ValueStart);
  };
  eraseValue("\"request_id\": \"");
  eraseValue("\"dedup\": \"");
  return Out;
}

size_t perfbench::coldStreamLength(const Options &Opts) {
  return static_cast<size_t>(60.0 * Opts.Seconds) + 64;
}

namespace {

/// Daemon start-ups timed per run, the workload daemon's included;
/// setup_s is their median.
int startupSpawns(const Options &Opts) { return Opts.Tiny ? 3 : 21; }

/// Every `.so` of a reply exists and dlopens with its entry point.
bool sharedObjectsLoad(const obs::JsonValue &Doc, std::string &Why) {
  const obs::JsonValue *So = Doc.find("so");
  if (!So || !So->isArray() || So->Elements.empty()) {
    Why = "reply has no so paths";
    return false;
  }
  for (const obs::JsonValue &Path : So->Elements) {
    struct stat St;
    if (!Path.isString() || ::stat(Path.StringValue.c_str(), &St) != 0) {
      Why = "missing .so " + Path.StringValue;
      return false;
    }
    void *Handle = ::dlopen(Path.StringValue.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!Handle) {
      Why = "dlopen failed: " + Path.StringValue;
      return false;
    }
    bool HasEntry = ::dlsym(Handle, "ltp_kernel") != nullptr;
    ::dlclose(Handle);
    if (!HasEntry) {
      Why = "no ltp_kernel in " + Path.StringValue;
      return false;
    }
  }
  return true;
}

/// Reference-check cost rank of a request: its size relative to the
/// kernel's default (the native oracles are naive loops).
double checkCost(const serve::Request &Req) {
  return static_cast<double>(Req.Size) /
         static_cast<double>(findBenchmark(Req.Kernel)->DefaultSize);
}

/// A seeded sample of \p Count stream positions among the cheapest
/// quarter (at least Count) of \p Candidates to check.
std::vector<size_t> cheapSample(const std::vector<StreamRequest> &Stream,
                                std::vector<size_t> Candidates, size_t Count,
                                uint64_t Seed) {
  std::sort(Candidates.begin(), Candidates.end(), [&](size_t A, size_t B) {
    return checkCost(Stream[A].Req) < checkCost(Stream[B].Req);
  });
  size_t Pool = std::min(Candidates.size(),
                         std::max(Count, Candidates.size() / 4));
  Candidates.resize(Pool);
  std::mt19937_64 Rng(Seed ^ 0xc4ecc4ecULL);
  std::shuffle(Candidates.begin(), Candidates.end(), Rng);
  Candidates.resize(std::min(Count, Candidates.size()));
  return Candidates;
}

/// Re-optimizes \p Req in process, compiles it against the daemon's
/// store (which must be a pure disk hit returning the daemon's own
/// `.so` paths), runs it and compares with the native reference.
bool checkAgainstReference(const serve::Request &Req,
                           const obs::JsonValue &Reply,
                           const std::string &StoreDir, std::string &Why) {
  ::setenv("LTP_JIT_CACHE_DIR", StoreDir.c_str(), 1); // NOLINT(concurrency-mt-unsafe)
  JITCompiler Compiler;
  ErrorOr<ArchParams> Arch = serve::resolveArch(Req);
  const BenchmarkDef *Def = findBenchmark(Req.Kernel);
  BenchmarkInstance Instance = Def->Create(Req.Size);
  OptimizerOptions OptOpts;
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    optimize(Instance.Stages[S], Instance.StageExtents[S], *Arch, OptOpts);
  CodeGenOptions CG;
  std::vector<PipelineCompileJob> Jobs = {makeCompileJob(Instance, CG)};
  std::vector<ErrorOr<CompiledPipeline>> Pipes =
      compilePipelines(Jobs, Compiler);
  if (!Pipes[0]) {
    Why = "reference compile failed: " + Pipes[0].getError();
    return false;
  }
  if (Compiler.compileCount() != 0) {
    Why = "the daemon's kernel was not in its store";
    return false;
  }
  const obs::JsonValue *So = Reply.find("so");
  for (size_t K = 0; K != Pipes[0]->Kernels.size(); ++K)
    if (K >= So->Elements.size() ||
        Pipes[0]->Kernels[K].sharedObjectPath() !=
            So->Elements[K].StringValue) {
      Why = "returned .so differs from the in-process build";
      return false;
    }
  Pipes[0]->run(Instance);
  if (!verifyOutput(Instance)) {
    Why = "output differs from the native reference";
    return false;
  }
  return true;
}

/// Checks a returned schedule two ways: the optimizer run in process on a
/// fresh instance must choose the same schedule (it is deterministic),
/// and the text, replayed through the verifier as a client holding the
/// reply would, must be legal and round-trip.
bool checkSchedule(const serve::Request &Req, const std::string &Schedule,
                   std::string &Why) {
  ErrorOr<ArchParams> Arch = serve::resolveArch(Req);
  BenchmarkInstance Instance = findBenchmark(Req.Kernel)->Create(Req.Size);
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    optimize(Instance.Stages[S], Instance.StageExtents[S], *Arch);
  Func &F = Instance.Stages.back();
  int Stage = F.numUpdates() > 0 ? F.numUpdates() - 1 : -1;
  if (printSchedule(F, Stage) != Schedule) {
    Why = "returned schedule differs from the in-process optimizer's";
    return false;
  }
  F.clearSchedules();
  ErrorOr<bool> Applied = applyVerifiedScheduleText(
      F, Stage, Schedule, Instance.StageExtents.back());
  if (!Applied) {
    Why = "returned schedule rejected: " + Applied.getError();
    return false;
  }
  if (printSchedule(F, Stage) != Schedule) {
    Why = "returned schedule does not round-trip";
    return false;
  }
  return true;
}

/// Shared body of cold_compile and cold_plan.
int runCold(const Options &Opts, Result &R, bool Compile) {
  KeyAccounting Keys;
  std::vector<StreamRequest> Stream = coldStream(
      Opts.Seed, coldStreamLength(Opts), Compile, Opts.Tiny, Keys);
  const std::string StoreDir = Opts.RunDir + "/store";

  // Half the start-ups are timed before the phase and half after it, so
  // that one moment of the machine does not set the whole median.
  Daemon D;
  std::vector<double> Startups;
  const int Before = startupSpawns(Opts) / 2;
  if (!timeStartups(Opts, Before, Startups) ||
      !startTimed(D, Opts, StoreDir, Startups)) {
    R.fail("daemon did not start");
    return 1;
  }

  std::vector<std::string> Replies(Stream.size());
  Phase P = closedLoop(
      D, Opts.Seconds, Stream.size(),
      [&](size_t I) -> const std::string & { return Stream[I].Line; },
      [&](size_t I, const std::string &Reply) {
        Replies[I] = Reply;
        return Reply.find("\"ok\": true") != std::string::npos;
      });

  // Checks, outside the timed window.
  std::vector<size_t> Checkable;
  std::vector<std::unique_ptr<obs::JsonValue>> Docs(Stream.size());
  for (size_t I = 0; I != P.Sent; ++I) {
    std::string Error, Why;
    Docs[I] = obs::parseJson(Replies[I], &Error);
    const obs::JsonValue *Doc = Docs[I].get();
    const obs::JsonValue *Ok = Doc ? Doc->find("ok") : nullptr;
    bool Good = Ok && Ok->BoolValue;
    if (!Good)
      Why = "request failed: " + Replies[I].substr(0, 200);
    const obs::JsonValue *Dedup = Good ? Doc->find("dedup") : nullptr;
    if (Good && (!Dedup || Dedup->StringValue != "miss")) {
      Good = false;
      Why = "a unique key did not miss the dedup table";
    }
    if (Good && Compile)
      Good = sharedObjectsLoad(*Doc, Why);
    if (Good && !Compile) {
      if (Stream[I].Req.Op == "lint") {
        const obs::JsonValue *Diags = Doc->find("diagnostics");
        Good = Diags && Diags->isArray();
        Why = "lint reply without diagnostics";
      } else {
        Good = !replyField(Replies[I], "schedule").empty() &&
               Doc->find("so") == nullptr;
        Why = "plan reply without a schedule";
      }
    }
    R.attempt(Good, Why);
    if (Good && Stream[I].Req.Op == "optimize")
      Checkable.push_back(I);
  }

  std::map<std::string, double> Counters = daemonCounters(D);
  D.stop();
  if (!timeStartups(Opts, startupSpawns(Opts) - Before - 1, Startups)) {
    R.fail("daemon did not start");
    return 1;
  }

  // Seeded samples: compiled kernels against the native reference, or
  // returned schedules against the in-process optimizer and verifier.
  size_t SampleCount = Compile ? 2 : 4;
  for (size_t I : cheapSample(Stream, Checkable, SampleCount, Opts.Seed)) {
    std::string Why;
    bool Good = Compile ? checkAgainstReference(Stream[I].Req, *Docs[I],
                                                StoreDir, Why)
                        : checkSchedule(Stream[I].Req,
                                        replyField(Replies[I], "schedule"),
                                        Why);
    R.attempt(Good, Stream[I].Req.Kernel + ": " + Why);
  }

  double Lookups = Counters["jit.cc_invocations"] + Counters["jit.disk_hits"] +
                   Counters["jit.memo.hit"];
  std::fprintf(stderr,
               "keys: %lld drawn, %lld duplicates rejected; %zu sent in "
               "%.2f s; kernel store: %.0f cc runs, %.0f identical-C hits "
               "of %.0f lookups\n",
               static_cast<long long>(Keys.Drawn),
               static_cast<long long>(Keys.DuplicatesRejected), P.Sent,
               P.Seconds, Counters["jit.cc_invocations"],
               Counters["jit.disk_hits"] + Counters["jit.memo.hit"], Lookups);

  R.metric("setup_s", median(Startups), "s");
  R.metric("latency_p50_ms", P.p(0.5), "ms");
  R.metric("latency_p90_ms", P.p(0.9), "ms");
  R.metric("throughput_rps", P.throughput(), "req/s");
  return 0;
}

} // namespace

int perfbench::runColdCompile(const Options &Opts, Result &R) {
  return runCold(Opts, R, /*Compile=*/true);
}

int perfbench::runColdPlan(const Options &Opts, Result &R) {
  return runCold(Opts, R, /*Compile=*/false);
}

/// Spacing of warm-up sends. Benchmark instances register their reduction
/// variables in a process-wide, unsynchronized registry keyed by name
/// (lang/Func.cpp), so two requests building instances at the same moment
/// can bind each other's reduction domains. Spacing the sends keeps the
/// short instance builds of the warm pool apart while the compiles (a
/// few hundred milliseconds each) still overlap.
constexpr double WarmUpSendGap = 0.05;

double perfbench::warmUp(Daemon &D, const std::vector<StreamRequest> &Pool,
              std::vector<std::string> &Payloads, Result &R) {
  Payloads.assign(Pool.size(), "");
  double Start = nowSeconds();
  Phase P = closedLoop(
      D, 600.0, Pool.size(),
      [&](size_t I) -> const std::string & { return Pool[I].Line; },
      [&](size_t I, const std::string &Reply) {
        Payloads[I] = replyPayload(Reply);
        return Reply.find("\"ok\": true") != std::string::npos;
      },
      WarmUpSendGap);
  double Seconds = nowSeconds() - Start;
  for (size_t I = 0; I != Pool.size(); ++I)
    if (Payloads[I].find("\"ok\": true") == std::string::npos) {
      R.fail("warm-up request failed: " + Pool[I].Line + " -> " +
             Payloads[I].substr(0, 300));
      return -1.0;
    }
  R.attempts(static_cast<int64_t>(Pool.size()), 0, "");
  return Seconds;
}

Phase perfbench::replayWarm(Daemon &D, const std::vector<StreamRequest> &Pool,
                            const std::vector<std::string> &Payloads,
                            uint64_t Seed, double Seconds, Result &R) {
  const std::vector<uint32_t> Order =
      replayOrder(Seed, Pool.size(), size_t(1) << 20);
  auto KeyOf = [&Order](size_t I) { return Order[I & (Order.size() - 1)]; };
  std::atomic<int64_t> Bad{0};
  Phase P = closedLoop(
      D, Seconds, std::numeric_limits<size_t>::max(),
      [&](size_t I) -> const std::string & { return Pool[KeyOf(I)].Line; },
      [&](size_t I, const std::string &Reply) {
        bool Good = Reply.find("\"dedup\": \"cached\"") != std::string::npos &&
                    replyPayload(Reply) == Payloads[KeyOf(I)];
        if (!Good)
          Bad.fetch_add(1);
        return Good;
      });
  R.attempts(static_cast<int64_t>(P.Sent), Bad.load(),
             "warm reply was not the cached payload");
  return P;
}

int perfbench::runWarmServe(const Options &Opts, Result &R) {
  std::vector<StreamRequest> Pool = warmPool(Opts.Seed, Opts.Tiny);

  Daemon D;
  std::vector<double> Startups;
  if (!timeStartups(Opts, startupSpawns(Opts) - 1, Startups) ||
      !startTimed(D, Opts, Opts.RunDir + "/store", Startups)) {
    R.fail("daemon did not start");
    return 1;
  }
  std::vector<std::string> Payloads;
  double Warm = warmUp(D, Pool, Payloads, R);
  if (Warm < 0)
    return 1;

  Phase P = replayWarm(D, Pool, Payloads, Opts.Seed, Opts.Seconds, R);
  std::map<std::string, double> Counters = daemonCounters(D);
  D.stop();

  std::fprintf(stderr,
               "warm pool %zu keys (warm-up %.2f s), %zu replays in %.2f s, "
               "%.0f cc runs\n",
               Pool.size(), Warm, P.Sent, P.Seconds,
               Counters["jit.cc_invocations"]);

  R.metric("setup_s", median(Startups) + Warm, "s");
  R.metric("latency_p50_ms", P.windowed(0.5), "ms");
  R.metric("latency_p90_ms", P.windowed(0.9), "ms");
  R.metric("throughput_rps", P.windowed(-1.0), "req/s");
  return 0;
}
