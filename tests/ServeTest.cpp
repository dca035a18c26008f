//===- ServeTest.cpp - optimization-service and protocol tests -------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Covers the serving stack bottom-up: wire-protocol parsing and
// canonicalization, the plan/apply split the stateless service is built
// on, request deduplication under concurrency, error caching, and a full
// client/daemon round-trip over a real Unix-domain socket.
//
//===----------------------------------------------------------------------===//

#include "arch/ArchFile.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "ir/IRPrinter.h"
#include "lang/ScheduleText.h"
#include "obs/Log.h"
#include "obs/Telemetry.h"
#include "runtime/ThreadPool.h"
#include "serve/OptimizerService.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <thread>
#include <tuple>
#include <unistd.h>

using namespace ltp;
using namespace ltp::serve;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, ParsesFullRequestAndDefaults) {
  auto Req = parseRequest(
      "{\"op\": \"optimize\", \"kernel\": \"matmul\", \"size\": 64, "
      "\"arch\": \"6700\", \"nti\": false, "
      "\"compile\": false, \"id\": \"r1\"}");
  ASSERT_TRUE(static_cast<bool>(Req)) << Req.getError();
  EXPECT_EQ(Req->Kernel, "matmul");
  EXPECT_EQ(Req->Size, 64);
  EXPECT_EQ(Req->ArchName, "6700");
  EXPECT_FALSE(Req->EnableNTI);
  EXPECT_FALSE(Req->Compile);
  EXPECT_EQ(Req->Id, "r1");

  auto Minimal = parseRequest("{\"kernel\": \"copy\"}");
  ASSERT_TRUE(static_cast<bool>(Minimal));
  EXPECT_EQ(Minimal->Op, "optimize"); // default op
  EXPECT_EQ(Minimal->Size, 0);
  EXPECT_TRUE(Minimal->EnableNTI);
  EXPECT_TRUE(Minimal->Compile);
}

TEST(ServeProtocol, RejectsBadInput) {
  EXPECT_FALSE(static_cast<bool>(parseRequest("not json")));
  EXPECT_FALSE(static_cast<bool>(parseRequest("[1, 2]")));
  // Unknown fields are most likely typos; reject instead of ignoring.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest("{\"kernel\": \"copy\", \"siez\": 64}")));
  // So is the retired scoring-path selector (Algorithm 1's emulator is the
  // only tile bound); the error names the field.
  const std::string Retired = std::string("score") + "_mode";
  auto RetiredReq = parseRequest("{\"kernel\": \"copy\", \"" + Retired +
                                 "\": \"auto\"}");
  ASSERT_FALSE(static_cast<bool>(RetiredReq));
  EXPECT_NE(RetiredReq.getError().find(
                "unknown or mistyped request field '" + Retired + "'"),
            std::string::npos)
      << RetiredReq.getError();
  // Fractional sizes are client bugs, not values to round.
  EXPECT_FALSE(static_cast<bool>(
      parseRequest("{\"kernel\": \"copy\", \"size\": 3.5}")));
  EXPECT_FALSE(
      static_cast<bool>(parseRequest("{\"op\": \"optimize\"}"))); // no kernel
  EXPECT_FALSE(
      static_cast<bool>(parseRequest("{\"op\": \"lint\"}"))); // no kernel
  EXPECT_FALSE(static_cast<bool>(parseRequest("{\"op\": \"frobnicate\"}")));
}

TEST(ServeProtocol, CanonicalKeyUnifiesEquivalentPlatforms) {
  Request Named;
  Named.Kernel = "matmul";
  Named.Size = 64;
  Named.ArchName = "6700";
  auto NamedArch = resolveArch(Named);
  ASSERT_TRUE(static_cast<bool>(NamedArch));

  // The same platform supplied inline as arch_text must land on the same
  // dedup key: the key renders the *resolved* parameters, not the spelling.
  Request Inline = Named;
  Inline.ArchName.clear();
  Inline.ArchText = archParamsToText(*NamedArch);
  auto InlineArch = resolveArch(Inline);
  ASSERT_TRUE(static_cast<bool>(InlineArch));
  EXPECT_EQ(canonicalKey(Named, *NamedArch), canonicalKey(Inline, *InlineArch));

  // Any semantically significant field splits the key.
  Request Other = Named;
  Other.Size = 128;
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Other, *NamedArch));
  Other = Named;
  Other.EnableNTI = false;
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Other, *NamedArch));
  auto A15 = resolveArch([] {
    Request R;
    R.ArchName = "a15";
    return R;
  }());
  ASSERT_TRUE(static_cast<bool>(A15));
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Named, *A15));

  // A lint request must never collide with an otherwise identical
  // optimize request — the op participates in the key.
  Request Lint = Named;
  Lint.Op = "lint";
  EXPECT_NE(canonicalKey(Named, *NamedArch), canonicalKey(Lint, *NamedArch));
}

//===----------------------------------------------------------------------===//
// Plan/apply split (the refactor the stateless service rides on)
//===----------------------------------------------------------------------===//

// planStage followed by applyPlan must produce exactly the schedule that
// the monolithic optimize() produces — the serving path and the CLI path
// may never drift apart.
TEST(ServePlanApply, MatchesMonolithicOptimize) {
  const ArchParams Arch = intelI7_6700();
  for (const char *Name : {"matmul", "tp", "copy", "doitgen"}) {
    const BenchmarkDef *Def = findBenchmark(Name);
    ASSERT_NE(Def, nullptr) << Name;
    const int64_t Size = 48;
    BenchmarkInstance ViaOptimize = Def->Create(Size);
    BenchmarkInstance ViaPlan = Def->Create(Size);

    for (size_t S = 0; S != ViaOptimize.Stages.size(); ++S) {
      OptimizationResult R = optimize(ViaOptimize.Stages[S],
                                      ViaOptimize.StageExtents[S], Arch);
      StagePlan Plan = planStage(ViaPlan.Stages[S],
                                 ViaPlan.StageExtents[S], Arch);
      applyPlan(ViaPlan.Stages[S], Plan);
      EXPECT_EQ(Plan.Description, R.Description) << Name << " stage " << S;

      const Func &A = ViaOptimize.Stages[S];
      const Func &B = ViaPlan.Stages[S];
      for (int U = -1; U != A.numUpdates(); ++U)
        EXPECT_EQ(printSchedule(A, U), printSchedule(B, U))
            << Name << " stage " << S << " update " << U;
    }
  }
}

//===----------------------------------------------------------------------===//
// OptimizerService
//===----------------------------------------------------------------------===//

Request optimizeRequest(const std::string &Kernel, int64_t Size,
                        bool Compile = false) {
  Request Req;
  Req.Kernel = Kernel;
  Req.Size = Size;
  Req.ArchName = "6700";
  Req.Compile = Compile;
  return Req;
}

TEST(ServeService, RejectsUnknownKernelAndBadMode) {
  OptimizerService Service;
  Request Req = optimizeRequest("frobnicate", 32);
  Response R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::BadRequest);

  // The service answers only the scheduling ops; the transport-level ops
  // and unknown ones never reach it as work.
  for (const char *Op : {"bogus", "stats"}) {
    Req = optimizeRequest("copy", 32);
    Req.Op = Op;
    R = Service.handle(Req);
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Kind, ErrorKind::BadRequest);
  }
  // Bad requests never enter the dedup table.
  EXPECT_EQ(Service.dedupTableSize(), 0u);
}

TEST(ServeService, DeduplicatesConcurrentIdenticalRequests) {
  OptimizerService Service;
  const int64_t HitsBefore = obs::counter("serve.dedup_hit").value();
  const int64_t MissBefore = obs::counter("serve.dedup_miss").value();

  const Request Req = optimizeRequest("copy", 64);
  constexpr int NumThreads = 8;
  std::vector<Response> Responses(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back(
        [&, T] { Responses[T] = Service.handle(Req); });
  for (std::thread &T : Threads)
    T.join();

  int Misses = 0;
  for (const Response &R : Responses) {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.KeyHash, Responses[0].KeyHash);
    EXPECT_EQ(R.Schedule, Responses[0].Schedule);
    if (R.Dedup == DedupOutcome::Miss)
      ++Misses;
  }
  EXPECT_EQ(Misses, 1); // exactly one thread ran the optimization
  EXPECT_EQ(Service.dedupTableSize(), 1u);
  EXPECT_EQ(obs::counter("serve.dedup_miss").value() - MissBefore, 1);
  EXPECT_EQ(obs::counter("serve.dedup_hit").value() - HitsBefore,
            NumThreads - 1);

  // A later identical request is a warm cache hit.
  Response Warm = Service.handle(Req);
  EXPECT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Dedup, DedupOutcome::Cached);
}

TEST(ServeService, DefaultSizeDedupsWithExplicitDefault) {
  OptimizerService Service;
  const BenchmarkDef *Def = findBenchmark("copy");
  ASSERT_NE(Def, nullptr);
  Response A = Service.handle(optimizeRequest("copy", 0));
  Response B = Service.handle(optimizeRequest("copy", Def->DefaultSize));
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.KeyHash, B.KeyHash);
  EXPECT_EQ(B.Dedup, DedupOutcome::Cached);
}

// Concurrent instance builds must each bind their own reduction domains:
// every thread builds matmul/syrk at its own size, and the reduction loop
// of the lowered nest must span exactly that size.
TEST(ServeService, ConcurrentBuildsBindTheirOwnReductionDomains) {
  constexpr int NumThreads = 8;
  constexpr int BuildsPerThread = 16;
  std::vector<std::string> Failures(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T, &Failures] {
      const BenchmarkDef *Def = findBenchmark(T % 2 ? "syrk" : "matmul");
      const int64_t Size = 16 + 4 * T;
      const std::string Want =
          "for k in [0, 0 + " + std::to_string(Size) + ")";
      for (int I = 0; I != BuildsPerThread && Failures[T].empty(); ++I) {
        BenchmarkInstance Instance = Def->Create(Size);
        std::string Nest = ir::printStmt(lowerPipeline(Instance).back());
        if (Nest.find(Want) == std::string::npos)
          Failures[T] = Def->Name + " size " + std::to_string(Size) +
                        " lowered to:\n" + Nest;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &F : Failures)
    EXPECT_EQ(F, "");
}

// Planning and lint read only the benchmark's shape: a transpose whose
// buffers would take 4 TiB is served like a small one.
TEST(ServeService, PlansAndLintsShapesBeyondMemory) {
  OptimizerService Service;
  Request Req = optimizeRequest("tp", int64_t{1} << 20);
  Response R = Service.handle(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Schedule.empty());
  ASSERT_FALSE(R.StageMillis.empty());
  EXPECT_EQ(R.StageMillis.front().first, "shape");

  Req.Op = "lint";
  R = Service.handle(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.LintRan);
}

// Sizes the shape cannot represent are the client's error, not a crash:
// a size beyond int truncates the reduction domain, and doitgen's N^3
// element count overflows int64 long before N does.
TEST(ServeService, UnrepresentableSizesAreBadRequests) {
  struct Case {
    const char *Kernel;
    int64_t Size;
    const char *Why;
  };
  OptimizerService Service;
  for (const Case &C : {Case{"matmul", 3000000000, "outside [1, "},
                        Case{"doitgen", 3000000, "overflows int64"}}) {
    Response R = Service.handle(optimizeRequest(C.Kernel, C.Size));
    EXPECT_FALSE(R.Ok) << C.Kernel;
    EXPECT_EQ(R.Kind, ErrorKind::BadRequest) << C.Kernel;
    EXPECT_NE(R.Error.find(C.Why), std::string::npos) << R.Error;
  }
  Response After = Service.handle(optimizeRequest("copy", 64));
  EXPECT_TRUE(After.Ok) << After.Error;
}

TEST(ServeService, IllegalScheduleIsClassifiedAndCached) {
  OptimizerService Service;
  Request Req = optimizeRequest("matmul", 48);
  Req.Schedule = "parallel(k)"; // races on the accumulator
  Response R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::IllegalSchedule);
  EXPECT_NE(R.Error.find("parallel"), std::string::npos);

  // Deterministic failures are cached like successes: the duplicate gets
  // the verdict without re-running the verifier.
  Response Again = Service.handle(Req);
  EXPECT_FALSE(Again.Ok);
  EXPECT_EQ(Again.Kind, ErrorKind::IllegalSchedule);
  EXPECT_EQ(Again.Dedup, DedupOutcome::Cached);

  Req.Schedule = "split(i"; // malformed, same classification
  R = Service.handle(Req);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Kind, ErrorKind::IllegalSchedule);
}

TEST(ServeService, LintOpReturnsDiagnostics) {
  OptimizerService Service;

  // A schedule that keeps the column-major loop innermost: the lint pass
  // must surface strided-innermost with its fix-it through the wire
  // types (rendered JSON objects on the response).
  Request Req = optimizeRequest("matmul", 48);
  Req.Op = "lint";
  Req.Schedule = "reorder(i, j, k);";
  Response R = Service.handle(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.LintRan);
  ASSERT_FALSE(R.DiagnosticsJson.empty());
  EXPECT_NE(R.DiagnosticsJson[0].find("\"rule\": \"strided-innermost\""),
            std::string::npos);
  EXPECT_NE(R.DiagnosticsJson[0].find("\"fixit\""), std::string::npos);
  // Lint requests never compile, even when the client forgot to say so.
  EXPECT_TRUE(R.SoPaths.empty());
  std::string Rendered = renderResponse(R);
  EXPECT_NE(Rendered.find("\"diagnostics\": [{"), std::string::npos);

  // The optimizer's own chosen schedule lints clean — and the lint
  // request does not dedup-collide with an optimize for the same kernel.
  Request Clean = optimizeRequest("matmul", 48);
  Clean.Op = "lint";
  Response CleanR = Service.handle(Clean);
  ASSERT_TRUE(CleanR.Ok) << CleanR.Error;
  EXPECT_TRUE(CleanR.LintRan);
  EXPECT_TRUE(CleanR.DiagnosticsJson.empty());
  EXPECT_NE(renderResponse(CleanR).find("\"diagnostics\": []"),
            std::string::npos);

  Response Opt = Service.handle(optimizeRequest("matmul", 48));
  ASSERT_TRUE(Opt.Ok) << Opt.Error;
  EXPECT_FALSE(Opt.LintRan);
  EXPECT_NE(Opt.KeyHash, CleanR.KeyHash);
  EXPECT_EQ(Opt.Dedup, DedupOutcome::Miss); // not satisfied by the lint entry

  // Identical lint requests do dedup with each other.
  Response Again = Service.handle(Clean);
  EXPECT_EQ(Again.Dedup, DedupOutcome::Cached);
  EXPECT_TRUE(Again.LintRan);
}

/// Handles \p Req with tracing on; returns how many `analysis.verify`
/// spans (legality-verifier runs) it recorded.
int verifySpansOf(OptimizerService &Service, const Request &Req) {
  obs::clearTrace();
  obs::setTracingEnabled(true);
  Response R = Service.handle(Req);
  obs::setTracingEnabled(false);
  EXPECT_TRUE(R.Ok) << R.Error;
  const std::string Path = ::testing::TempDir() + "/ServeTest-verify.json";
  std::string Error;
  EXPECT_TRUE(obs::writeTrace(Path, &Error)) << Error;
  obs::clearTrace();
  std::ifstream In(Path);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  int Count = 0;
  const std::string Needle = "\"name\":\"analysis.verify\"";
  for (size_t Pos = Text.find(Needle); Pos != std::string::npos;
       Pos = Text.find(Needle, Pos + 1))
    ++Count;
  return Count;
}

TEST(ServeService, LintReplaysEachStageScheduleOnce) {
  // Scheduling verifies every stage it schedules (the optimizer's
  // post-condition, or the replay of a user schedule); the lint op reads
  // those reports instead of running the verifier again.
  OptimizerService Service;
  for (const char *Kernel : {"3mm", "matmul", "copy"}) {
    Request Opt = optimizeRequest(Kernel, 48);
    Request Lint = Opt;
    Lint.Op = "lint";
    const int OptSpans = verifySpansOf(Service, Opt);
    EXPECT_GE(OptSpans, static_cast<int>(
                            findBenchmark(Kernel)->Shape(48).Stages.size()))
        << Kernel;
    EXPECT_EQ(verifySpansOf(Service, Lint), OptSpans) << Kernel;
  }

  // A user schedule on matmul's one stage: the replay verifies it once
  // and lint reuses that report.
  Request User = optimizeRequest("matmul", 48);
  User.Op = "lint";
  User.Schedule = "reorder(i, j, k);";
  EXPECT_EQ(verifySpansOf(Service, User), 1);
}

TEST(ServeService, CompileReturnsSharedStorePaths) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  OptimizerService Service;
  Request Req = optimizeRequest("copy", 64, /*Compile=*/true);
  Response A = Service.handle(Req);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_FALSE(A.SoPaths.empty());
  for (const std::string &Path : A.SoPaths)
    EXPECT_EQ(::access(Path.c_str(), R_OK), 0) << Path;

  // The duplicate points at the *same* artifacts — one compile total.
  Response B = Service.handle(Req);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(B.Dedup, DedupOutcome::Cached);
  EXPECT_EQ(B.SoPaths, A.SoPaths);
}

/// The JIT's counting rule: every stage that yields a kernel counts once,
/// as a memo hit, a cc run or a store hit.
int64_t jitJobsCounted() {
  return obs::counter("jit.memo.hit").value() +
         obs::counter("jit.cc_invocations").value() +
         obs::counter("jit.disk_hits").value();
}

// Distinct compile requests from concurrent sessions, each compiled on
// its own session thread. Each response names the store entries
// compilePipeline builds for the same kernel, size and platform, and the
// JIT counts each of the requests' stages exactly once.
TEST(ServeService, ConcurrentCompilesMatchCompilePipeline) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  OptimizerService Service;
  Service.compiler().setDiskCacheEnabled(true); // paths are store keys
  const std::vector<Request> Reqs = {
      optimizeRequest("copy", 72, /*Compile=*/true),
      optimizeRequest("tp", 72, /*Compile=*/true),
      optimizeRequest("mask", 72, /*Compile=*/true),
      optimizeRequest("3mm", 24, /*Compile=*/true)};
  const int64_t JobsBefore = jitJobsCounted();

  std::vector<Response> Responses(Reqs.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != Reqs.size(); ++I)
    Threads.emplace_back(
        [&, I] { Responses[I] = Service.handle(Reqs[I]); });
  for (std::thread &T : Threads)
    T.join();
  const int64_t JobsCounted = jitJobsCounted() - JobsBefore;

  JITCompiler Reference;
  Reference.setDiskCacheEnabled(true);
  int64_t Stages = 0;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    const Request &Req = Reqs[I];
    ASSERT_TRUE(Responses[I].Ok) << Req.Kernel << ": " << Responses[I].Error;
    ErrorOr<ArchParams> Arch = resolveArch(Req);
    ASSERT_TRUE(static_cast<bool>(Arch)) << Arch.getError();
    BenchmarkInstance Instance = findBenchmark(Req.Kernel)->Shape(Req.Size);
    for (size_t S = 0; S != Instance.Stages.size(); ++S)
      optimize(Instance.Stages[S], Instance.StageExtents[S], *Arch);
    ErrorOr<CompiledPipeline> Pipeline = compilePipeline(Instance, Reference);
    ASSERT_TRUE(static_cast<bool>(Pipeline)) << Pipeline.getError();
    std::vector<std::string> Paths;
    for (const CompiledKernel &K : Pipeline->Kernels)
      Paths.push_back(K.sharedObjectPath());
    EXPECT_EQ(Responses[I].SoPaths, Paths) << Req.Kernel;
    Stages += static_cast<int64_t>(Instance.Stages.size());
  }
  EXPECT_EQ(JobsCounted, Stages);
}

/// A scratch directory holding a `cc` wrapper script and an empty kernel
/// store. While it lives, LTP_CC names the wrapper and LTP_JIT_CACHE_DIR
/// the store, so a service constructed in its scope compiles through the
/// wrapper. \p Body runs (as sh, with the directory in $D) before the
/// wrapper execs the real compiler; `--version` passes straight through.
class CcWrapper {
public:
  explicit CcWrapper(const std::string &Body) {
    char Template[] = "/tmp/ltp-cc-wrapper-XXXXXX";
    if (::mkdtemp(Template))
      Dir = Template;
    const char *Cc = std::getenv("LTP_CC");
    const std::string RealCc = Cc ? Cc : "cc";
    if (Cc)
      SavedCc = Cc;
    const std::string Store = Dir + "/store";
    ::mkdir(Store.c_str(), 0755);
    std::ofstream Script(Dir + "/cc");
    Script << "#!/bin/sh\n"
           << "case \"$1\" in --version) exec " << RealCc
           << " \"$@\" ;; esac\n"
           << "D='" << Dir << "'\n"
           << Body << "\n"
           << "exec " << RealCc << " \"$@\"\n";
    Script.close();
    ::chmod((Dir + "/cc").c_str(), 0755);
    ::setenv("LTP_CC", (Dir + "/cc").c_str(), 1);
    ::setenv("LTP_JIT_CACHE_DIR", Store.c_str(), 1);
  }
  ~CcWrapper() {
    if (SavedCc.empty())
      ::unsetenv("LTP_CC");
    else
      ::setenv("LTP_CC", SavedCc.c_str(), 1);
    ::unsetenv("LTP_JIT_CACHE_DIR");
    if (!Dir.empty())
      std::ignore = std::system(("rm -rf '" + Dir + "'").c_str());
  }
  CcWrapper(const CcWrapper &) = delete;
  CcWrapper &operator=(const CcWrapper &) = delete;

  bool ok() const { return !Dir.empty(); }
  std::string path(const std::string &Name) const { return Dir + "/" + Name; }

private:
  std::string Dir;
  std::string SavedCc;
};

// Each request compiles on its own session thread: a request whose cc
// is slow must not hold up a later, distinct one. The wrapper sleeps
// before its first compile only; the second request, sent once that
// sleep has begun, must be answered first.
TEST(ServeService, SlowCompileDoesNotDelayALaterOne) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  if (ThreadPool::global().size() < 2)
    GTEST_SKIP() << "one cc slot: the slow compile holds it by design";
  CcWrapper Wrapper("if mkdir \"$D/first\" 2>/dev/null; then\n"
                    "  touch \"$D/started\"; sleep 1.5\n"
                    "fi");
  ASSERT_TRUE(Wrapper.ok());
  OptimizerService Service;
  Service.compiler().setDiskCacheEnabled(true);

  std::atomic<int> Finished{0};
  int SlowRank = -1, FastRank = -1;
  Response Slow, Fast;
  std::thread SlowThread([&] {
    Slow = Service.handle(optimizeRequest("copy", 72, /*Compile=*/true));
    SlowRank = Finished++;
  });
  for (int I = 0; I != 600 && ::access(Wrapper.path("started").c_str(),
                                       F_OK) != 0;
       ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(::access(Wrapper.path("started").c_str(), F_OK), 0)
      << "the slow compile never started";
  std::thread FastThread([&] {
    Fast = Service.handle(optimizeRequest("tp", 72, /*Compile=*/true));
    FastRank = Finished++;
  });
  FastThread.join();
  SlowThread.join();

  ASSERT_TRUE(Slow.Ok) << Slow.Error;
  ASSERT_TRUE(Fast.Ok) << Fast.Error;
  EXPECT_EQ(Fast.Dedup, DedupOutcome::Miss);
  EXPECT_LT(FastRank, SlowRank)
      << "the later request waited for the slow compile ("
      << Fast.CompileMillis << " ms in its compile stage)";
}

//===----------------------------------------------------------------------===//
// JIT memo hit/miss telemetry (the sharded map's observable contract)
//===----------------------------------------------------------------------===//

TEST(ServeService, JitMemoCounterSplit) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  // Compile the same pipeline twice through one compiler: the first pass
  // misses the in-process memo, the repeat hits it — and the split is
  // visible in the jit.memo.{hit,miss} counters the stats op exports.
  JITCompiler Compiler;
  Compiler.setDiskCacheEnabled(false); // pin expectations to the memo
  BenchmarkInstance Instance = findBenchmark("copy")->Create(80);

  const int64_t HitBefore = obs::counter("jit.memo.hit").value();
  const int64_t MissBefore = obs::counter("jit.memo.miss").value();
  auto Cold = compilePipeline(Instance, Compiler);
  ASSERT_TRUE(static_cast<bool>(Cold)) << Cold.getError();
  const int64_t ColdMisses =
      obs::counter("jit.memo.miss").value() - MissBefore;
  EXPECT_EQ(ColdMisses,
            static_cast<int64_t>(Cold->Kernels.size()));
  EXPECT_EQ(obs::counter("jit.memo.hit").value(), HitBefore);

  auto Warm = compilePipeline(Instance, Compiler);
  ASSERT_TRUE(static_cast<bool>(Warm));
  EXPECT_EQ(obs::counter("jit.memo.hit").value() - HitBefore, ColdMisses);
  EXPECT_EQ(obs::counter("jit.memo.miss").value() - MissBefore, ColdMisses);
  EXPECT_EQ(Compiler.cacheHitCount(), static_cast<int>(ColdMisses));
}

//===----------------------------------------------------------------------===//
// Server round-trip over a real socket
//===----------------------------------------------------------------------===//

class ClientConn {
public:
  explicit ClientConn(const std::string &Path) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ClientConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  std::string roundTrip(const std::string &Request) {
    if (!send(Request + "\n"))
      return "";
    return readLine();
  }

  /// Writes \p Bytes as they are; false on a write error.
  bool send(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// The next reply line; empty once the daemon closed the connection.
  std::string readLine() {
    size_t Pos;
    while ((Pos = Buffer.find('\n')) == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return "";
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, Pos);
    Buffer.erase(0, Pos + 1);
    return Line;
  }

  /// Makes a read that waits longer than \p Seconds fail, so a reply
  /// that never comes fails the test instead of hanging it.
  void setReadTimeout(int Seconds) {
    timeval Timeout{Seconds, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  }

  /// True when nothing is buffered and the daemon has closed its end.
  bool peerClosed() {
    char Byte = 0;
    ssize_t N = 0;
    do
      N = ::read(Fd, &Byte, 1);
    while (N < 0 && errno == EINTR);
    return Buffer.empty() && N == 0;
  }

private:
  int Fd = -1;
  std::string Buffer;
};

TEST(ServeServer, SocketRoundTrip) {
  std::string Path = "/tmp/ltp-serve-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);

    std::string R = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": 64, "
        "\"arch\": \"6700\", \"compile\": false, \"id\": \"t1\"}");
    EXPECT_NE(R.find("\"ok\": true"), std::string::npos) << R;
    EXPECT_NE(R.find("\"id\": \"t1\""), std::string::npos) << R;
    EXPECT_NE(R.find("\"dedup\": \"miss\""), std::string::npos) << R;

    // Same request on a *different* connection: served from the table.
    ClientConn Conn2(Path);
    ASSERT_TRUE(Conn2.ok());
    std::string R2 = Conn2.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": 64, "
        "\"arch\": \"6700\", \"compile\": false}");
    EXPECT_NE(R2.find("\"dedup\": \"cached\""), std::string::npos) << R2;

    std::string Stats = Conn.roundTrip("{\"op\": \"stats\"}");
    EXPECT_NE(Stats.find("\"serve.requests\""), std::string::npos) << Stats;
    EXPECT_NE(Stats.find("\"serve.dedup_hit\""), std::string::npos) << Stats;

    // Malformed line: an error response, connection stays usable.
    EXPECT_NE(Conn.roundTrip("garbage").find("\"kind\": \"bad_request\""),
              std::string::npos);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\""),
              std::string::npos);

    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
  EXPECT_NE(::access(Path.c_str(), F_OK), 0); // socket unlinked
}

TEST(ServeServer, OverlongRequestLineIsRejectedAndClosed) {
  // The daemon buffers a request line only up to MaxRequestLineBytes. A
  // line of exactly the cap is still read (and here fails to parse, on
  // a connection that stays open); one byte more without a newline draws
  // one bad_request naming the limit, then the daemon closes that
  // connection and goes on serving new ones.
  std::string Path = "/tmp/ltp-serve-cap-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn AtCap(Path);
    ASSERT_TRUE(AtCap.ok());
    std::string R = AtCap.roundTrip(std::string(MaxRequestLineBytes, 'x'));
    EXPECT_NE(R.find("\"kind\": \"bad_request\""), std::string::npos) << R;
    EXPECT_EQ(R.find("exceeds"), std::string::npos) << R;
    EXPECT_NE(AtCap.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);

    ClientConn Over(Path);
    ASSERT_TRUE(Over.ok());
    Over.setReadTimeout(30);
    ASSERT_TRUE(Over.send(std::string(MaxRequestLineBytes + 1, 'x')));
    R = Over.readLine();
    EXPECT_NE(R.find("\"kind\": \"bad_request\""), std::string::npos) << R;
    EXPECT_NE(R.find("request line exceeds " +
                     std::to_string(MaxRequestLineBytes) + " bytes"),
              std::string::npos)
        << R;
    EXPECT_TRUE(Over.peerClosed());

    ClientConn Fresh(Path);
    ASSERT_TRUE(Fresh.ok());
    EXPECT_NE(Fresh.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);
    EXPECT_NE(Fresh.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

TEST(ServeServer, OversizedVectorLoopsNeverAbortTheDaemon) {
  // Above 4096 columns the back end cannot take a vectorized loop over
  // the whole row. The optimizer must plan around the limit (the request
  // compiles), and a user schedule asking for one is an illegal
  // schedule — neither may abort the daemon.
  std::string Path = "/tmp/ltp-serve-vec-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    std::string Planned = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"matmul\", \"size\": 4097, "
        "\"arch\": \"6700\"}");
    if (jitAvailable())
      EXPECT_NE(Planned.find("\"ok\": true"), std::string::npos) << Planned;
    else
      EXPECT_NE(Planned.find("\"kind\": \"internal\""), std::string::npos)
          << Planned;

    std::string User = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"matmul\", \"size\": 5000, "
        "\"arch\": \"6700\", \"schedule\": \"vectorize(j);\"}");
    EXPECT_NE(User.find("\"kind\": \"illegal_schedule\""), std::string::npos)
        << User;
    EXPECT_NE(User.find("exceeds the backend limit 4096"), std::string::npos)
        << User;

    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

TEST(ServeServer, UnemulatableArchTextIsABadRequest) {
  // Cache geometry Algorithm 1 cannot emulate (a line below one element,
  // fewer bytes than one set, a level too large to emulate) is refused
  // where the platform text is parsed, and the daemon keeps answering.
  std::string Path = "/tmp/ltp-serve-arch-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    for (const char *ArchText :
         {"l1.line = 2", "l1.ways = 16384", "l2.size = 1099511627776"}) {
      std::string R = Conn.roundTrip(
          std::string("{\"op\": \"optimize\", \"kernel\": \"matmul\", "
                      "\"size\": 64, \"compile\": false, \"arch_text\": \"") +
          ArchText + "\"}");
      EXPECT_NE(R.find("\"kind\": \"bad_request\""), std::string::npos)
          << ArchText << ": " << R;
      EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
                std::string::npos)
          << "after " << ArchText;
    }
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

TEST(ServeServer, SplitWithOneNameTwiceIsAnIllegalSchedule) {
  // split(i, io, io, 4) used to abort the daemon on an assert; it is an
  // illegal_schedule response, and the daemon keeps answering.
  std::string Path = "/tmp/ltp-serve-split-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    std::string R = Conn.roundTrip(
        "{\"op\": \"optimize\", \"kernel\": \"matmul\", \"size\": 64, "
        "\"schedule\": \"split(i, io, io, 4);\", \"compile\": false}");
    EXPECT_NE(R.find("\"kind\": \"illegal_schedule\""), std::string::npos)
        << R;
    EXPECT_NE(R.find("split names must differ"), std::string::npos) << R;
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

// Platforms that differ below a KiB of cache get distinct dedup keys:
// the second is optimized for its own geometry, with the schedule the
// optimizer (and so `ltp-opt --arch-file`) picks for it.
TEST(ServeServer, ArchTextsDifferingBelowAKibShareNoKey) {
  std::string Path = "/tmp/ltp-serve-archkey-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  auto Expected = [](const std::string &ArchText) {
    ErrorOr<ArchParams> Arch = parseArchParams(ArchText);
    EXPECT_TRUE(static_cast<bool>(Arch)) << Arch.getError();
    BenchmarkInstance Instance = findBenchmark("matmul")->Shape(256);
    for (size_t S = 0; S != Instance.Stages.size(); ++S)
      optimize(Instance.Stages[S], Instance.StageExtents[S], *Arch);
    const Func &Last = Instance.Stages.back();
    return "\"schedule\": \"" +
           obs::jsonEscape(printSchedule(Last, Last.computeStageIndex())) +
           "\"";
  };
  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    std::string Schedules[2];
    const char *ArchTexts[2] = {"l1.size = 1500", "l1.size = 1024"};
    for (int I = 0; I != 2; ++I) {
      std::string R = Conn.roundTrip(
          std::string("{\"op\": \"optimize\", \"kernel\": \"matmul\", "
                      "\"size\": 256, \"compile\": false, \"arch_text\": "
                      "\"") +
          ArchTexts[I] + "\"}");
      EXPECT_NE(R.find("\"dedup\": \"miss\""), std::string::npos)
          << ArchTexts[I] << ": " << R;
      Schedules[I] = Expected(ArchTexts[I]);
      EXPECT_NE(R.find(Schedules[I]), std::string::npos)
          << ArchTexts[I] << ": want " << Schedules[I] << " in " << R;
    }
    EXPECT_NE(Schedules[0], Schedules[1]) << "the platforms plan alike";
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

// The daemon runs at most one cc per pool thread, however many sessions
// compile at once. Twice the pool width of distinct compile requests
// arrive together, each on its own connection; the wrapper logs how many
// of its instances are running whenever one starts.
TEST(ServeServer, ConcurrentCompilesRunAtMostOneCcPerPoolThread) {
  if (!jitAvailable())
    GTEST_SKIP() << "no host C compiler available";
  CcWrapper Wrapper("touch \"$D/run.$$\"\n"
                    "ls \"$D\" | grep -c '^run\\.' >> \"$D/log\"\n"
                    "sleep 0.2\n"
                    "rm -f \"$D/run.$$\"");
  ASSERT_TRUE(Wrapper.ok());
  std::string Path = "/tmp/ltp-serve-ccslots-test-" +
                     std::to_string(static_cast<long>(::getpid())) + ".sock";
  Server Srv(Path);
  Srv.service().compiler().setDiskCacheEnabled(true);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  std::thread Waiter([&] { Srv.wait(); });

  const int Width = static_cast<int>(ThreadPool::global().size());
  std::vector<std::string> Replies(static_cast<size_t>(2 * Width));
  std::vector<std::thread> Clients;
  for (int I = 0; I != 2 * Width; ++I)
    Clients.emplace_back([&, I] {
      ClientConn Conn(Path);
      if (Conn.ok())
        Replies[static_cast<size_t>(I)] = Conn.roundTrip(
            "{\"op\": \"optimize\", \"kernel\": \"copy\", \"size\": " +
            std::to_string(64 + 8 * I) + ", \"arch\": \"6700\"}");
    });
  for (std::thread &T : Clients)
    T.join();
  for (const std::string &R : Replies)
    EXPECT_NE(R.find("\"ok\": true"), std::string::npos) << R;

  std::ifstream Log(Wrapper.path("log"));
  int Runs = 0, MostAtOnce = 0;
  for (int Count; Log >> Count; ++Runs)
    MostAtOnce = std::max(MostAtOnce, Count);
  EXPECT_GE(Runs, 2 * Width) << "the wrapper ran fewer times than requests";
  EXPECT_GE(MostAtOnce, 1);
  EXPECT_LE(MostAtOnce, Width) << "more cc runs at once than pool threads";

  {
    ClientConn Conn(Path);
    ASSERT_TRUE(Conn.ok());
    EXPECT_NE(Conn.roundTrip("{\"op\": \"ping\"}").find("\"pong\": true"),
              std::string::npos);
    EXPECT_NE(Conn.roundTrip("{\"op\": \"shutdown\"}").find("\"stopping\""),
              std::string::npos);
  }
  Waiter.join();
}

} // namespace
