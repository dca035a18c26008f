//===- LayerReplay.cpp - the traced run of every workload -----------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// A traced run gives the per-layer metrics, the same set on every
// workload. It replays the workload's seeded requests in process: each
// request goes through the layers' public functions one call at a time,
// each call in a benchmark span, and then through OptimizerService::handle
// on a service with a fresh store, whose total the layer spans are held
// against. A kernel probe closes the run: the twelve Table-4 kernels at
// kernel_run's sizes, timed with and without the program's own spans.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Serving.h"

#include "analysis/Legality.h"
#include "analysis/Lint.h"
#include "benchmarks/PipelineRunner.h"
#include "codegen/CodeGenC.h"
#include "core/Classifier.h"
#include "lang/Bounds.h"
#include "lang/ScheduleText.h"
#include "obs/Telemetry.h"
#include "serve/OptimizerService.h"
#include "support/Format.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sys/stat.h>

using namespace perfbench;
using namespace ltp;

//===----------------------------------------------------------------------===//
// Layer steps
//===----------------------------------------------------------------------===//

int perfbench::computeStage(const Func &F) {
  return F.numUpdates() > 0 ? F.numUpdates() - 1 : -1;
}

void perfbench::useStore(const std::string &Dir) {
  ::mkdir(Dir.c_str(), 0755);
  ::setenv("LTP_JIT_CACHE_DIR", Dir.c_str(), 1); // NOLINT(concurrency-mt-unsafe)
}

BenchmarkInstance perfbench::createInstance(Trace &T,
                                            const std::string &Kernel,
                                            int64_t Size) {
  ScopedSpan Span(T.Spans, "benchmarks.create", T.Parent, T.RequestId);
  BenchmarkInstance Instance = findBenchmark(Kernel)->Create(Size);
  T.S.CreateMs += Span.close();
  double Bytes = 0;
  for (const auto &[Name, Ref] : Instance.Buffers)
    Bytes += static_cast<double>(Ref.sizeBytes());
  T.S.CreateMb += Bytes / (1024.0 * 1024.0);
  return Instance;
}

StagePlan perfbench::planInstance(Trace &T, BenchmarkInstance &Instance,
                                  const ArchParams &Arch) {
  obs::Counter &Candidates = obs::counter("opt.candidates");
  obs::Counter &SimCandidates = obs::counter("opt.candidates.sim");
  obs::Counter &Analytic = obs::counter("model.bound.analytic");
  obs::Counter &Fallback = obs::counter("model.bound.fallback");
  obs::Counter &Accesses = obs::counter("sim.accesses");
  const int64_t C0 = Candidates.value(), S0 = SimCandidates.value(),
                A0 = Analytic.value(), F0 = Fallback.value(),
                X0 = Accesses.value();

  StagePlan Last;
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    Func &F = Instance.Stages[S];
    const std::vector<int64_t> &Extents = Instance.StageExtents[S];
    {
      ScopedSpan Span(T.Spans, "core.plan", T.Parent, T.RequestId);
      F.clearSchedules();
      Last = planStage(F, Extents, Arch);
      applyPlan(F, Last);
      T.S.PlanMs += Span.close();
    }
    T.S.ClassifyMs += Last.ClassifyMillis;
    T.S.TemporalMs += Last.TemporalMillis;
    T.S.SpatialMs += Last.SpatialMillis;

    // optimize()'s post-condition: the compute stage and, for
    // reductions, the init stage it scheduled alongside.
    ScopedSpan Span(T.Spans, "analysis.verify", T.Parent, T.RequestId);
    int Compute = computeStage(F);
    analysis::verifyStageSchedule(F, Compute, Extents);
    if (Compute >= 0)
      analysis::verifyStageSchedule(F, -1, Extents);
    T.S.VerifyMs += Span.close();
  }

  T.S.Candidates += static_cast<double>(Candidates.value() - C0);
  T.S.SimCandidates += static_cast<double>(SimCandidates.value() - S0);
  T.S.BoundAnalytic += static_cast<double>(Analytic.value() - A0);
  T.S.BoundFallback += static_cast<double>(Fallback.value() - F0);
  T.S.SimAccesses += static_cast<double>(Accesses.value() - X0);
  return Last;
}

std::vector<std::string> perfbench::lintInstance(Trace &T,
                                                 BenchmarkInstance &Instance,
                                                 const ArchParams &Arch) {
  ScopedSpan Span(T.Spans, "analysis.lint", T.Parent, T.RequestId);
  std::vector<std::string> Diagnostics;
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    Func &F = Instance.Stages[S];
    lint::LintReport Report = lint::lintStageSchedule(
        F, computeStage(F), Instance.StageExtents[S], Arch);
    for (const lint::Diagnostic &D : Report.Diagnostics)
      Diagnostics.push_back(lint::diagnosticJson(D, static_cast<int>(S)));
  }
  T.S.LintMs += Span.close();
  return Diagnostics;
}

std::vector<ir::StmtPtr>
perfbench::lowerInstance(Trace &T, const BenchmarkInstance &Instance) {
  ScopedSpan Span(T.Spans, "lang.lower", T.Parent, T.RequestId);
  std::vector<ir::StmtPtr> Lowered = lowerPipeline(Instance);
  for (const ir::StmtPtr &S : Lowered)
    if (!validateAccesses(S, Instance.Buffers).empty())
      Lowered.clear();
  T.S.LowerMs += Span.close();
  return Lowered;
}

std::vector<CompiledKernel>
perfbench::compileInstance(Trace &T, const BenchmarkInstance &Instance,
                           const std::vector<ir::StmtPtr> &Lowered,
                           JITCompiler &Cold, JITCompiler &Loader,
                           std::string &Error) {
  std::vector<BufferBinding> Signature;
  for (const auto &[Name, Ref] : Instance.Buffers)
    Signature.push_back(BufferBinding::fromRef(Name, Ref));
  CodeGenOptions CG;

  double EmitMs = 0;
  {
    ScopedSpan Span(T.Spans, "codegen.emit", T.Parent, T.RequestId);
    for (const ir::StmtPtr &S : Lowered)
      T.S.SourceKb += generateC(S, Signature, "ltp_kernel", CG).size() / 1024.0;
    EmitMs = Span.close();
  }
  T.S.EmitMs += EmitMs;

  const int Runs0 = Cold.compileCount();
  const int Hits0 = Cold.cacheHitCount() + Cold.diskHitCount();
  std::vector<CompiledKernel> Kernels;
  {
    // One compileMany call over the stages, as the service's batch
    // compiler issues it. The JIT regenerates the C source before looking
    // it up, so the emit time measured above is taken out of both spans.
    ScopedSpan Span(T.Spans, "jit.compile", T.Parent, T.RequestId);
    std::vector<CompileJob> Jobs;
    for (const ir::StmtPtr &S : Lowered)
      Jobs.push_back(CompileJob{S, Signature, CG});
    for (ErrorOr<CompiledKernel> &K : Cold.compileMany(Jobs)) {
      if (!K) {
        Error = K.getError();
        return {};
      }
      Kernels.push_back(std::move(*K));
    }
    double Ms = Span.close();
    T.S.CompileMs += Ms;
    T.S.CcMs += Ms - EmitMs;
  }
  T.S.CcRuns += Cold.compileCount() - Runs0;
  T.S.StoreHits += Cold.cacheHitCount() + Cold.diskHitCount() - Hits0;
  T.S.StoreLookups += static_cast<double>(Lowered.size());

  // Cold still holds its modules open, and dlopen of a path (or inode)
  // already loaded only bumps a reference count. The loader's store is a
  // copy, so its lookup really maps, relocates and initializes each file.
  // A file the copy already holds (identical C seen before) is left alone:
  // the loader has it open, as a store hit in the daemon would.
  for (const CompiledKernel &K : Kernels) {
    const std::filesystem::path From = K.sharedObjectPath();
    std::error_code Ec;
    std::filesystem::copy_file(
        From, std::filesystem::path(Loader.cacheDir()) / From.filename(),
        std::filesystem::copy_options::skip_existing, Ec);
    if (Ec) {
      Error = "cannot copy " + From.string() + ": " + Ec.message();
      return {};
    }
  }

  ScopedSpan Span(T.Spans, "jit.load", T.Parent, T.RequestId);
  std::vector<CompileJob> Jobs;
  for (const ir::StmtPtr &S : Lowered)
    Jobs.push_back(CompileJob{S, Signature, CG});
  for (ErrorOr<CompiledKernel> &K : Loader.compileMany(Jobs))
    if (!K) {
      Error = "reload from the store failed";
      return {};
    }
  T.S.LoadMs += Span.close() - EmitMs;
  return Kernels;
}

double perfbench::preprocessedKb(const std::string &Source,
                                 const std::string &Dir) {
  const std::string In = Dir + "/preprocess.c", Out = Dir + "/preprocess.i";
  {
    std::ofstream F(In);
    F << Source;
  }
  const char *Cc = std::getenv("LTP_CC"); // NOLINT(concurrency-mt-unsafe)
  std::string Cmd =
      strFormat("%s -E -O3%s '%s' -o '%s' 2>/dev/null", Cc ? Cc : "cc",
                codegen::TargetISA::host().compilerFlags().c_str(),
                In.c_str(), Out.c_str());
  struct stat St;
  if (std::system(Cmd.c_str()) != 0 || ::stat(Out.c_str(), &St) != 0)
    return -1.0;
  ::unlink(In.c_str());
  ::unlink(Out.c_str());
  return static_cast<double>(St.st_size) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Traced runs
//===----------------------------------------------------------------------===//

namespace {

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

/// What a traced run replays in process: the untraced run's seeded stream
/// (cold workloads), its warm pool (warm_serve) or the set-up of the
/// twelve kernels as requests (kernel_run).
std::vector<StreamRequest> tracedStream(const Options &Opts) {
  if (Opts.Workload == "warm_serve")
    return warmPool(Opts.Seed, Opts.Tiny);
  if (Opts.Workload == "kernel_run")
    return kernelRunRequests(Opts.Tiny);
  KeyAccounting Keys;
  return coldStream(Opts.Seed, coldStreamLength(Opts),
                    Opts.Workload == "cold_compile", Opts.Tiny, Keys);
}

/// Median in-process time of a dedup hit with the program's own spans on,
/// over the same with them off. Blocks alternate, so drift of the machine
/// moves both sides alike.
double hitTracingRatio(serve::OptimizerService &Service,
                       const std::vector<serve::Request> &Served,
                       const Options &Opts) {
  std::vector<double> Off, On;
  const size_t PerBlock = Opts.Tiny ? 20 : 200;
  for (int Block = 0; Block != 20; ++Block) {
    const bool Tracing = Block % 2 == 1;
    obs::setTracingEnabled(Tracing);
    for (size_t I = 0; I != PerBlock; ++I) {
      double T0 = nowSeconds();
      Service.handle(Served[I % Served.size()]);
      (Tracing ? On : Off).push_back(nowSeconds() - T0);
    }
  }
  obs::setTracingEnabled(false);
  return median(On) / median(Off);
}

} // namespace

int perfbench::traceWorkload(const Options &Opts, Result &R) {
  const bool KernelRun = Opts.Workload == "kernel_run";
  const std::vector<StreamRequest> Stream = tracedStream(Opts);

  SpanRecorder Spans;
  useStore(Opts.RunDir + "/store-c");
  auto Cold = std::make_unique<JITCompiler>();
  useStore(Opts.RunDir + "/store-c-copy");
  JITCompiler Loader;
  useStore(Opts.RunDir + "/store-d");
  serve::OptimizerService Service;

  KernelSet Set; // kernel_run: its replayed set-up
  std::vector<serve::Request> Served;
  std::vector<double> ParseUs, RenderUs, HitUs, CompileStageMs, Unaccounted,
      PreprocessedKb;
  std::vector<LayerSample> Samples, Compiled;
  // kernel_run replays its whole set-up, the others a share of the run.
  const double Deadline = nowSeconds() + Opts.Seconds * 0.6;
  for (size_t I = 0; I != Stream.size() &&
                     (KernelRun || I == 0 || nowSeconds() < Deadline);
       ++I) {
    const std::string Rid = strFormat("bench-%zu", I);
    LayerSample S;
    ScopedSpan Root(Spans, "request", 0, Rid);
    Trace T{Spans, Root.id(), Rid, S};

    int Id = Spans.begin("serve.parse", Root.id(), Rid);
    ErrorOr<serve::Request> Req = serve::parseRequest(Stream[I].Line);
    ParseUs.push_back(Spans.end(Id) * 1e3);
    if (!Req) {
      R.attempt(false, "parse failed: " + Req.getError());
      continue;
    }
    // Every optimize request compiles here, cold_plan's too, and every
    // request is linted, so each layer is measured on every workload's
    // keys. Only what the service itself runs counts towards its total.
    const bool Lint = Req->Op == "lint";
    Req->Compile = !Lint;
    ErrorOr<ArchParams> Arch = serve::resolveArch(*Req);

    BenchmarkInstance Instance = createInstance(T, Req->Kernel, Req->Size);
    StagePlan Plan = planInstance(T, Instance, *Arch);
    serve::Response Resp;
    Resp.Ok = true;
    Resp.Kernel = Req->Kernel;
    Resp.Class = statementClassName(Plan.Class.Kind);
    Resp.Description = Plan.Description;
    Resp.Schedule = printSchedule(Instance.Stages.back(),
                                  computeStage(Instance.Stages.back()));
    Resp.KeyHash = serve::keyHash(serve::canonicalKey(*Req, *Arch));
    std::vector<std::string> Diagnostics = lintInstance(T, Instance, *Arch);
    if (Lint) {
      Resp.DiagnosticsJson = std::move(Diagnostics);
      Resp.LintRan = true;
    }
    std::vector<CompiledKernel> Kernels;
    if (!Lint) {
      std::vector<ir::StmtPtr> Lowered = lowerInstance(T, Instance);
      std::string Error = Lowered.empty() ? "bounds check failed" : "";
      if (Error.empty())
        Kernels = compileInstance(T, Instance, Lowered, *Cold, Loader, Error);
      if (!Error.empty()) {
        R.attempt(false, "layer replay: " + Error);
        continue;
      }
      for (const CompiledKernel &K : Kernels)
        Resp.SoPaths.push_back(K.sharedObjectPath());
      if (PreprocessedKb.size() < 2)
        PreprocessedKb.push_back(
            preprocessedKb(Kernels.front().source(), Opts.RunDir));
    }
    Id = Spans.begin("serve.render", Root.id(), Rid);
    serve::renderResponse(Resp);
    RenderUs.push_back(Spans.end(Id) * 1e3);
    Root.close();

    // The service's own total for the same request (a dedup miss on a
    // fresh store), then a dedup hit.
    Id = Spans.begin("serve.handle", 0, Rid);
    serve::Response Miss = Service.handle(*Req);
    double Total = Spans.end(Id);
    Id = Spans.begin("serve.handle_hit", 0, Rid);
    serve::Response Hit = Service.handle(*Req);
    HitUs.push_back(Spans.end(Id) * 1e3);
    bool Good = Miss.Ok && Hit.Ok && Hit.Dedup == serve::DedupOutcome::Cached &&
                Miss.Schedule == Resp.Schedule;
    R.attempt(Good, "in-process handle disagrees with the layer replay");

    Unaccounted.push_back(Total - (S.CreateMs + S.PlanMs + S.VerifyMs +
                                   (Lint ? S.LintMs : 0.0) + S.LowerMs +
                                   S.CompileMs));
    Samples.push_back(S);
    Served.push_back(*Req);
    if (!Lint) {
      Compiled.push_back(S);
      CompileStageMs.push_back(Miss.CompileMillis);
    }
    if (KernelRun) {
      Set.Instances.push_back(std::move(Instance));
      Set.Pipes.emplace_back();
      Set.Pipes.back().Kernels = std::move(Kernels);
    }
  }
  if (Compiled.empty() || (KernelRun && Set.Pipes.size() != Stream.size())) {
    R.fail("the layer replay compiled nothing");
    return 1;
  }

  auto avg = [](const std::vector<LayerSample> &Of,
                double LayerSample::*Field) {
    std::vector<double> V;
    for (const LayerSample &S : Of)
      V.push_back(S.*Field);
    return mean(V);
  };
  auto ratio = [&avg](const std::vector<LayerSample> &Of,
                      double LayerSample::*Num, double LayerSample::*Den) {
    double D = avg(Of, Den);
    return D > 0 ? avg(Of, Num) / D : 0.0;
  };

  R.metric("serve.parse_us", median(ParseUs), "us");
  R.metric("serve.render_us", median(RenderUs), "us");
  R.metric("serve.handle_us", median(HitUs), "us");
  R.metric("serve.compile_stage_ms", mean(CompileStageMs), "ms");
  R.metric("serve.unaccounted_ms", mean(Unaccounted), "ms");
  R.metric("benchmarks.create_ms", avg(Samples, &LayerSample::CreateMs), "ms");
  R.metric("benchmarks.create_mb", avg(Samples, &LayerSample::CreateMb), "MB");
  R.metric("core.plan_ms", avg(Samples, &LayerSample::PlanMs), "ms");
  R.metric("core.classify_ms", avg(Samples, &LayerSample::ClassifyMs), "ms");
  R.metric("core.temporal_ms", avg(Samples, &LayerSample::TemporalMs), "ms");
  R.metric("core.spatial_ms", avg(Samples, &LayerSample::SpatialMs), "ms");
  R.metric("model.candidates_per_request",
           avg(Samples, &LayerSample::Candidates), "count");
  R.metric("model.sim_fallback_ratio",
           ratio(Samples, &LayerSample::SimCandidates,
                 &LayerSample::Candidates),
           "ratio");
  {
    double Analytic = avg(Samples, &LayerSample::BoundAnalytic);
    double Fallback = avg(Samples, &LayerSample::BoundFallback);
    R.metric("model.bound_fallback_ratio",
             Analytic + Fallback > 0 ? Fallback / (Analytic + Fallback) : 0.0,
             "ratio");
  }
  R.metric("cachesim.accesses_per_request",
           avg(Samples, &LayerSample::SimAccesses), "count");
  R.metric("analysis.verify_ms", avg(Samples, &LayerSample::VerifyMs), "ms");
  R.metric("analysis.lint_ms", avg(Samples, &LayerSample::LintMs), "ms");
  R.metric("lang.lower_ms", avg(Compiled, &LayerSample::LowerMs), "ms");
  R.metric("codegen.emit_ms", avg(Compiled, &LayerSample::EmitMs), "ms");
  R.metric("codegen.source_kb", avg(Compiled, &LayerSample::SourceKb), "KB");
  R.metric("codegen.preprocessed_kb", median(PreprocessedKb), "KB");
  R.metric("jit.cc_ms", avg(Compiled, &LayerSample::CcMs), "ms");
  R.metric("jit.load_ms", avg(Compiled, &LayerSample::LoadMs), "ms");
  R.metric("jit.cc_per_request", avg(Compiled, &LayerSample::CcRuns),
           "count");
  R.metric("jit.store_hit_ratio",
           ratio(Compiled, &LayerSample::StoreHits, &LayerSample::StoreLookups),
           "ratio");

  // The kernel probe: kernel_run times the kernels it just replayed, the
  // serving workloads build kernel_run's set-up untraced first. A
  // workload's tracing overhead is that of its latency: a dedup hit in the
  // service, or a kernel run.
  double HitRatio = 0.0;
  if (!KernelRun) {
    HitRatio = hitTracingRatio(Service, Served, Opts);
    if (!buildKernelSet(Opts, Opts.RunDir + "/kstore", Set, R))
      return 1;
  } else {
    Set.Compiler = std::move(Cold);
  }
  const double Share = KernelRun ? 0.4 : 0.2;
  double KernelRatio = probeKernels(Opts, Set, Opts.Seconds * Share,
                                    Opts.Seconds * Share / 2, R);
  R.metric("obs.tracing_overhead", KernelRun ? KernelRatio : HitRatio,
           "ratio");

  std::fprintf(stderr, "traced replay: %zu of %zu requests in process, %zu "
                       "spans\n",
               Samples.size(), Stream.size(), Spans.size());
  if (!Spans.write(Opts.TraceOut))
    R.fail("cannot write " + Opts.TraceOut);
  return 0;
}
