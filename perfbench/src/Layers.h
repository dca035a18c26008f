//===- Layers.h - timed calls into each layer -------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs call each layer's public functions in the order the
/// service does and wrap every call in a benchmark span. These helpers
/// perform one layer step for one request and add its cost to a
/// LayerSample. The kernel probe at the end of every traced run lives here
/// too.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_LAYERS_H
#define LTP_PERFBENCH_LAYERS_H

#include "Common.h"

#include "arch/ArchParams.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/PipelineRunner.h"
#include "core/Optimizer.h"
#include "jit/JIT.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-request cost of each layer (milliseconds unless named otherwise)
/// and the program counters moved while planning.
struct LayerSample {
  double CreateMs = 0, CreateMb = 0;
  double PlanMs = 0, ClassifyMs = 0, TemporalMs = 0, SpatialMs = 0;
  double VerifyMs = 0, LintMs = 0, LowerMs = 0;
  double EmitMs = 0, SourceKb = 0, CompileMs = 0, CcMs = 0, LoadMs = 0;
  double CcRuns = 0, StoreHits = 0, StoreLookups = 0;
  double Candidates = 0, SimCandidates = 0;
  double BoundAnalytic = 0, BoundFallback = 0, SimAccesses = 0;
};

/// Where one request's spans go.
struct Trace {
  SpanRecorder &Spans;
  int Parent;
  std::string RequestId;
  LayerSample &S;
};

/// benchmarks: BenchmarkDef::Create, plus the bytes of its buffers.
ltp::BenchmarkInstance createInstance(Trace &T, const std::string &Kernel,
                                 int64_t Size);

/// core (planStage + applyPlan per stage) followed by analysis
/// (verifyStageSchedule on every scheduled stage, as optimize() does).
/// Returns the last stage's plan.
ltp::StagePlan planInstance(Trace &T, ltp::BenchmarkInstance &Instance,
                            const ltp::ArchParams &Arch);

/// analysis: lintStageSchedule on every stage; the rendered diagnostics.
std::vector<std::string> lintInstance(Trace &T,
                                      ltp::BenchmarkInstance &Instance,
                                      const ltp::ArchParams &Arch);

/// lang: lowerPipeline + validateAccesses. Empty on a bounds failure.
std::vector<ltp::ir::StmtPtr> lowerInstance(Trace &T,
                                            const ltp::BenchmarkInstance &I);

/// codegen (generateC), then jit: compileMany on \p Cold (the store's
/// first build) and again through \p Loader, a second compiler whose store
/// receives a copy of each new `.so` first (the disk-hit and dlopen path;
/// copies, because Cold still has the originals loaded). Returns the
/// kernels built by \p Cold, or an empty vector after recording the error
/// in \p Error.
std::vector<ltp::CompiledKernel>
compileInstance(Trace &T, const ltp::BenchmarkInstance &Instance,
                const std::vector<ltp::ir::StmtPtr> &Lowered,
                ltp::JITCompiler &Cold, ltp::JITCompiler &Loader,
                std::string &Error);

/// Kilobytes of `cc -E` output for \p Source under the JIT's ISA flags
/// (the cost of the headers the generated C includes); -1 on failure.
double preprocessedKb(const std::string &Source, const std::string &Dir);

/// Compute-stage index of a Func (last update, or -1 when pure).
int computeStage(const ltp::Func &F);

/// Sets LTP_JIT_CACHE_DIR for compilers constructed afterwards. Call only
/// while no other thread reads the environment.
void useStore(const std::string &Dir);

/// The compiled pipelines of the Table-4 kernels and their instances.
struct KernelSet {
  std::unique_ptr<ltp::JITCompiler> Compiler; // outlives the kernels it built
  std::vector<ltp::BenchmarkInstance> Instances;
  std::vector<ltp::CompiledPipeline> Pipes;
};

/// kernel_run's set-up: create, optimize (host platform) and
/// batch-compile every kernel into the empty store \p Store.
bool buildKernelSet(const Options &Opts, const std::string &Store,
                    KernelSet &Set, Result &R);

/// The kernel probe of every traced run: after a warm-up, times \p Set
/// for \p PlainSeconds, then for \p TracedSeconds with the program's own
/// spans on; checks every output; reports the codegen pragma counts,
/// `runtime.gflops.<k>` and `runtime.pool_skew_ms`. Returns the traced /
/// plain ratio of the geometric-mean run times.
double probeKernels(const Options &Opts, const KernelSet &Set,
                    double PlainSeconds, double TracedSeconds, Result &R);

} // namespace perfbench

#endif // LTP_PERFBENCH_LAYERS_H
