//===- PipelineRunner.h - lower/execute/simulate benchmark pipelines -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue that takes a scheduled BenchmarkInstance through each execution
/// engine: lowering, the interpreter (correctness), the JIT (wall-clock
/// measurements) and the cache simulator (platform-configured miss
/// profiles). Stages run in order with compute_root semantics.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BENCHMARKS_PIPELINERUNNER_H
#define LTP_BENCHMARKS_PIPELINERUNNER_H

#include "benchmarks/Benchmarks.h"
#include "cachesim/TraceRunner.h"
#include "jit/JIT.h"

#include <vector>

namespace ltp {

/// Lowers every stage of the pipeline with its current schedule.
std::vector<ir::StmtPtr> lowerPipeline(const BenchmarkInstance &Instance);

/// Runs the pipeline through the interpreter (the bytecode VM). Returns
/// "schedule accesses out of bounds: <diagnostic>" without running
/// anything when a stage would access outside its buffers, else empty.
[[nodiscard]] std::string runInterpreted(const BenchmarkInstance &Instance,
                                         bool RunParallel = false);

/// A pipeline compiled to native kernels (one per stage).
struct CompiledPipeline {
  std::vector<CompiledKernel> Kernels;

  void run(const BenchmarkInstance &Instance) const {
    for (const CompiledKernel &Kernel : Kernels)
      Kernel.run(Instance.Buffers);
  }
};

/// Compiles every stage with the host C compiler:
/// compilePipelines({makeCompileJob(Instance, Options)}).
ErrorOr<CompiledPipeline>
compilePipeline(const BenchmarkInstance &Instance, JITCompiler &Compiler,
                const CodeGenOptions &Options = CodeGenOptions());

/// One scheduled pipeline variant awaiting compilation: the stages as
/// lowered under the schedule that was applied when the job was made,
/// plus the signature they bind against. Capture the job before mutating
/// the instance's schedules again (autotuning candidates).
struct PipelineCompileJob {
  std::vector<ir::StmtPtr> Stages;
  /// Every named buffer, sorted by name (std::map order), shared by all
  /// stages so stage kernels can be called uniformly.
  std::vector<BufferBinding> Signature;
  CodeGenOptions Options;
  /// "schedule accesses out of bounds: <diagnostic>" when a stage reads
  /// or writes outside its buffers, else empty. Such a job is never
  /// compiled; compilePipelines returns this as its error.
  std::string Error;
};

/// Lowers and bounds-checks \p Instance with its current schedules into a
/// compile job for compilePipelines.
PipelineCompileJob
makeCompileJob(const BenchmarkInstance &Instance,
               const CodeGenOptions &Options = CodeGenOptions());

/// Compiles a batch of pipeline variants in one JITCompiler::compileMany
/// call, fanning the cold stage compilations across the thread pool.
/// Results are in job order; a pipeline whose stages all hit the memo or
/// disk cache costs no compiler invocation at all, and one with a bounds
/// error costs none either.
std::vector<ErrorOr<CompiledPipeline>>
compilePipelines(const std::vector<PipelineCompileJob> &Jobs,
                 JITCompiler &Compiler);

/// One (scheduled instance, platform) simulation of a sweep.
struct PipelineSimJob {
  const BenchmarkInstance *Instance = nullptr;
  ArchParams Arch;
};

/// Simulates every job across the global thread pool (lowering and
/// bounds-checking run serially up front) and returns each merged miss
/// profile. Results are in job order; a job whose schedule accesses out
/// of bounds is not simulated and holds that error, and a job whose
/// trace would depend on buffer contents holds the access program's
/// refusal. Simulation reads only the buffers' addresses, so jobs may
/// share an instance.
std::vector<ErrorOr<SimResult>>
simulatePipelines(const std::vector<PipelineSimJob> &Jobs);

/// One simulation: simulatePipelines({{&Instance, Arch}}).
ErrorOr<SimResult> simulatePipeline(const BenchmarkInstance &Instance,
                                    const ArchParams &Arch);

} // namespace ltp

#endif // LTP_BENCHMARKS_PIPELINERUNNER_H
