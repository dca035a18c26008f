//===- PipelineRunner.cpp - lower/execute/simulate benchmark pipelines ---===//

#include "benchmarks/PipelineRunner.h"

#include "interp/Interpreter.h"
#include "lang/Bounds.h"
#include "lang/Lower.h"

#include <cassert>

using namespace ltp;

namespace {

/// Static bounds check of every stage against the bound buffers: the
/// first out-of-bounds access as an error message, or empty. Schedule
/// bugs surface here with a diagnostic instead of as a wild pointer in
/// JIT-compiled code or a wild access in the interpreter or simulator.
std::string boundsError(const std::vector<ir::StmtPtr> &Lowered,
                        const std::map<std::string, BufferRef> &Buffers) {
  for (const ir::StmtPtr &S : Lowered) {
    std::string Diag = validateAccesses(S, Buffers);
    if (!Diag.empty())
      return "schedule accesses out of bounds: " + Diag;
  }
  return "";
}

} // namespace

std::vector<ir::StmtPtr>
ltp::lowerPipeline(const BenchmarkInstance &Instance) {
  assert(Instance.Stages.size() == Instance.StageExtents.size() &&
         "stage/extent count mismatch");
  std::vector<ir::StmtPtr> Lowered;
  Lowered.reserve(Instance.Stages.size());
  for (size_t S = 0; S != Instance.Stages.size(); ++S)
    Lowered.push_back(
        lowerFunc(Instance.Stages[S], Instance.StageExtents[S]));
  return Lowered;
}

std::string ltp::runInterpreted(const BenchmarkInstance &Instance,
                                bool RunParallel) {
  InterpOptions Options;
  Options.RunParallel = RunParallel;
  std::vector<ir::StmtPtr> Lowered = lowerPipeline(Instance);
  std::string Error = boundsError(Lowered, Instance.Buffers);
  if (!Error.empty())
    return Error;
  for (const ir::StmtPtr &S : Lowered)
    interpret(S, Instance.Buffers, Options);
  return "";
}

ErrorOr<CompiledPipeline>
ltp::compilePipeline(const BenchmarkInstance &Instance,
                     JITCompiler &Compiler, const CodeGenOptions &Options) {
  return std::move(
      compilePipelines({makeCompileJob(Instance, Options)}, Compiler)
          .front());
}

PipelineCompileJob
ltp::makeCompileJob(const BenchmarkInstance &Instance,
                    const CodeGenOptions &Options) {
  PipelineCompileJob Job;
  Job.Stages = lowerPipeline(Instance);
  Job.Error = boundsError(Job.Stages, Instance.Buffers);
  for (const auto &[Name, Ref] : Instance.Buffers)
    Job.Signature.push_back(BufferBinding::fromRef(Name, Ref));
  Job.Options = Options;
  return Job;
}

std::vector<ErrorOr<CompiledPipeline>>
ltp::compilePipelines(const std::vector<PipelineCompileJob> &Jobs,
                      JITCompiler &Compiler) {
  std::vector<CompileJob> Flat;
  for (const PipelineCompileJob &Job : Jobs)
    if (Job.Error.empty())
      for (const ir::StmtPtr &S : Job.Stages)
        Flat.push_back(CompileJob{S, Job.Signature, Job.Options});

  std::vector<ErrorOr<CompiledKernel>> Kernels =
      Compiler.compileMany(Flat);

  std::vector<ErrorOr<CompiledPipeline>> Out;
  size_t Next = 0;
  for (const PipelineCompileJob &Job : Jobs) {
    if (!Job.Error.empty()) {
      Out.push_back(ErrorOr<CompiledPipeline>::makeError(Job.Error));
      continue;
    }
    CompiledPipeline Pipeline;
    std::string Error;
    for (size_t S = 0; S != Job.Stages.size(); ++S, ++Next) {
      if (!Kernels[Next]) {
        if (Error.empty())
          Error = Kernels[Next].getError();
        continue;
      }
      Pipeline.Kernels.push_back(std::move(*Kernels[Next]));
    }
    if (!Error.empty())
      Out.push_back(ErrorOr<CompiledPipeline>::makeError(Error));
    else
      Out.push_back(std::move(Pipeline));
  }
  return Out;
}

ErrorOr<SimResult> ltp::simulatePipeline(const BenchmarkInstance &Instance,
                                         const ArchParams &Arch) {
  return std::move(simulatePipelines({{&Instance, Arch}}).front());
}

std::vector<ErrorOr<SimResult>>
ltp::simulatePipelines(const std::vector<PipelineSimJob> &Jobs) {
  // Lowering mutates shared Func schedule state; keep it (and the bounds
  // check) serial and feed the thread pool pure simulations.
  std::vector<std::string> Errors(Jobs.size());
  std::vector<SimJob> SimJobs;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const PipelineSimJob &Job = Jobs[I];
    assert(Job.Instance && "job without an instance");
    SimJob Sim;
    Sim.Stmts = lowerPipeline(*Job.Instance);
    Errors[I] = boundsError(Sim.Stmts, Job.Instance->Buffers);
    if (!Errors[I].empty())
      continue;
    Sim.Buffers = &Job.Instance->Buffers;
    Sim.Arch = Job.Arch;
    SimJobs.push_back(std::move(Sim));
  }
  std::vector<ErrorOr<SimResult>> Results = simulateMany(SimJobs);
  std::vector<ErrorOr<SimResult>> Out;
  size_t Next = 0;
  for (const std::string &Error : Errors)
    Out.push_back(Error.empty() ? std::move(Results[Next++])
                                : ErrorOr<SimResult>::makeError(Error));
  return Out;
}
