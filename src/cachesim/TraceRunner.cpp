//===- TraceRunner.cpp - drive the cache simulator from lowered IR -------===//

#include "cachesim/TraceRunner.h"

#include "cachesim/AccessProgram.h"
#include "obs/Telemetry.h"
#include "runtime/ThreadPool.h"
#include "support/Format.h"

#include <optional>

using namespace ltp;

ErrorOr<SimResult> ltp::simulate(const std::vector<ir::StmtPtr> &Stmts,
                                 const std::map<std::string, BufferRef> &Buffers,
                                 const ArchParams &Arch,
                                 const LatencyModel &Latency) {
  obs::ScopedSpan Span("sim.simulate");
  ErrorOr<AccessProgram> Program = compileAccessProgram(Stmts, Buffers);
  if (!Program)
    return ErrorOr<SimResult>::makeError(Program.getError());
  MemoryHierarchy Hierarchy(Arch);
  SimResult Result;
  Result.Accesses = Program->run(Hierarchy);
  Result.Stats = Hierarchy.stats();
  Result.EstimatedCycles = Hierarchy.estimatedCycles(Latency);
  static obs::Counter &Accesses = obs::counter("sim.accesses");
  Accesses.add(static_cast<int64_t>(Result.Accesses));
  if (Span.active())
    Span.setArgs(strFormat("accesses=%llu", static_cast<unsigned long long>(
                                                Result.Accesses)));
  return Result;
}

std::vector<ErrorOr<SimResult>>
ltp::simulateMany(const std::vector<SimJob> &Jobs) {
  obs::ScopedSpan Span("sim.simulate_many", [&] {
    return strFormat("jobs=%zu", Jobs.size());
  });
  std::vector<std::optional<ErrorOr<SimResult>>> Results(Jobs.size());
  ThreadPool::global().parallelFor(
      0, static_cast<int64_t>(Jobs.size()), [&](int64_t I) {
        // Per-job spans make grain-claiming skew visible in the trace.
        obs::ScopedSpan JobSpan("sim.job", [&] {
          return strFormat("job=%lld", static_cast<long long>(I));
        });
        const SimJob &Job = Jobs[static_cast<size_t>(I)];
        Results[static_cast<size_t>(I)] =
            simulate(Job.Stmts, *Job.Buffers, Job.Arch, Job.Latency);
      });
  std::vector<ErrorOr<SimResult>> Out;
  Out.reserve(Jobs.size());
  for (std::optional<ErrorOr<SimResult>> &R : Results)
    Out.push_back(std::move(*R));
  return Out;
}
