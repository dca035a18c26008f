//===- TraceRunner.cpp - drive the cache simulator from lowered IR -------===//

#include "cachesim/TraceRunner.h"

#include "cachesim/AccessProgram.h"
#include "obs/Telemetry.h"
#include "runtime/ThreadPool.h"
#include "support/Format.h"

using namespace ltp;

namespace {

/// Per-engine run counters feed the shared telemetry footer; benches used
/// to track engine selection ad hoc.
void countEngine(TraceEngine Engine, uint64_t Accesses) {
  static obs::Counter &AP = obs::counter("sim.engine.access_program");
  static obs::Counter &VM = obs::counter("sim.engine.vm");
  static obs::Counter &Acc = obs::counter("sim.accesses");
  (Engine == TraceEngine::AccessProgram ? AP : VM).add();
  Acc.add(static_cast<int64_t>(Accesses));
}

} // namespace

const char *ltp::traceEngineName(TraceEngine Engine) {
  switch (Engine) {
  case TraceEngine::AccessProgram:
    return "access-program";
  case TraceEngine::VM:
    return "vm";
  }
  return "";
}

SimResult ltp::simulate(const std::vector<ir::StmtPtr> &Stmts,
                        const std::map<std::string, BufferRef> &Buffers,
                        const ArchParams &Arch, const LatencyModel &Latency,
                        SimEngine Engine) {
  obs::ScopedSpan Span("sim.simulate");
  MemoryHierarchy Hierarchy(Arch);
  SimResult Result;

  std::optional<AccessProgram> Program;
  if (Engine == SimEngine::Auto)
    Program = compileAccessProgram(Stmts, Buffers);
  if (Program) {
    Result.Accesses = Program->run(Hierarchy, Buffers);
    Result.Engine = TraceEngine::AccessProgram;
  } else {
    InterpOptions Options;
    Options.Hook = [&](AccessKind Kind, uint64_t Address, uint32_t Size) {
      ++Result.Accesses;
      switch (Kind) {
      case AccessKind::Load:
        Hierarchy.load(Address, Size);
        return;
      case AccessKind::Store:
        Hierarchy.store(Address, Size, /*NonTemporal=*/false);
        return;
      case AccessKind::NonTemporalStore:
        Hierarchy.store(Address, Size, /*NonTemporal=*/true);
        return;
      }
    };
    for (const ir::StmtPtr &S : Stmts)
      interpret(S, Buffers, Options);
    Result.Engine = TraceEngine::VM;
  }

  Result.Stats = Hierarchy.stats();
  Result.EstimatedCycles = Hierarchy.estimatedCycles(Latency);
  countEngine(Result.Engine, Result.Accesses);
  if (Span.active())
    Span.setArgs(strFormat("engine=%s accesses=%llu",
                           traceEngineName(Result.Engine),
                           static_cast<unsigned long long>(Result.Accesses)));
  return Result;
}

SimResult ltp::simulate(const ir::StmtPtr &S,
                        const std::map<std::string, BufferRef> &Buffers,
                        const ArchParams &Arch, const LatencyModel &Latency,
                        SimEngine Engine) {
  return simulate(std::vector<ir::StmtPtr>{S}, Buffers, Arch, Latency,
                  Engine);
}

std::vector<SimResult> ltp::simulateMany(const std::vector<SimJob> &Jobs) {
  obs::ScopedSpan Span("sim.simulate_many", [&] {
    return strFormat("jobs=%zu", Jobs.size());
  });
  std::vector<SimResult> Results(Jobs.size());
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
  return Results;
}
