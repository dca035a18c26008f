//===- TraceRunner.h - drive the cache simulator from lowered IR -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered loop nest against a simulated cache hierarchy,
/// yielding the miss profile of a schedule on an arbitrary Table-3
/// platform configuration. This is how the repo evaluates the ARM
/// Cortex-A15 configuration (hardware we do not have) and how it
/// validates the analytical model's miss estimates.
///
/// Two engines produce bit-identical statistics:
///
///  * the *compiled* fast path (AccessProgram.h) replays a precompiled
///    affine access stream with no interpreter and no per-access
///    indirect call — the default whenever the lowered IR compiles;
///  * the *interpreter* path feeds a memory hook from the bytecode VM —
///    the automatic fallback for non-affine programs.
///
/// `simulateMany` fans independent simulations across the global thread
/// pool for schedule x platform sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_TRACERUNNER_H
#define LTP_CACHESIM_TRACERUNNER_H

#include "cachesim/Hierarchy.h"
#include "interp/Interpreter.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <map>
#include <string>
#include <vector>

namespace ltp {

/// Which trace engine to use.
enum class SimEngine {
  Auto,        ///< compiled fast path when possible, interpreter otherwise
  Interpreter, ///< force the interpreter-hook path (bytecode VM)
};

/// Which engine actually produced the address trace of a simulation.
enum class TraceEngine {
  /// Compiled fast path (AccessProgram.h); escaped subtrees may still have
  /// used the interpreter for their share.
  AccessProgram,
  VM, ///< interpreter-hook path on the bytecode VM
};

/// Printable spelling of a TraceEngine ("access-program", "vm").
const char *traceEngineName(TraceEngine Engine);

/// Result of one simulated execution.
struct SimResult {
  HierarchyStats Stats;
  double EstimatedCycles = 0.0;
  uint64_t Accesses = 0;
  /// The engine that actually ran (the fallback taken under Auto).
  TraceEngine Engine = TraceEngine::AccessProgram;
};

/// Runs \p S over \p Buffers on a fresh hierarchy configured from
/// \p Arch and returns the miss profile. Addresses are the buffers' real
/// virtual addresses, so buffer alignment and relative placement behave
/// like a native run.
SimResult simulate(const ir::StmtPtr &S,
                   const std::map<std::string, BufferRef> &Buffers,
                   const ArchParams &Arch,
                   const LatencyModel &Latency = LatencyModel(),
                   SimEngine Engine = SimEngine::Auto);

/// Same, for an ordered statement sequence (e.g. the lowered stages of a
/// pipeline) sharing one hierarchy. Compiling the sequence as a whole
/// lets the fast path prove that escaped statements never observe
/// buffer values it did not materialize.
SimResult simulate(const std::vector<ir::StmtPtr> &Stmts,
                   const std::map<std::string, BufferRef> &Buffers,
                   const ArchParams &Arch,
                   const LatencyModel &Latency = LatencyModel(),
                   SimEngine Engine = SimEngine::Auto);

/// One independent simulation of a (schedule, platform) pair.
struct SimJob {
  std::vector<ir::StmtPtr> Stmts;
  const std::map<std::string, BufferRef> *Buffers = nullptr;
  ArchParams Arch;
  LatencyModel Latency;
};

/// Runs every job on the global thread pool and returns results in job
/// order. Jobs must not share writable buffers: a job whose program
/// falls back to (or escapes into) the interpreter writes its output
/// buffers while running.
std::vector<SimResult> simulateMany(const std::vector<SimJob> &Jobs);

} // namespace ltp

#endif // LTP_CACHESIM_TRACERUNNER_H
