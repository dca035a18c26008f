//===- TraceRunner.h - drive the cache simulator from lowered IR -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a lowered loop nest's address trace into a simulated cache
/// hierarchy, yielding the miss profile of a schedule on an arbitrary
/// Table-3 platform configuration. This is how the repo evaluates the ARM
/// Cortex-A15 configuration (hardware we do not have) and how it
/// validates the analytical model's miss estimates.
///
/// The trace comes from one engine, the compiled access program
/// (AccessProgram.h): nothing is executed, so simulation never reads or
/// writes buffer contents. A nest whose trace would depend on them is
/// refused with an error.
///
/// `simulateMany` fans independent simulations across the global thread
/// pool for schedule x platform sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_TRACERUNNER_H
#define LTP_CACHESIM_TRACERUNNER_H

#include "cachesim/Hierarchy.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"
#include "support/ErrorOr.h"

#include <map>
#include <string>
#include <vector>

namespace ltp {

/// Result of one simulated execution.
struct SimResult {
  HierarchyStats Stats;
  double EstimatedCycles = 0.0;
  uint64_t Accesses = 0;
};

/// Replays the ordered statement sequence \p Stmts (e.g. the lowered
/// stages of a pipeline) into one fresh hierarchy configured from
/// \p Arch and returns the miss profile, or the access program's refusal.
/// Addresses are the buffers' real virtual addresses, so buffer alignment
/// and relative placement behave like a native run.
ErrorOr<SimResult> simulate(const std::vector<ir::StmtPtr> &Stmts,
                            const std::map<std::string, BufferRef> &Buffers,
                            const ArchParams &Arch,
                            const LatencyModel &Latency = LatencyModel());

/// One independent simulation of a (schedule, platform) pair.
struct SimJob {
  std::vector<ir::StmtPtr> Stmts;
  const std::map<std::string, BufferRef> *Buffers = nullptr;
  ArchParams Arch;
  LatencyModel Latency;
};

/// Runs every job on the global thread pool and returns results in job
/// order.
std::vector<ErrorOr<SimResult>> simulateMany(const std::vector<SimJob> &Jobs);

} // namespace ltp

#endif // LTP_CACHESIM_TRACERUNNER_H
