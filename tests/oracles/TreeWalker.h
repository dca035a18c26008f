//===- TreeWalker.h - tree-walking oracle for lowered IR --------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original interpreter of lowered IR: a recursive walk over the
/// statement tree with a map of scalar bindings and every value held as
/// int64 or double (Float32 arithmetic computes in double and rounds only
/// at stores and casts). It is the differential oracle for the bytecode
/// VM, which every production path runs: InterpreterTest and the fuzz
/// sweep compare values and access traces, and AccessProgramTest drives
/// the cache simulator from it to check the VM and the compiled access
/// program against a third engine. Linked only into tests.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_TESTS_ORACLES_TREEWALKER_H
#define LTP_TESTS_ORACLES_TREEWALKER_H

#include "benchmarks/Benchmarks.h"
#include "cachesim/Hierarchy.h"
#include "interp/Interpreter.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {

/// interpret() on the tree walker: the same buffers, trace-hook order,
/// initial scalars and parallel-loop contract as the VM.
void walkStmt(const ir::StmtPtr &S,
              const std::map<std::string, BufferRef> &Buffers,
              const InterpOptions &Options = InterpOptions());

/// runInterpreted() on the tree walker, serially: the bounds error of the
/// lowered pipeline without running anything, else empty.
[[nodiscard]] std::string walkPipeline(const BenchmarkInstance &Instance);

/// Miss profile of a trace the tree walker feeds a fresh hierarchy.
struct WalkerSim {
  HierarchyStats Stats;
  uint64_t Accesses = 0;
};

/// simulate() on the tree walker: \p Stmts in order over one hierarchy
/// configured from \p Arch.
WalkerSim simulateOnWalker(const std::vector<ir::StmtPtr> &Stmts,
                           const std::map<std::string, BufferRef> &Buffers,
                           const ArchParams &Arch);

} // namespace ltp

#endif // LTP_TESTS_ORACLES_TREEWALKER_H
