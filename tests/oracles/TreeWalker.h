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
/// VM, which every production path runs (InterpreterTest and the fuzz
/// sweep compare values), and its access hook is the reference trace the
/// cache simulator's access program is checked against (AccessProgramTest
/// and the fuzz sweep compare miss profiles). Linked only into tests.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_TESTS_ORACLES_TREEWALKER_H
#define LTP_TESTS_ORACLES_TREEWALKER_H

#include "benchmarks/Benchmarks.h"
#include "cachesim/Hierarchy.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ltp {

/// Called for every buffer element access: kind, byte address (base
/// pointer plus element offset times element size) and size in bytes.
/// Loads are reported depth-first and left to right as expressions
/// evaluate, a Select reports only its taken arm, and a store is
/// reported after its value's loads.
using WalkHook =
    std::function<void(AccessKind, uint64_t Address, uint32_t SizeBytes)>;

/// interpret() on the tree walker, serially, reporting every access to
/// \p Hook when one is given.
void walkStmt(const ir::StmtPtr &S,
              const std::map<std::string, BufferRef> &Buffers,
              const WalkHook &Hook = WalkHook());

/// runInterpreted() on the tree walker, serially: the bounds error of the
/// lowered pipeline without running anything, else empty.
[[nodiscard]] std::string walkPipeline(const BenchmarkInstance &Instance);

/// Miss profile of a trace the tree walker feeds a fresh hierarchy.
struct WalkerSim {
  HierarchyStats Stats;
  uint64_t Accesses = 0;
};

/// simulate() on the tree walker: one walk of \p Stmts in order feeds
/// one fresh hierarchy per entry of \p Archs.
std::vector<WalkerSim>
simulateOnWalker(const std::vector<ir::StmtPtr> &Stmts,
                 const std::map<std::string, BufferRef> &Buffers,
                 const std::vector<ArchParams> &Archs);

} // namespace ltp

#endif // LTP_TESTS_ORACLES_TREEWALKER_H
