//===- Interpreter.h - executor for lowered IR ------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes lowered loop nests directly over buffers by compiling them to
/// register bytecode and running it on the VM (Bytecode.h, VM.h). The
/// interpreter is the correctness oracle for lowering, the schedule search
/// and the JIT (every schedule must compute the same values as the default
/// schedule), and it exposes a memory-access hook that the cache simulator
/// uses to obtain the address trace of a scheduled loop nest.
///
/// Parallel loops run serially by default (deterministic traces) or across
/// the thread pool when requested. Float32 arithmetic runs in `float`, like
/// compiled code.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_INTERP_INTERPRETER_H
#define LTP_INTERP_INTERPRETER_H

#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace ltp {

/// Kind of memory access reported to the trace hook.
enum class AccessKind {
  Load,
  Store,
  NonTemporalStore,
};

/// Called for every buffer element access: kind, byte address (base pointer
/// plus element offset times element size) and access size in bytes.
using AccessHook =
    std::function<void(AccessKind, uint64_t Address, uint32_t SizeBytes)>;

/// Options controlling interpretation.
struct InterpOptions {
  /// Execute Parallel loops on the thread pool. Must be false when a trace
  /// hook is installed (traces must be deterministic).
  bool RunParallel = false;
  /// Optional memory trace hook.
  AccessHook Hook;
  /// Pre-bound scalar variables, visible to the interpreted statement as
  /// if bound by enclosing loops/lets. Used by the access-program fast
  /// path to interpret an escaped subtree in its surrounding loop context.
  std::map<std::string, int64_t> InitialScalars;
};

/// Executes \p S against the named buffers in \p Buffers: compiles it to
/// bytecode and runs it on the VM. Buffer lookups are by name; a missing
/// buffer or an out-of-bounds access is a programmatic error (assert).
/// Loop variables are 64-bit internally.
void interpret(const ir::StmtPtr &S,
               const std::map<std::string, BufferRef> &Buffers,
               const InterpOptions &Options = InterpOptions());

} // namespace ltp

#endif // LTP_INTERP_INTERPRETER_H
