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
/// schedule). It computes values only: the cache simulator's address
/// trace comes from the access program (cachesim/AccessProgram.h).
///
/// Parallel loops run serially by default or across the thread pool when
/// requested. Float32 arithmetic runs in `float`, like compiled code.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_INTERP_INTERPRETER_H
#define LTP_INTERP_INTERPRETER_H

#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <map>
#include <string>

namespace ltp {

/// Options controlling interpretation.
struct InterpOptions {
  /// Execute Parallel loops on the thread pool.
  bool RunParallel = false;
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
