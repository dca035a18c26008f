//===- VM.h - threaded-dispatch executor for compiled bytecode --*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a `vm::Program` (Bytecode.h) over a flat register frame. The
/// dispatch loop uses computed gotos (threaded dispatch) under GCC/Clang and
/// falls back to a switch elsewhere; both bodies are generated from the
/// LTP_VM_OPCODES X-macro. `ParFor` opcodes distribute iterations over
/// `ThreadPool::global()`, cloning the register frame per iteration so
/// parallel bodies never race on scalars.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_INTERP_VM_H
#define LTP_INTERP_VM_H

#include "interp/Bytecode.h"

namespace ltp {
namespace vm {

/// Runs \p P to completion. A program may be run any number of times
/// against the buffers it was compiled for.
void run(const Program &P);

} // namespace vm
} // namespace ltp

#endif // LTP_INTERP_VM_H
