//===- Bytecode.h - register bytecode for lowered loop nests ----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A register-based, typed bytecode compiled once from a lowered `ir::Stmt`
/// and executed by the VM (VM.h) at near-native speed. The compiler removes
/// every per-iteration cost the tree-walking interpreter pays:
///
///  * scalar variables (loop vars and lets) are resolved to
///    register slots at compile time — no `std::map<std::string,...>` lookup
///    at runtime;
///  * buffer operands are resolved to a compact descriptor table carrying
///    the base pointer and element count; multi-dim
///    indices fold their compile-time-constant strides into `MulImm` /
///    `MAddImm` addressing ops;
///  * arithmetic carries its type in the opcode (`AddI` / `AddF32` /
///    `AddF64`), so Float32 expressions evaluate in `float` exactly like
///    the C back end (the tree-walker evaluates them in `double` and only
///    rounds at stores — the one deliberate semantic difference, bounded
///    by the test tolerances);
///  * `Select` compiles to branches, so only the taken arm's loads
///    execute (the untaken arm may be out of bounds);
///  * `ParFor` distributes a parallel loop's iterations over
///    `ThreadPool::global()`, each iteration on a private register frame.
///
/// The VM computes values only; it emits no memory trace (the cache
/// simulator replays access programs, cachesim/AccessProgram.h).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_INTERP_BYTECODE_H
#define LTP_INTERP_BYTECODE_H

#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {
namespace vm {

/// Opcode list as an X-macro so the enum and the VM's computed-goto label
/// table are generated from one definition and can never fall out of sync.
#define LTP_VM_OPCODES(X)                                                    \
  /* constants and register moves */                                         \
  X(ConstI) X(ConstF32) X(ConstF64) X(Mov)                                   \
  /* int64 arithmetic, comparisons (0/1) and eager logical ops */            \
  X(AddI) X(SubI) X(MulI) X(DivI) X(ModI) X(MinI) X(MaxI)                    \
  X(BitAndI) X(BitOrI) X(BitXorI)                                            \
  X(LTI) X(LEI) X(GTI) X(GEI) X(EQI) X(NEI) X(AndL) X(OrL)                   \
  /* float32 arithmetic — runs in float, like compiled code */               \
  X(AddF32) X(SubF32) X(MulF32) X(DivF32) X(MinF32) X(MaxF32)                \
  X(LTF32) X(LEF32) X(GTF32) X(GEF32) X(EQF32) X(NEF32)                      \
  /* float64 arithmetic */                                                   \
  X(AddF64) X(SubF64) X(MulF64) X(DivF64) X(MinF64) X(MaxF64)                \
  X(LTF64) X(LEF64) X(GTF64) X(GEF64) X(EQF64) X(NEF64)                      \
  /* conversions and integer truncations (interpreter cast semantics) */     \
  X(I64ToF32) X(I64ToF64) X(F32ToF64) X(F64ToF32) X(F32ToI64) X(F64ToI64)    \
  X(TruncI32) X(TruncU32) X(TruncU8) X(BoolI)                                \
  /* addressing: strides are compile-time immediates */                      \
  X(MulImm) X(MAddImm)                                                       \
  /* control flow */                                                         \
  X(Jmp) X(BrZ) X(BrGE) X(IncI) X(ParFor) X(EndPar) X(Halt)                  \
  /* memory ops (offset register + buffer descriptor index) */              \
  X(LdF32) X(LdF64) X(LdI32) X(LdI64) X(LdU32) X(LdU8)                       \
  X(StF32) X(StF64) X(StI32) X(StI64) X(StU32) X(StU8)

enum class Op : uint8_t {
#define LTP_VM_ENUM(Name) Name,
  LTP_VM_OPCODES(LTP_VM_ENUM)
#undef LTP_VM_ENUM
};

/// One fixed-width instruction. Field use by opcode family:
///  * ALU:      A = dst, B = lhs, C = rhs
///  * Const:    A = dst, Imm = value (float bits for ConstF32/ConstF64)
///  * Convert:  A = dst, B = src
///  * MulImm:   A = dst, B = src, Imm = multiplier
///  * MAddImm:  A = dst, B = addend, C = src, Imm = multiplier
///  * Memory:   A = value, B = element-offset register, C = buffer index
///  * Jmp/BrZ:  A = condition (BrZ), Imm = target pc
///  * BrGE:     A = lhs, B = rhs, Imm = target pc
///  * ParFor:   A = loop var, B = min, C = extent, Imm = continuation pc
///              (body occupies [pc+1, Imm), terminated by EndPar)
struct Inst {
  Op Code;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int64_t Imm = 0;
};

/// Pre-resolved buffer operand: everything a memory op needs at runtime.
struct BufferDesc {
  void *Data = nullptr;
  int64_t NumElements = 0;  ///< flat bounds backstop (asserted)
};

/// Compilation options; fixed per program (the `interpret()` wrapper knows
/// them at the single call site, so no opcode ever branches on them).
struct CompileOptions {
  /// Compile Parallel loops to ParFor.
  bool Parallel = false;
};

/// A compiled program. Buffer base pointers are baked in: the program is
/// valid only against the exact buffer set it was compiled for, and may be
/// run any number of times against it.
struct Program {
  std::vector<Inst> Insts;
  std::vector<BufferDesc> Buffers;
  uint32_t NumRegs = 0;
};

/// Compiles lowered statement \p S against \p Buffers. Every statement the
/// tree-walker accepts compiles; there is no fallback path inside the
/// compiler itself.
Program compile(const ir::StmtPtr &S,
                const std::map<std::string, BufferRef> &Buffers,
                const CompileOptions &Options = CompileOptions());

} // namespace vm
} // namespace ltp

#endif // LTP_INTERP_BYTECODE_H
