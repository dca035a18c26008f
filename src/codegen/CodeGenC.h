//===- CodeGenC.h - C source generation from lowered IR ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates a self-contained C translation unit from a lowered loop nest.
/// This is the project's equivalent of Halide's LLVM back end: the JIT
/// compiles the generated source with the host C compiler at -O3 so that
/// tiled, reordered, parallel and vectorized schedules run at native speed.
/// The unit includes only <stdint.h> and <stddef.h>: a prelude chosen for
/// the target ISA defines the vector types (GNU C vector extensions) and
/// the `ltp_*` helpers (GCC x86 builtins) the kernel calls, and nothing
/// else, so the host compiler never parses an intrinsics header.
///
/// Notable lowering decisions:
///  * Parallel loops are outlined into closure-taking functions and
///    dispatched through a runtime `parallel_for` callback provided by the
///    host (see jit/JITRuntime.h), mirroring Halide's do_par_for runtime
///    hook.
///  * Vectorized loops over a unit-stride dimension are emitted as explicit
///    vector helper calls (AVX2/SSE2 selected by codegen::TargetISA) with a
///    masked or scalar epilogue for non-divisible extents; loops the
///    explicit path cannot prove vectorizable fall back to
///    `#pragma GCC ivdep` and the host compiler's vectorizer.
///  * `unroll_jam`-marked loops register-tile the enclosed vector loop:
///    the jammed copies keep their accumulators in vector registers across
///    inner reduction loops (the classic matmul micro-kernel shape).
///  * Non-temporal stores (the scheduling directive this project adds,
///    Section 4 of the paper) are emitted as MOVNTI/MOVNTPS-class
///    instructions: whole-vector `ltp_vstream_*`/`ltp_stream_block_*`
///    (VMOVNTPS, VMOVNTDQ) when the innermost vectorized loop stores
///    contiguously with suitable alignment, scalar `ltp_stream_store_*`
///    (MOVNTI) otherwise, and plain stores on hosts other than x86-64.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CODEGEN_CODEGENC_H
#define LTP_CODEGEN_CODEGENC_H

#include "codegen/TargetISA.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <string>
#include <vector>

namespace ltp {

/// Compile-time shape of one kernel argument buffer.
struct BufferBinding {
  std::string Name;
  ir::Type ElemType;
  std::vector<int64_t> Extents;
  std::vector<int64_t> Strides;

  static BufferBinding fromRef(const std::string &Name, const BufferRef &R) {
    return BufferBinding{Name, R.ElemType, R.Extents, R.Strides};
  }
};

/// Options controlling code generation.
struct CodeGenOptions {
  /// Emit streaming stores for non-temporal stores; when false
  /// they degrade to regular stores (the ARM configuration).
  bool EnableNonTemporal = true;
  /// Emit explicit vector code for vectorized loops instead of
  /// relying on the host compiler's auto-vectorizer. Loops the explicit
  /// path cannot handle fall back to the pragma path either way.
  bool ExplicitSIMD = true;
  /// Instruction set for explicit SIMD, the prelude and the JIT's -m
  /// flags. Defaults to the host's best level.
  codegen::TargetISA ISA = codegen::TargetISA::host();
};

/// Generates a C translation unit defining
/// `void <KernelName>(void **bufs, const ltp_jit_runtime *rt)` that
/// executes \p S. `bufs[i]` must point at the buffer described by
/// `Signature[i]`.
std::string generateC(const ir::StmtPtr &S,
                      const std::vector<BufferBinding> &Signature,
                      const std::string &KernelName,
                      const CodeGenOptions &Options = CodeGenOptions());

} // namespace ltp

#endif // LTP_CODEGEN_CODEGENC_H
