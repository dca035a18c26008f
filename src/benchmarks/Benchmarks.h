//===- Benchmarks.h - the 12 paper benchmarks (Table 4) ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite of Table 4 as DSL pipelines with input generators,
/// native reference implementations (correctness oracles) and the
/// paper's / container-scaled problem sizes:
///
///   convlayer  3x3xCxC convolution layer        (temporal)
///   doitgen    multiresolution analysis kernel  (temporal)
///   matmul     matrix multiplication            (temporal)
///   3mm        three chained matmuls            (temporal)
///   gemm       generalized matmul               (temporal)
///   trmm       triangular matmul (out-of-place; see DESIGN.md)
///   syrk       symmetric rank-k update          (temporal)
///   syr2k      symmetric rank-2k update         (temporal)
///   tpm        transposition + masking          (spatial, NTI)
///   tp         transposition                    (spatial, NTI)
///   copy       array copy                       (no-transform, NTI)
///   mask       array mask                       (no-transform, NTI)
///
//===----------------------------------------------------------------------===//

#ifndef LTP_BENCHMARKS_BENCHMARKS_H
#define LTP_BENCHMARKS_BENCHMARKS_H

#include "lang/Func.h"
#include "runtime/Buffer.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ltp {

/// One named data buffer of an instance, in declaration order.
struct BufferDecl {
  std::string Name;
  /// fillRandom seed; 0 leaves the buffer zeroed.
  uint32_t Seed = 0;
};

/// A benchmark: pipeline stages, their buffers, and a reference oracle.
///
/// An instance starts as a *shape* (BenchmarkDef::Shape): every buffer
/// has its element type, extents and strides but a null Data pointer.
/// That is all the optimizer, legality, lint, lowering and codegen read.
/// materialize() allocates and fills the buffers for the paths that run
/// or simulate the kernel.
struct BenchmarkInstance {
  std::string Name;
  /// Pipeline stages in realization order (compute_root semantics: each
  /// stage realizes fully into its named buffer before the next runs).
  std::vector<Func> Stages;
  /// Output extents of each stage (dimension 0 first).
  std::vector<std::vector<int64_t>> StageExtents;
  /// All buffers by name: external inputs plus every stage output.
  std::map<std::string, BufferRef> Buffers;
  /// Name of the final output buffer.
  std::string OutputName;
  /// Computes the expected output into ExpectedRef (native loops),
  /// reading the inputs of the instance it is handed.
  std::function<void(const BenchmarkInstance &)> FillExpected;
  BufferRef ExpectedRef;
  /// Floating-point (or element) operations per full run, for reporting.
  double Work = 0.0;
  /// The named buffers in declaration order; materialize() allocates
  /// them in this order, then ExpectedRef.
  std::vector<BufferDecl> Decls;
  /// Keeps the typed buffers alive (empty on a shape).
  std::vector<std::shared_ptr<void>> Storage;

  /// Typed base pointer of buffer \p BufName (null on a shape).
  template <typename T>
  T *data(const std::string &BufName) const {
    return static_cast<T *>(Buffers.at(BufName).Data);
  }
  /// Typed base pointer of the expected-output buffer.
  template <typename T>
  T *expected() const {
    return static_cast<T *>(ExpectedRef.Data);
  }
};

/// A shape-only buffer view: dense column-contiguous strides, null Data.
/// Strides that overflow int64 wrap; shapeError() reports them.
BufferRef shapeRef(ir::Type ElemType, std::vector<int64_t> Extents);

/// Declares pipeline buffer \p BufName on a shape, filled from \p Seed
/// when materialized.
template <typename T>
void addBuffer(BenchmarkInstance &Instance, const std::string &BufName,
               std::vector<int64_t> Extents, uint32_t Seed) {
  Instance.Buffers[BufName] =
      shapeRef(Buffer<T>::elemType(), std::move(Extents));
  Instance.Decls.push_back({BufName, Seed});
}

/// Declares the expected-output buffer (not visible to the pipeline).
template <typename T>
void addExpected(BenchmarkInstance &Instance, std::vector<int64_t> Extents) {
  Instance.ExpectedRef = shapeRef(Buffer<T>::elemType(), std::move(Extents));
}

/// Why \p Instance's buffers cannot be allocated: a non-positive extent,
/// an element count that overflows int64, or a byte size that overflows
/// the allocator's 64-bit size. Empty when every buffer is representable.
std::string shapeError(const BenchmarkInstance &Instance);

/// Allocates and fills every buffer of a shape, in declaration order,
/// with the Buffer<T> allocator and the declared seeds. Returns
/// shapeError(), or an error naming the buffer and its byte size when an
/// allocation fails (the instance then owns no storage); empty on
/// success.
[[nodiscard]] std::string materialize(BenchmarkInstance &Instance);

/// Static description of one benchmark.
struct BenchmarkDef {
  std::string Name;
  std::string Description;
  /// Container-scaled default problem size.
  int64_t DefaultSize;
  /// The paper's Table-4 problem size.
  int64_t PaperSize;
  /// Builds the shape of an instance at the given size (no storage).
  std::function<BenchmarkInstance(int64_t)> Shape;

  /// Shape(Size) after rejecting sizes it cannot represent: outside
  /// [1, INT32_MAX] (reduction domains are int) or failing shapeError().
  ErrorOr<BenchmarkInstance> checkedShape(int64_t Size) const;

  /// A materialized instance: Shape(Size) followed by materialize().
  /// Aborts with the allocation error when the buffers do not fit.
  BenchmarkInstance Create(int64_t Size) const;
};

/// All Table-4 benchmarks, in the paper's order.
const std::vector<BenchmarkDef> &allBenchmarks();

/// Kernels beyond the paper's suite (PolyBench gemver/atax/mvt/bicg and a
/// Jacobi stencil) exercising 1-D reductions, multi-stage pipelines and
/// the stencil classification path. Defined in ExtendedBenchmarks.cpp.
const std::vector<BenchmarkDef> &extendedBenchmarks();

/// Finds a benchmark by name in either suite; null when unknown.
const BenchmarkDef *findBenchmark(const std::string &Name);

/// Compares the final output against the reference oracle (which is
/// computed on demand). Returns true when every element matches within a
/// type-appropriate tolerance.
bool verifyOutput(const BenchmarkInstance &Instance);

} // namespace ltp

#endif // LTP_BENCHMARKS_BENCHMARKS_H
