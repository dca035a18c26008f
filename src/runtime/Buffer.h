//===- Buffer.h - aligned n-dimensional data buffers ------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense n-dimensional buffers used as kernel inputs and outputs. Dimension
/// 0 is the contiguous ("column") dimension, matching the Halide argument
/// order used in the paper: `C(j, i)` stores `j` contiguously. Storage is
/// 64-byte aligned so vectorized and non-temporal code paths can assume
/// cache-line alignment of row starts when extents are padded.
///
/// `BufferRef` is the type-erased view handed to the interpreter, the JIT
/// ABI and the cache simulator (which needs base addresses and strides to
/// form the memory trace).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_RUNTIME_BUFFER_H
#define LTP_RUNTIME_BUFFER_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <vector>

namespace ltp {

/// Type-erased view of a dense buffer: base pointer, element type, extents
/// and element strides (stride[0] == 1 always; layout is column-contiguous).
struct BufferRef {
  void *Data = nullptr;
  ir::Type ElemType;
  std::vector<int64_t> Extents;
  std::vector<int64_t> Strides;

  int64_t dims() const { return static_cast<int64_t>(Extents.size()); }

  /// Linear element offset of a multi-dimensional index.
  int64_t offsetOf(const std::vector<int64_t> &Index) const {
    assert(Index.size() == Extents.size() && "index rank mismatch");
    int64_t Offset = 0;
    for (size_t D = 0; D != Index.size(); ++D) {
      assert(Index[D] >= 0 && Index[D] < Extents[D] &&
             "buffer index out of bounds");
      Offset += Index[D] * Strides[D];
    }
    return Offset;
  }

  /// Total number of elements.
  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t E : Extents)
      N *= E;
    return N;
  }

  /// Size in bytes.
  int64_t sizeBytes() const {
    return numElements() * static_cast<int64_t>(ElemType.bytes());
  }
};

/// Owning, typed, 64-byte aligned n-dimensional buffer.
template <typename T> class Buffer {
public:
  /// Allocates a buffer with the given per-dimension extents (dimension 0
  /// contiguous), zero-initialized.
  explicit Buffer(std::vector<int64_t> Extents)
      : Buffer(std::move(Extents), std::nothrow) {
    assert(Data && "buffer allocation failed");
  }

  /// As above, but a failed allocation leaves data() null instead of
  /// asserting, for callers that report it as an error.
  Buffer(std::vector<int64_t> Extents, const std::nothrow_t &)
      : Extents(std::move(Extents)) {
    assert(!this->Extents.empty() && "buffer requires at least 1 dimension");
    Strides.resize(this->Extents.size());
    int64_t Stride = 1;
    for (size_t D = 0; D != this->Extents.size(); ++D) {
      assert(this->Extents[D] > 0 && "buffer extents must be positive");
      Strides[D] = Stride;
      Stride *= this->Extents[D];
    }
    TotalElements = Stride;
    size_t Bytes = static_cast<size_t>(TotalElements) * sizeof(T);
    // Round the allocation up to a multiple of the alignment so streaming
    // stores may safely run whole vectors at the tail.
    size_t Padded = (Bytes + Alignment - 1) / Alignment * Alignment;
    Data = static_cast<T *>(std::aligned_alloc(Alignment, Padded));
    if (Data)
      std::memset(Data, 0, Padded);
  }

  Buffer(const Buffer &) = delete;
  Buffer &operator=(const Buffer &) = delete;

  Buffer(Buffer &&Other) noexcept { *this = std::move(Other); }
  Buffer &operator=(Buffer &&Other) noexcept {
    if (this != &Other) {
      release();
      Data = Other.Data;
      Extents = std::move(Other.Extents);
      Strides = std::move(Other.Strides);
      TotalElements = Other.TotalElements;
      Other.Data = nullptr;
    }
    return *this;
  }

  ~Buffer() { release(); }

  /// Element access; indices follow dimension order (index 0 contiguous).
  template <typename... Indices> T &operator()(Indices... Index) {
    static_assert((std::is_integral_v<Indices> && ...),
                  "buffer indices must be integral");
    return Data[flatten({static_cast<int64_t>(Index)...})];
  }
  template <typename... Indices> const T &operator()(Indices... Index) const {
    static_assert((std::is_integral_v<Indices> && ...),
                  "buffer indices must be integral");
    return Data[flatten({static_cast<int64_t>(Index)...})];
  }

  T *data() { return Data; }
  const T *data() const { return Data; }

  const std::vector<int64_t> &extents() const { return Extents; }
  int64_t extent(size_t D) const { return Extents[D]; }
  int64_t stride(size_t D) const { return Strides[D]; }
  int64_t numElements() const { return TotalElements; }

  /// Fills the buffer with a fixed value.
  void fill(T Value) {
    for (int64_t I = 0; I != TotalElements; ++I)
      Data[I] = Value;
  }

  /// Fills the buffer with deterministic pseudo-random values in [0, 1) for
  /// floats or [0, 255] for integers.
  void fillRandom(uint32_t Seed) {
    std::mt19937 Rng(Seed);
    if constexpr (std::is_floating_point_v<T>) {
      std::uniform_real_distribution<double> Dist(0.0, 1.0);
      for (int64_t I = 0; I != TotalElements; ++I)
        Data[I] = static_cast<T>(Dist(Rng));
    } else {
      std::uniform_int_distribution<uint32_t> Dist(0, 255);
      for (int64_t I = 0; I != TotalElements; ++I)
        Data[I] = static_cast<T>(Dist(Rng));
    }
  }

  /// Type-erased view of this buffer.
  BufferRef ref() {
    BufferRef R;
    R.Data = Data;
    R.ElemType = elemType();
    R.Extents = Extents;
    R.Strides = Strides;
    return R;
  }

  /// IR element type corresponding to T.
  static ir::Type elemType() {
    if constexpr (std::is_same_v<T, float>)
      return ir::Type::float32();
    else if constexpr (std::is_same_v<T, double>)
      return ir::Type::float64();
    else if constexpr (std::is_same_v<T, int32_t>)
      return ir::Type::int32();
    else if constexpr (std::is_same_v<T, int64_t>)
      return ir::Type::int64();
    else if constexpr (std::is_same_v<T, uint32_t>)
      return ir::Type::uint32();
    else if constexpr (std::is_same_v<T, uint8_t>)
      return ir::Type::uint8();
    else
      static_assert(sizeof(T) == 0, "unsupported buffer element type");
  }

private:
  static constexpr size_t Alignment = 64;

  int64_t flatten(std::initializer_list<int64_t> Index) const {
    assert(Index.size() == Extents.size() && "index rank mismatch");
    int64_t Offset = 0;
    size_t D = 0;
    for (int64_t I : Index) {
      assert(I >= 0 && I < Extents[D] && "buffer index out of bounds");
      Offset += I * Strides[D];
      ++D;
    }
    return Offset;
  }

  void release() {
    if (Data)
      std::free(Data);
    Data = nullptr;
  }

  T *Data = nullptr;
  std::vector<int64_t> Extents;
  std::vector<int64_t> Strides;
  int64_t TotalElements = 0;
};

} // namespace ltp

#endif // LTP_RUNTIME_BUFFER_H
