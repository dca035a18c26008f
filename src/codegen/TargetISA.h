//===- TargetISA.h - SIMD instruction-set selection -------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Describes the SIMD instruction set the explicit vector code generator
/// targets. The level is probed from the host CPU; callers may pin a
/// lower one (tests run every level the host executes).
///
/// The selected level also determines the `-m` flags handed to the host C
/// compiler, replacing `-march=native`: generated kernels are reproducible
/// across hosts and the on-disk kernel cache (jit/JIT.h) stays coherent
/// when a cache directory is shared between machines.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CODEGEN_TARGETISA_H
#define LTP_CODEGEN_TARGETISA_H

#include "ir/Expr.h"

#include <string>

namespace ltp {

namespace codegen {

/// SIMD capability tiers, ordered: higher levels include the lower ones.
enum class SimdLevel { Scalar = 0, SSE2 = 1, AVX2 = 2 };

/// The instruction set explicit SIMD emission targets.
struct TargetISA {
  SimdLevel Level = SimdLevel::Scalar;

  TargetISA() = default;
  explicit TargetISA(SimdLevel L) : Level(L) {}

  /// The best level the host CPU supports (AVX2 requires FMA as well;
  /// hosts other than x86-64 report Scalar).
  static TargetISA host();

  static TargetISA scalar() { return TargetISA(SimdLevel::Scalar); }

  /// Vector register width in bytes (0 for scalar).
  int vectorBytes() const;

  /// Lanes of \p T per vector register; 1 when \p T is not vectorizable
  /// at this level.
  int lanes(const ir::Type &T) const;

  /// Compiler flags enabling the level, with a leading space
  /// (" -mavx2 -mfma", " -msse2", ""). Part of the JIT cache key.
  std::string compilerFlags() const;

  const char *name() const;

  bool operator==(const TargetISA &O) const { return Level == O.Level; }
  bool operator!=(const TargetISA &O) const { return Level != O.Level; }
};

} // namespace codegen
} // namespace ltp

#endif // LTP_CODEGEN_TARGETISA_H
