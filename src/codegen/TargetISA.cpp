//===- TargetISA.cpp - SIMD instruction-set selection ---------------------===//

#include "codegen/TargetISA.h"

using namespace ltp;
using namespace ltp::codegen;

TargetISA TargetISA::host() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return TargetISA(SimdLevel::AVX2);
  if (__builtin_cpu_supports("sse2"))
    return TargetISA(SimdLevel::SSE2);
#endif
  return TargetISA(SimdLevel::Scalar);
}

int TargetISA::vectorBytes() const {
  switch (Level) {
  case SimdLevel::Scalar:
    return 0;
  case SimdLevel::SSE2:
    return 16;
  case SimdLevel::AVX2:
    return 32;
  }
  return 0;
}

int TargetISA::lanes(const ir::Type &T) const {
  if (Level == SimdLevel::Scalar)
    return 1;
  switch (T.kind()) {
  case ir::TypeKind::Float32:
  case ir::TypeKind::Int32:
  case ir::TypeKind::UInt32:
  case ir::TypeKind::Float64:
    return vectorBytes() / static_cast<int>(T.bytes());
  default:
    return 1;
  }
}

std::string TargetISA::compilerFlags() const {
  switch (Level) {
  case SimdLevel::Scalar:
    return "";
  case SimdLevel::SSE2:
    return " -msse2";
  case SimdLevel::AVX2:
    return " -mavx2 -mfma";
  }
  return "";
}

const char *TargetISA::name() const {
  switch (Level) {
  case SimdLevel::Scalar:
    return "scalar";
  case SimdLevel::SSE2:
    return "sse2";
  case SimdLevel::AVX2:
    return "avx2";
  }
  return "scalar";
}
