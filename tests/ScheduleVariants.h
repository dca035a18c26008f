//===- ScheduleVariants.h - explicit-SIMD schedule variants -----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule variants the SIMD tests apply to every Table-4 kernel, at
/// problem sizes that are not multiples of the vector width anywhere, so
/// every kernel runs its masked or scalar tail:
///
///   * Vectorized  — the innermost pure loop split and vectorized x8.
///   * UnrollJam   — Vectorized plus unroll_jam(outermost pure loop, 4),
///                   exercising the register-accumulator interchange.
///   * NTStore     — Vectorized plus storeNonTemporal(), exercising the
///                   whole-vector streaming-store path and its scalar
///                   streaming tails.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_TESTS_SCHEDULEVARIANTS_H
#define LTP_TESTS_SCHEDULEVARIANTS_H

#include "benchmarks/Benchmarks.h"
#include "core/AccessInfo.h"

#include <string>

namespace ltp {
namespace test {

enum class Variant { Vectorized, UnrollJam, NTStore };

inline const char *variantName(Variant V) {
  switch (V) {
  case Variant::Vectorized:
    return "Vectorized";
  case Variant::UnrollJam:
    return "UnrollJam";
  case Variant::NTStore:
    return "NTStore";
  }
  return "?";
}

/// Small problem sizes chosen to not be multiples of the 8-lane vector
/// width anywhere, so every kernel runs its tail path.
inline int64_t oddSize(const std::string &Name) {
  if (Name == "doitgen")
    return 13;
  if (Name == "convlayer")
    return 11;
  if (Name == "tpm" || Name == "tp" || Name == "copy" || Name == "mask")
    return 101;
  return 45; // matmul / 3mm / gemm / trmm / syrk / syr2k
}

/// Applies one schedule variant to every stage of every Func: vectorize
/// the innermost pure loop, optionally unroll_jam the outermost pure
/// loop, optionally mark the Func's stores non-temporal. Stages whose
/// loops are all reductions are left unscheduled.
inline void applyVariant(BenchmarkInstance &Instance, Variant V) {
  for (size_t S = 0; S != Instance.Stages.size(); ++S) {
    Func &F = Instance.Stages[S];
    if (V == Variant::NTStore)
      F.storeNonTemporal();
    for (int StageIdx = -1; StageIdx != F.numUpdates(); ++StageIdx) {
      StageAccessInfo Info =
          analyzeStage(F, StageIdx, Instance.StageExtents[S]);
      const LoopInfo *VecLoop = nullptr;
      for (const LoopInfo &L : Info.Loops)
        if (!L.IsReduction && L.Extent >= 2) {
          VecLoop = &L;
          break;
        }
      if (!VecLoop)
        continue;
      Stage Handle = StageIdx < 0 ? F.pureStage() : F.update(StageIdx);
      Handle.vectorize(VecLoop->Name, 8);
      if (V == Variant::UnrollJam) {
        // Outermost pure loop distinct from the vectorized one.
        for (auto It = Info.Loops.rbegin(); It != Info.Loops.rend(); ++It)
          if (!It->IsReduction && It->Name != VecLoop->Name &&
              It->Extent >= 2) {
            Handle.unrollJam(It->Name, 4);
            break;
          }
      }
    }
  }
}

} // namespace test
} // namespace ltp

#endif // LTP_TESTS_SCHEDULEVARIANTS_H
