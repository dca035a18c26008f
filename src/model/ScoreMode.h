//===- ScoreMode.h - candidate-scoring path selection -----------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Selects how optimizer and autotuner candidates are scored:
///
///  * Auto (default) — closed form whenever its applicability check
///    passes: the tile bound comes from the closed-form solution of
///    Algorithm 1 and autotuner candidates are ranked by the closed-form
///    miss model. Inapplicable cases fall back to the emulator/simulator,
///    and the fallback is counted so the `model.*.fallback` telemetry
///    exposes it.
///  * Sim — legacy path: the iterative cache emulation of Algorithm 1 for
///    tile bounds and the trace-driven `AccessProgram` simulator for
///    autotuner scoring.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_MODEL_SCOREMODE_H
#define LTP_MODEL_SCOREMODE_H

namespace ltp {
namespace model {

enum class ScoreMode {
  Sim,
  Auto,
};

/// Parses "sim" | "auto" (anything else returns false and leaves \p Out
/// untouched).
inline bool parseScoreMode(const char *Text, ScoreMode &Out) {
  const char *S = "sim", *U = "auto";
  auto Eq = [](const char *X, const char *Y) {
    while (*X && *X == *Y) {
      ++X;
      ++Y;
    }
    return *X == *Y;
  };
  if (Eq(Text, S)) {
    Out = ScoreMode::Sim;
    return true;
  }
  if (Eq(Text, U)) {
    Out = ScoreMode::Auto;
    return true;
  }
  return false;
}

inline const char *scoreModeName(ScoreMode Mode) {
  switch (Mode) {
  case ScoreMode::Sim:
    return "sim";
  case ScoreMode::Auto:
    return "auto";
  }
  return "auto";
}

} // namespace model
} // namespace ltp

#endif // LTP_MODEL_SCOREMODE_H
