//===- CacheEmu.cpp - cache emulation bound (Algorithm 1) ----------------===//

#include "model/CacheEmu.h"

#include "obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace ltp;

int64_t ltp::emulateMaxTileDim(const CacheEmuParams &Params) {
  static obs::Counter &Emulated = obs::counter("model.bound.emulated");
  Emulated.add();
  assert(Params.DTS > 0 && "element size must be positive");
  assert(Params.RowStrideElems > 0 && "row stride must be positive");
  assert(Params.MaxRows > 0 && "row bound must be positive");

  // lc: elements per L1 cache line.
  int64_t Lc = Params.L1LineBytes / Params.DTS;
  assert(Lc > 0 && "cache line smaller than one element");

  // The paper's slot count: Nsets = LiCS / (Liway * DTS). The emulated
  // structure is a one-way slot space indexed by line number; it is more
  // permissive than physical set-index math for power-of-two row strides,
  // which matches the paper's published tile bounds (e.g. Ti = 32 for the
  // Listing 3 matmul) — modern L1s tolerate these strides better than
  // naive set analysis predicts once the prefetchers run ahead.
  int64_t NumSets =
      Params.Cache.SizeBytes / (Params.Cache.Ways * Params.DTS);
  assert(NumSets > 0 && "cache smaller than one set");

  // Effective associativity shared between hardware threads.
  int64_t EffWays =
      std::max<int64_t>(1, Params.Cache.Ways / Params.EffectiveWaysDivisor);

  // Row width in lines, including the prefetcher's extra line(s).
  int64_t RowLines = 0;
  int L2Pref = Params.L2Pref;
  int L2MaxPref = Params.L2MaxPref;
  if (Params.NoPrefetchPadding) {
    RowLines = (std::max(Params.PrevTileElems, Lc) + Lc - 1) / Lc;
    L2Pref = 0;
    L2MaxPref = 0;
  } else if (Params.ForL2) {
    NumSets = std::max<int64_t>(1, NumSets / 2);
    RowLines = (std::max(Params.PrevTileElems, Lc) + Lc - 1) / Lc;
  } else {
    RowLines = (std::max(Params.PrevTileElems + Lc, 2 * Lc) + Lc - 1) / Lc;
  }

  std::vector<int64_t> EmuCache(static_cast<size_t>(NumSets), 0);
  int64_t MaxTi = 0;
  int64_t TotalLines = 0; // `s` in the pseudocode
  bool Interference = false;

  do {
    // Line number of the start of the next row.
    int64_t StartLine =
        (Params.BaseAddrElems + MaxTi * Params.RowStrideElems + Lc - 1) / Lc;
    for (int64_t I = 0; I != RowLines; ++I) {
      int64_t Set = (StartLine + I) % NumSets;
      if (EmuCache[static_cast<size_t>(Set)] == EffWays) {
        Interference = true;
      } else {
        ++EmuCache[static_cast<size_t>(Set)];
        ++TotalLines;
      }
      // Constant-stride prefetches issued within the distance window must
      // not evict useful data either.
      if (TotalLines - I <= L2MaxPref) {
        for (int P = 0; P != L2Pref; ++P) {
          int64_t PrefSet = (StartLine + I + P) % NumSets;
          if (EmuCache[static_cast<size_t>(PrefSet)] == EffWays)
            Interference = true;
        }
      }
    }
    if (!Interference)
      ++MaxTi;
  } while (!Interference && MaxTi != Params.MaxRows);

  return std::max<int64_t>(1, MaxTi);
}
