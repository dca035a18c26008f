//===- CacheEmu.cpp - cache emulation bound (Algorithm 1) ----------------===//

#include "model/CacheEmu.h"

#include "obs/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace ltp;

namespace {

/// The emulated slot space, reused by every call on a thread. Each slot
/// packs the generation of the call that last wrote it (high 32 bits)
/// with the lines that call placed there (low 32 bits); a slot from an
/// older generation reads as empty, so a call neither clears nor
/// allocates the space.
struct SlotSpace {
  std::vector<uint64_t> Slots;
  uint32_t Generation = 0;
};

/// Returns the thread's slot space with at least \p NumSets slots and a
/// generation no slot carries yet.
SlotSpace &slotSpace(int64_t NumSets) {
  thread_local SlotSpace Space;
  if (Space.Slots.size() < static_cast<size_t>(NumSets))
    Space.Slots.resize(static_cast<size_t>(NumSets), 0);
  if (++Space.Generation == 0) {
    // Wrapped: stamps of 4G calls ago would read as current.
    std::fill(Space.Slots.begin(), Space.Slots.end(), 0);
    Space.Generation = 1;
  }
  return Space;
}

} // namespace

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
  assert(EffWays <= 0xFFFFFFFF && "way count exceeds the slot counter");

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

  SlotSpace &Space = slotSpace(NumSets);
  std::vector<uint64_t> &Slots = Space.Slots;
  const uint64_t Stamp = static_cast<uint64_t>(Space.Generation) << 32;
  // Lines held by a slot in this call; a slot stamped by an earlier call
  // holds none.
  auto Held = [&](int64_t Set) -> int64_t {
    uint64_t Slot = Slots[static_cast<size_t>(Set)];
    return (Slot & ~0xFFFFFFFFull) == Stamp ? int64_t(Slot & 0xFFFFFFFFull)
                                            : 0;
  };

  int64_t MaxTi = 0;
  int64_t TotalLines = 0; // `s` in the pseudocode
  bool Interference = false;

  do {
    // Line number of the start of the next row.
    int64_t StartLine =
        (Params.BaseAddrElems + MaxTi * Params.RowStrideElems + Lc - 1) / Lc;
    int64_t Set = StartLine % NumSets;
    for (int64_t I = 0; I != RowLines; ++I) {
      int64_t Lines = Held(Set);
      if (Lines == EffWays) {
        Interference = true;
        break; // the row does not fit; the rest of it cannot change that
      }
      Slots[static_cast<size_t>(Set)] = Stamp | uint64_t(Lines + 1);
      ++TotalLines;
      // Constant-stride prefetches issued within the distance window must
      // not evict useful data either.
      if (TotalLines - I <= L2MaxPref) {
        int64_t PrefSet = Set;
        for (int P = 0; P != L2Pref && !Interference; ++P) {
          Interference = Held(PrefSet) == EffWays;
          if (++PrefSet == NumSets)
            PrefSet = 0;
        }
        if (Interference)
          break;
      }
      if (++Set == NumSets)
        Set = 0;
    }
    if (!Interference)
      ++MaxTi;
  } while (!Interference && MaxTi != Params.MaxRows);

  // A slot space above 32 MB (a level of hundreds of MB) is not kept
  // between calls.
  if (Slots.size() > (size_t(1) << 22))
    std::vector<uint64_t>().swap(Slots);
  return std::max<int64_t>(1, MaxTi);
}

int64_t ltp::algorithm1Bound(const ArchParams &Arch, EmuLevel Level,
                             int64_t DTS, int64_t PrevTileElems,
                             int64_t RowStrideElems, int64_t MaxRows,
                             bool HalveL2Sets) {
  CacheEmuParams Emu;
  Emu.L1LineBytes = Arch.L1.LineBytes;
  Emu.DTS = DTS;
  Emu.PrevTileElems = PrevTileElems;
  Emu.RowStrideElems = RowStrideElems;
  Emu.MaxRows = MaxRows;
  if (Level == EmuLevel::L1) {
    Emu.Cache = Arch.L1;
    Emu.EffectiveWaysDivisor = std::max(1, Arch.NThreadsPerCore);
  } else {
    Emu.Cache = Arch.L2;
    Emu.EffectiveWaysDivisor = Arch.SharedL2
                                   ? std::max(1, Arch.NCores)
                                   : std::max(1, Arch.NThreadsPerCore);
    Emu.L2Pref = Arch.L2PrefetchDegree;
    Emu.L2MaxPref = Arch.L2MaxPrefetchDistance;
    Emu.ForL2 = HalveL2Sets;
  }
  return emulateMaxTileDim(Emu);
}
