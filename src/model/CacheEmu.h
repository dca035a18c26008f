//===- CacheEmu.h - cache emulation bound (Algorithm 1) ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 1 of the paper: emulates the placement of successive tile
/// rows (stride = the problem size of the row-major dimension) into the
/// sets of a cache level, together with the lines the hardware prefetchers
/// pull in alongside them, and returns the largest row count `maxTi` that
/// causes no interference (conflict) misses.
///
/// Prefetch handling follows the paper:
///  * when emulating the L1, every fetched row is extended by one line for
///    the next-line prefetcher (`Ti-1 = ceil(max(Ti-1 + lc, 2*lc) / lc)`);
///  * when emulating the L2, the constant-stride prefetcher may run up to
///    `L2maxpref` lines ahead issuing `L2pref` lines at a time, and the
///    effective number of sets is halved to reserve room for the
///    prefetched stream data;
///  * the effective associativity is `Liway / Nthreads` (SMT threads share
///    the level; on the ARM platform the divisor is NCores because the L2
///    is shared between cores, Section 5.1).
///
/// The slot count follows the paper literally: `Nsets = LiCS/(Liway*DTS)`
/// with the emulated cache indexed by line number (modulo Nsets). This is
/// looser than physical set-index arithmetic for power-of-two row strides
/// — deliberately so: it reproduces the paper's published tile bounds
/// (Listing 3's Ti = 32), and encodes the observation that the prefetchers
/// the model assumes are running ahead soften conflict behaviour relative
/// to naive set math. DESIGN.md discusses the choice.
///
/// Cost. The temporal optimizer calls it once per column-tile candidate
/// per level (the bounds depend on Tc alone, not on the reuse pivots), the
/// TSS/TTS baselines once per (u, Tc). A call allocates nothing: the slot
/// space is thread-local and stamped with a per-call generation, so no
/// call clears it either (only a level of more than 4M slots is released
/// after its call). A row stops at its first conflict, which settles the
/// result, so a call's work is bounded by the lines that fit rather than
/// by the row width. There is no memo: after the hoist no two calls of a
/// search share inputs, and repeated requests are answered by the
/// daemon's dedup table before the optimizer runs.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_MODEL_CACHEEMU_H
#define LTP_MODEL_CACHEEMU_H

#include "arch/ArchParams.h"

#include <cstdint>

namespace ltp {

/// Inputs of Algorithm 1.
struct CacheEmuParams {
  /// Geometry of the cache level being emulated.
  CacheParams Cache;
  /// L1 line size in bytes (defines lc together with DTS).
  int64_t L1LineBytes = 64;
  /// Element size in bytes (DTS).
  int64_t DTS = 4;
  /// Ti-1: the already-chosen tile width along the row (column) dimension,
  /// in elements.
  int64_t PrevTileElems = 0;
  /// Bi: problem size of the row-major dimension, in elements (the row
  /// stride of the emulated array).
  int64_t RowStrideElems = 0;
  /// Divisor of the effective associativity (threads per core, or cores
  /// for a shared L2).
  int64_t EffectiveWaysDivisor = 1;
  /// Base address of the array in elements (addr).
  int64_t BaseAddrElems = 0;
  /// L2 constant-stride prefetch degree; 0 when emulating the L1.
  int L2Pref = 0;
  /// Maximum prefetch distance in lines.
  int L2MaxPref = 0;
  /// True when emulating the L2 level (halves the effective set count).
  bool ForL2 = false;
  /// Upper bound on the result (the problem size of the emulated
  /// dimension).
  int64_t MaxRows = 0;
  /// Prefetch-unaware emulation (used by the TSS/TTS baselines and the
  /// ablation bench): no next-line padding, no stride-prefetch tracking,
  /// no set halving.
  bool NoPrefetchPadding = false;
};

/// Returns maxTi: the number of tile rows that fit without interference
/// misses, clamped to [1, MaxRows]. Every call bumps the
/// `model.bound.emulated` counter.
int64_t emulateMaxTileDim(const CacheEmuParams &Params);

/// The cache level an Algorithm-1 bound is taken at.
enum class EmuLevel { L1, L2 };

/// maxTi for tile rows \p PrevTileElems wide at a row stride of
/// \p RowStrideElems (at most \p MaxRows rows) at \p Arch's \p Level:
/// the one set-up the temporal and spatial optimizers and the lint pass
/// bound tiles with. The L1's ways are divided by the SMT threads per
/// core; the L2's by the cores when it is shared (the ARM platform,
/// Section 5.1) and by the threads per core otherwise, and the L2 tracks
/// the constant-stride prefetcher's degree and distance. \p HalveL2Sets
/// false is the NoL2SetHalving ablation.
int64_t algorithm1Bound(const ArchParams &Arch, EmuLevel Level, int64_t DTS,
                        int64_t PrevTileElems, int64_t RowStrideElems,
                        int64_t MaxRows, bool HalveL2Sets = true);

} // namespace ltp

#endif // LTP_MODEL_CACHEEMU_H
