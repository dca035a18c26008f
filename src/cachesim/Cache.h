//===- Cache.h - set-associative cache with LRU replacement -----*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One level of a set-associative, write-allocate cache with true-LRU
/// replacement. Lines remember whether a prefetch brought them in so the
/// simulator can report prefetch usefulness — the quantity the paper's
/// analytical model reasons about when it "eliminates prefetched
/// references" from the cold-miss counts (Eqs. 3 and 8).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_CACHE_H
#define LTP_CACHESIM_CACHE_H

#include "arch/ArchParams.h"

#include <cstdint>
#include <vector>

namespace ltp {

/// Statistics of one cache level.
struct CacheLevelStats {
  uint64_t DemandHits = 0;
  uint64_t DemandMisses = 0;
  uint64_t PrefetchFills = 0;
  /// Demand hits on lines whose last fill was a prefetch.
  uint64_t PrefetchHits = 0;
  uint64_t Evictions = 0;

  bool operator==(const CacheLevelStats &) const = default;

  uint64_t demandAccesses() const { return DemandHits + DemandMisses; }
  double missRate() const {
    uint64_t Total = demandAccesses();
    return Total == 0 ? 0.0 : static_cast<double>(DemandMisses) / Total;
  }
};

/// Replacement policy of a cache level. Real L1/L2 caches implement
/// tree-based pseudo-LRU rather than true LRU; the simulator offers both
/// so the model's sensitivity to the policy can be measured
/// (bench/ablation_model --plru).
enum class ReplacementPolicy {
  LRU,
  TreePLRU,
};

/// A single set-associative cache level addressed by line number.
class CacheLevel {
public:
  explicit CacheLevel(const CacheParams &Params,
                      ReplacementPolicy Policy = ReplacementPolicy::LRU);

  /// Demand access to \p LineAddr. Returns true on hit. On miss the caller
  /// is responsible for accessing the next level and then calling fill().
  /// \p MarkDirty records a write for write-back accounting.
  bool access(uint64_t LineAddr, bool MarkDirty = false);

  /// True when the line is present (no state change, no statistics).
  bool probe(uint64_t LineAddr) const;

  /// Inserts \p LineAddr (LRU victim evicted). \p IsPrefetch marks the
  /// line as prefetched and counts a prefetch fill instead of a demand
  /// fill. Returns true when a dirty victim was evicted (write-back).
  bool fill(uint64_t LineAddr, bool IsPrefetch, bool Dirty = false);

  /// Removes the line if present (non-temporal store semantics).
  void invalidate(uint64_t LineAddr);

  /// Sets the dirty bit of a resident line without touching statistics
  /// or recency (write-back bookkeeping for stores already counted by a
  /// demand access).
  void markDirty(uint64_t LineAddr);

  const CacheLevelStats &stats() const { return Stats; }
  void resetStats() { Stats = CacheLevelStats(); }

  /// Credits \p Count demand hits that are pure repeats of an
  /// already-issued element-wise iteration touching \p LineAddrs (the
  /// demand lines of that iteration, in program order, \p N of them, so
  /// Count = N * repeats). Besides the counter, this replays the recency
  /// effect of the repeats exactly: every repeated access advanced the
  /// clock by one and re-touched its (resident) line, so the end state
  /// equals advancing the clock by Count with the final iteration's
  /// touches laid out on the last N ticks (see AccessProgram.h).
  void addRepeatHits(const uint64_t *LineAddrs, size_t N, uint64_t Count);

  /// Dirty lines currently resident (write-backs that must eventually
  /// reach memory).
  uint64_t countDirtyLines() const;

  int64_t numSets() const { return NumSets; }
  int64_t ways() const { return Params.Ways; }
  int64_t lineBytes() const { return Params.LineBytes; }

private:
  struct Line {
    uint64_t Tag = 0;
    bool Valid = false;
    bool Prefetched = false;
    bool Dirty = false;
    uint64_t LastUse = 0;
  };

  Line *findLine(uint64_t LineAddr);
  const Line *findLine(uint64_t LineAddr) const;

  /// Marks \p Way of \p Set most-recently-used under the active policy.
  void touch(uint64_t Set, int64_t Way);

  /// Selects the victim way of \p Set (assumes all ways valid).
  int64_t pickVictim(uint64_t Set) const;

  CacheParams Params;
  ReplacementPolicy Policy;
  int64_t NumSets;
  std::vector<Line> Lines; // NumSets * Ways, set-major
  /// Tree-PLRU state: one bit tree per set (Ways-1 internal nodes).
  std::vector<uint64_t> PlruBits;
  uint64_t Clock = 0;
  CacheLevelStats Stats;
};

} // namespace ltp

#endif // LTP_CACHESIM_CACHE_H
