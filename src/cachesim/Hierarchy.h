//===- Hierarchy.h - multi-level cache hierarchy with prefetchers -*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inclusive L1/L2(/L3) hierarchy with the two hardware prefetchers the
/// paper models:
///
///  * an L1 *next-line* (streaming) prefetcher that fetches line N+1 on
///    every demand reference to line N (Section 3.2: "due to the streaming
///    prefetchers present in the L1 and L2 cache which fetch the next
///    cache line after every reference");
///  * an L2 *constant-stride* (streamer) prefetcher with per-page stream
///    tracking that, once a stride repeats, runs ahead of the demand
///    stream by up to `L2MaxPrefetchDistance` lines, `L2PrefetchDegree`
///    lines at a time — the paper's "maximum distance between the actual
///    reference and the prefetched data (usually 20 for Intel
///    processors)". Detected streams fill L2 (and L3 when present), which
///    is what lets the model assume non-unit-stride loads are served from
///    L2/L3 (Section 3.2).
///
/// Non-temporal stores bypass the hierarchy and invalidate resident
/// copies, reproducing the cache-pollution-avoidance that motivates the
/// paper's `store_nontemporal` directive.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_HIERARCHY_H
#define LTP_CACHESIM_HIERARCHY_H

#include "arch/ArchParams.h"
#include "cachesim/Cache.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace ltp {

/// Kind of one traced memory access.
enum class AccessKind {
  Load,
  Store,
  NonTemporalStore,
};

/// Aggregate statistics of one simulation run.
struct HierarchyStats {
  CacheLevelStats L1;
  CacheLevelStats L2;
  CacheLevelStats L3;
  uint64_t MemoryAccesses = 0;     // lines fetched from DRAM (demand)
  uint64_t PrefetchMemoryFills = 0; // lines fetched from DRAM by prefetch
  uint64_t Writebacks = 0;         // dirty LLC evictions
  uint64_t NonTemporalStores = 0;  // stores that bypassed the caches
  uint64_t NonTemporalLines = 0;   // DRAM line transfers those amount to
  uint64_t PrefetchIssuedL1 = 0;
  uint64_t PrefetchIssuedL2 = 0;

  bool operator==(const HierarchyStats &) const = default;

  /// Total DRAM line transfers (demand + prefetch + write-back + NT).
  uint64_t memoryTraffic() const {
    return MemoryAccesses + PrefetchMemoryFills + Writebacks +
           NonTemporalLines;
  }
};

/// Latency weights for the estimated-cycles summary; defaults approximate
/// a modern desktop core. MemBandwidth prices pipelined DRAM transfers
/// (prefetches, write-backs, streaming stores) that overlap with demand
/// traffic.
struct LatencyModel {
  double L1Hit = 4.0;
  double L2Hit = 12.0;
  double L3Hit = 40.0;
  double Memory = 180.0;
  double MemBandwidth = 60.0;
};

/// The simulated memory hierarchy.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(
      const ArchParams &Arch,
      ReplacementPolicy Policy = ReplacementPolicy::LRU);

  /// Demand load of \p SizeBytes at \p Address.
  void load(uint64_t Address, uint32_t SizeBytes);

  /// Store; write-allocate unless \p NonTemporal, which bypasses and
  /// invalidates.
  void store(uint64_t Address, uint32_t SizeBytes, bool NonTemporal);

  /// load() or store() by \p Kind: one event of a memory trace.
  void access(AccessKind Kind, uint64_t Address, uint32_t SizeBytes) {
    if (Kind == AccessKind::Load)
      load(Address, SizeBytes);
    else
      store(Address, SizeBytes, Kind == AccessKind::NonTemporalStore);
  }

  /// Statistics accumulated so far.
  HierarchyStats stats() const;

  /// Weighted access-cost estimate over all demand accesses; the figure
  /// the benches report as the simulator's throughput proxy.
  double estimatedCycles(const LatencyModel &Latency = LatencyModel()) const;

  void resetStats();

  bool hasL3() const { return L3 != nullptr; }

  int64_t lineBytes() const { return LineBytes; }

  /// True when a repeat of a demand access to \p LineAddr would be a pure
  /// L1 hit with no observable side effect beyond the hit counter: the
  /// line is resident in L1 and, when the next-line prefetcher is on, so
  /// is its successor (making the prefetch probe a no-op). Used by the
  /// access program to retire same-line runs in O(1); see
  /// AccessProgram.h for the equivalence argument.
  bool repeatHitReady(uint64_t LineAddr) const;

  /// Credits \p Repeats pure-repeat L1 demand hits of one element-wise
  /// iteration whose demand lines are \p Lines (\p NumLines of them, in
  /// program order) without replaying them individually. Only valid when
  /// repeatHitReady() held for every line and the element-wise iteration
  /// has already been issued; recency is updated so the end state is
  /// bit-identical to replaying the repeats.
  void retireRepeatHits(const uint64_t *Lines, size_t NumLines,
                        uint64_t Repeats);

  /// Retires \p Count repeated non-temporal stores of \p Bytes total to a
  /// single line: one invalidation sweep (idempotent for the repeats) plus
  /// the bypass counters the element-wise path would have accumulated.
  void retireRepeatNonTemporal(uint64_t LineAddr, uint64_t Count,
                               uint64_t Bytes);

private:
  void demandAccess(uint64_t LineAddr);
  void l1NextLinePrefetch(uint64_t LineAddr);
  void l2StridePrefetch(uint64_t LineAddr);

  ArchParams Arch;
  std::unique_ptr<CacheLevel> L1;
  std::unique_ptr<CacheLevel> L2;
  std::unique_ptr<CacheLevel> L3; // null when the platform has no L3

  /// Per-4KB-page stream detector state for the L2 streamer.
  struct Stream {
    uint64_t LastLine = 0;
    int64_t Stride = 0;
    int Confirmations = 0;
    /// How far ahead of the demand stream this stream has prefetched,
    /// in lines (bounded by L2MaxPrefetchDistance).
    int64_t Ahead = 0;
  };

  /// Open-addressing flat table mapping 4KB pages to stream state. The
  /// streamer consults this on every L1 miss, so it sits on the simulator
  /// hot path; linear probing over a power-of-two array beats the old
  /// node-based std::map by avoiding an allocation and a pointer chase
  /// per lookup. Pages are never erased individually (matching the map's
  /// lifetime behaviour), so no tombstones are needed.
  class StreamTable {
  public:
    StreamTable() : Slots(64) {}

    /// Returns the stream for \p Page, default-constructing it on first
    /// touch (same semantics as std::map::operator[]).
    Stream &operator[](uint64_t Page) {
      if ((Used + 1) * 4 > Slots.size() * 3)
        grow();
      size_t I = indexOf(Page);
      if (!Slots[I].Occupied) {
        Slots[I].Occupied = true;
        Slots[I].Page = Page;
        Slots[I].S = Stream();
        ++Used;
      }
      return Slots[I].S;
    }

  private:
    struct Slot {
      uint64_t Page = 0;
      bool Occupied = false;
      Stream S;
    };

    static uint64_t hash(uint64_t X) {
      // splitmix64 finalizer: cheap, full-avalanche.
      X += 0x9e3779b97f4a7c15ULL;
      X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
      X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
      return X ^ (X >> 31);
    }

    size_t indexOf(uint64_t Page) const {
      size_t Mask = Slots.size() - 1;
      size_t I = static_cast<size_t>(hash(Page)) & Mask;
      while (Slots[I].Occupied && Slots[I].Page != Page)
        I = (I + 1) & Mask;
      return I;
    }

    void grow() {
      std::vector<Slot> Old;
      Old.swap(Slots);
      Slots.resize(Old.size() * 2);
      for (const Slot &S : Old)
        if (S.Occupied) {
          size_t I = indexOf(S.Page);
          Slots[I] = S;
        }
    }

    std::vector<Slot> Slots; // capacity always a power of two
    size_t Used = 0;
  };

  StreamTable Streams;

  uint64_t MemoryAccesses = 0;
  uint64_t PrefetchMemFills = 0;
  uint64_t WritebacksCounter = 0;
  uint64_t NonTemporalStores = 0;
  uint64_t NTBytes = 0;
  uint64_t PrefetchIssuedL1 = 0;
  uint64_t PrefetchIssuedL2 = 0;
  int64_t LineBytes;
};

} // namespace ltp

#endif // LTP_CACHESIM_HIERARCHY_H
