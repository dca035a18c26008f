//===- ArchParams.h - architecture parameters (Tables 1 and 3) --*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The architecture-specific parameters of Table 1 of the paper, with the
/// three experimental platforms of Table 3 as presets. The prefetcher
/// parameters (L2 prefetches per access and the maximum prefetch distance,
/// "usually 20 for Intel processors") drive both the analytical model
/// (Algorithm 1) and the cache simulator.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_ARCH_ARCHPARAMS_H
#define LTP_ARCH_ARCHPARAMS_H

#include "support/ErrorOr.h"

#include <cstdint>
#include <string>

namespace ltp {

/// Parameters of one cache level.
struct CacheParams {
  int64_t SizeBytes = 0;
  int64_t LineBytes = 64;
  int64_t Ways = 8;

  int64_t numSets() const {
    return SizeBytes / (Ways * LineBytes);
  }
};

/// Architecture description consumed by the optimizer and the simulator.
struct ArchParams {
  std::string Name;

  CacheParams L1;
  CacheParams L2;
  /// L3 (shared LLC); SizeBytes == 0 means no L3 (the ARM platform).
  CacheParams L3;

  int NCores = 1;
  /// Hardware threads per core (SMT).
  int NThreadsPerCore = 1;
  /// Native SIMD width in elements of a 4-byte type (8 for AVX2, 4 for
  /// NEON/SSE).
  int VectorWidth = 8;
  /// True when the ISA offers vector stores with non-temporal hints.
  bool HasNonTemporalStores = true;
  /// True when the L2 cache is shared between cores rather than private
  /// (the Cortex-A15 case; changes the effective associativity divisor in
  /// Algorithm 2 from NThreadsPerCore to NCores, Section 5.1).
  bool SharedL2 = false;

  /// L1 next-line (streaming) prefetcher present. Disabling it models a
  /// prefetcher-less machine — the configuration prior analytical models
  /// implicitly assume (useful for ablations and model validation).
  bool L1NextLinePrefetcher = true;
  /// L2 constant-stride prefetcher: lines fetched per triggering access
  /// (0 disables the streamer).
  int L2PrefetchDegree = 2;
  /// Maximum distance (in cache lines) between the demand reference and
  /// the prefetched line ("usually 20 for Intel processors").
  int L2MaxPrefetchDistance = 20;
  /// Number of distinct access streams (trains) the L2 streamer tracks
  /// concurrently; streams beyond this evict tracker entries and stop
  /// being prefetched (32 forward streams on Intel server/client cores).
  int L2StreamerTrains = 32;
  /// Architectural vector register count visible to the compiler (16 for
  /// SSE/AVX in 64-bit mode, 16 q-registers for NEON). Bounds the
  /// unroll_jam accumulator footprint before spilling.
  int VectorRegisters = 16;

  /// Relative access-time weights used by the cost function (Eq. 11):
  /// a2 = L2 access cost, a3 = L3/memory access cost.
  double A2 = 1.0;
  double A3 = 4.0;

  /// Total hardware threads.
  int totalThreads() const { return NCores * NThreadsPerCore; }
};

/// Table 3 presets.
ArchParams intelI7_6700();
ArchParams intelI7_5930K();
ArchParams armCortexA15();

/// The host machine's cache hierarchy, read from sysfs (i7-6700-like
/// defaults for fields that cannot be read) and hardware_concurrency().
/// The probe runs once per process, on the first call, and every later
/// call returns that same snapshot, thread-safely: a long-lived process
/// such as the ltp-serve daemon keeps one host platform, and so one set
/// of `host` dedup keys, for its whole life, even if the machine's
/// visible CPUs or caches change under it.
const ArchParams &detectHost();

/// The built-in platform called \p Name: "5930k", "6700", "a15" (or
/// "arm"), and "host" (or empty) for a copy of detectHost()'s snapshot;
/// an error naming the accepted names otherwise.
ErrorOr<ArchParams> archByName(const std::string &Name);

/// Renders the parameters as a one-line summary for bench headers.
std::string describe(const ArchParams &Arch);

} // namespace ltp

#endif // LTP_ARCH_ARCHPARAMS_H
