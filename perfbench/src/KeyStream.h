//===- KeyStream.h - seeded request streams ---------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request streams every serving workload replays. They depend only on
/// the seed: the same seed gives the same (kernel, size, platform) keys in
/// the same order, so cold_compile and cold_plan see one key stream, and
/// the traced run replays exactly what the untraced run sent.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_PERFBENCH_KEYSTREAM_H
#define LTP_PERFBENCH_KEYSTREAM_H

#include "serve/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One request of a stream: the parsed form (for in-process replay) and
/// the wire line the daemon receives.
struct StreamRequest {
  ltp::serve::Request Req;
  std::string Line;
};

/// How a cold stream was drawn.
struct KeyAccounting {
  int64_t Drawn = 0;
  /// Draws rejected because their canonical key was already in the run.
  int64_t DuplicatesRejected = 0;
};

/// \p Count requests with pairwise-distinct canonical keys: a kernel of
/// Table 4, a size between half the container default and the paper size
/// (a small range when \p Tiny), and one of the four platforms. With
/// \p Compile false every fourth request is a `lint` op instead.
std::vector<StreamRequest> coldStream(uint64_t Seed, size_t Count,
                                      bool Compile, bool Tiny,
                                      KeyAccounting &Accounting);

/// The warm_serve pool: every Table-4 kernel on every platform at a
/// seeded small size, compile on.
std::vector<StreamRequest> warmPool(uint64_t Seed, bool Tiny);

/// kernel_run's set-up as requests: every Table-4 kernel at its default
/// size (24 when \p Tiny) on the host platform, compile on.
std::vector<StreamRequest> kernelRunRequests(bool Tiny);

/// \p Count seeded indices into a pool of \p PoolSize (the duplicate-only
/// replay).
std::vector<uint32_t> replayOrder(uint64_t Seed, size_t PoolSize,
                                  size_t Count);

} // namespace perfbench

#endif // LTP_PERFBENCH_KEYSTREAM_H
