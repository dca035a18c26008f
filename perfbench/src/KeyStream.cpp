//===- KeyStream.cpp - seeded request streams -----------------------------===//

#include "KeyStream.h"

#include "benchmarks/Benchmarks.h"
#include "support/Format.h"

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <set>

using namespace perfbench;
using namespace ltp;

namespace {

const char *const Platforms[] = {"5930k", "6700", "a15", "host"};

StreamRequest makeRequest(const std::string &Op, const std::string &Kernel,
                          int64_t Size, const std::string &Arch,
                          bool Compile) {
  StreamRequest S;
  S.Req.Op = Op;
  S.Req.Kernel = Kernel;
  S.Req.Size = Size;
  S.Req.ArchName = Arch;
  S.Req.Compile = Compile;
  S.Line = strFormat("{\"op\": \"%s\", \"kernel\": \"%s\", \"size\": %lld, "
                     "\"arch\": \"%s\"%s}",
                     Op.c_str(), Kernel.c_str(), static_cast<long long>(Size),
                     Arch.c_str(), Compile ? "" : ", \"compile\": false");
  return S;
}

/// The canonical key the daemon dedups on, with platforms resolved once.
std::string keyOf(const serve::Request &Req) {
  static std::map<std::string, ArchParams> Resolved;
  auto It = Resolved.find(Req.ArchName);
  if (It == Resolved.end())
    It = Resolved.emplace(Req.ArchName, *serve::resolveArch(Req)).first;
  return serve::canonicalKey(Req, It->second);
}

} // namespace

std::vector<StreamRequest> perfbench::coldStream(uint64_t Seed, size_t Count,
                                                 bool Compile, bool Tiny,
                                                 KeyAccounting &Accounting) {
  const std::vector<BenchmarkDef> &Defs = allBenchmarks();
  const size_t NumKernels = Defs.size();
  std::mt19937_64 Rng(Seed);
  std::set<std::string> Seen;
  std::vector<StreamRequest> Stream;

  // A balanced draw, so every seed sees the same mix: each block of 12
  // draws holds every kernel once, in a seeded order, and each run of 16
  // draws of one kernel pairs every one of the 4 platforms with every
  // quarter of its size range once (a Latin square over per-kernel seeded
  // orders; the optimizer's cost depends on the pair, and freely drawn
  // pairs made the seed move throughput by ~5%). Sizes stay within an
  // eighth of a quarter around its middle: instance memory grows with the
  // square of the size, and wider draws made it the seed, not the
  // program, that moved latency and memory.
  std::vector<size_t> Block(NumKernels);
  std::vector<int64_t> Draws(NumKernels, 0);
  std::vector<std::array<int, 4>> PlatformOrder(NumKernels),
      QuarterOrder(NumKernels);
  size_t InBlock = NumKernels;
  // Long runs can exhaust a kernel's distinct keys; the stream then ends
  // early rather than drawing forever.
  while (Stream.size() < Count &&
         Accounting.Drawn < 20 * static_cast<int64_t>(Count)) {
    if (InBlock == NumKernels) {
      for (size_t K = 0; K != NumKernels; ++K)
        Block[K] = K;
      std::shuffle(Block.begin(), Block.end(), Rng);
      InBlock = 0;
    }
    const size_t K = Block[InBlock++];
    const BenchmarkDef &Def = Defs[K];
    if (Draws[K] % 16 == 0) {
      PlatformOrder[K] = {0, 1, 2, 3};
      QuarterOrder[K] = {0, 1, 2, 3};
      std::shuffle(PlatformOrder[K].begin(), PlatformOrder[K].end(), Rng);
      std::shuffle(QuarterOrder[K].begin(), QuarterOrder[K].end(), Rng);
    }
    const int Slot = static_cast<int>(Draws[K] % 4);
    const int Cycle = static_cast<int>(Draws[K]++ / 4 % 4);
    // Below 16 the spatial optimizer finds no tiling that gives every
    // thread of the 12-thread platform a row of tiles.
    const int64_t Lo = Tiny ? 16 : Def.DefaultSize / 2;
    const int64_t Hi = Tiny ? 48 : Def.PaperSize;
    const int64_t Quarter = (Hi - Lo + 1) / 4;
    const int64_t Jitter = std::max<int64_t>(1, Quarter / 8);
    const int64_t Size = Lo + QuarterOrder[K][Slot] * Quarter + Quarter / 2 -
                         Jitter + static_cast<int64_t>(Rng() % (2 * Jitter));
    const char *Arch = Platforms[PlatformOrder[K][(Slot + Cycle) % 4]];
    ++Accounting.Drawn;
    // Uniqueness is decided on the compile-on optimize key, so the
    // cold_plan variant of a stream keeps the same keys.
    StreamRequest Probe = makeRequest("optimize", Def.Name, Size, Arch, true);
    if (!Seen.insert(keyOf(Probe.Req)).second) {
      ++Accounting.DuplicatesRejected;
      continue;
    }
    bool Lint = !Compile && Stream.size() % 4 == 3;
    Stream.push_back(makeRequest(Lint ? "lint" : "optimize", Def.Name, Size,
                                 Arch, Compile));
  }
  return Stream;
}

std::vector<StreamRequest> perfbench::warmPool(uint64_t Seed, bool Tiny) {
  std::mt19937_64 Rng(Seed ^ 0x5eed5eedULL);
  std::vector<StreamRequest> Pool;
  for (const BenchmarkDef &Def : allBenchmarks())
    for (const char *Arch : Platforms) {
      int64_t Size = Tiny ? 16 + static_cast<int64_t>(Rng() % 9)
                          : 24 + static_cast<int64_t>(Rng() % 41);
      Pool.push_back(makeRequest("optimize", Def.Name, Size, Arch, true));
    }
  return Pool;
}

std::vector<StreamRequest> perfbench::kernelRunRequests(bool Tiny) {
  std::vector<StreamRequest> Requests;
  for (const BenchmarkDef &Def : allBenchmarks())
    Requests.push_back(makeRequest("optimize", Def.Name,
                                   Tiny ? 24 : Def.DefaultSize, "host", true));
  return Requests;
}

std::vector<uint32_t> perfbench::replayOrder(uint64_t Seed, size_t PoolSize,
                                             size_t Count) {
  std::mt19937_64 Rng(Seed ^ 0x7e9a1a7ULL);
  std::vector<uint32_t> Order(Count);
  for (uint32_t &I : Order)
    I = static_cast<uint32_t>(Rng() % PoolSize);
  return Order;
}
