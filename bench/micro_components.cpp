//===- micro_components.cpp - google-benchmark microbenchmarks ------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Microbenchmarks of the infrastructure components (not a paper table):
// optimizer throughput, cache-emulation bound computation, cache
// simulator access rate, interpreter rate, thread-pool dispatch overhead
// and streaming-store bandwidth. Useful to keep the tool's Table-5-style
// latency promises honest as the code evolves.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/PipelineRunner.h"
#include "model/CacheEmu.h"
#include "core/Optimizer.h"
#include "runtime/NonTemporal.h"
#include "runtime/ThreadPool.h"

#include <benchmark/benchmark.h>

using namespace ltp;

namespace {

void BM_OptimizeMatmul(benchmark::State &State) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(2048);
  ArchParams Arch = intelI7_5930K();
  for (auto _ : State) {
    OptimizationResult R =
        optimize(Instance.Stages[0], Instance.StageExtents[0], Arch);
    benchmark::DoNotOptimize(R.Temporal.Cost);
  }
}
BENCHMARK(BM_OptimizeMatmul)->Unit(benchmark::kMillisecond);

void BM_OptimizeConvLayer(benchmark::State &State) {
  const BenchmarkDef *Def = findBenchmark("convlayer");
  BenchmarkInstance Instance = Def->Create(256);
  ArchParams Arch = intelI7_5930K();
  for (auto _ : State) {
    OptimizationResult R =
        optimize(Instance.Stages[0], Instance.StageExtents[0], Arch);
    benchmark::DoNotOptimize(R.Temporal.Cost);
  }
}
BENCHMARK(BM_OptimizeConvLayer)->Unit(benchmark::kMillisecond);

void BM_CacheEmulationBound(benchmark::State &State) {
  CacheEmuParams P;
  P.Cache = intelI7_5930K().L2;
  P.DTS = 4;
  P.PrevTileElems = 512;
  P.RowStrideElems = 2048;
  P.EffectiveWaysDivisor = 2;
  P.L2Pref = 2;
  P.L2MaxPref = 20;
  P.ForL2 = true;
  P.MaxRows = 2048;
  for (auto _ : State)
    benchmark::DoNotOptimize(emulateMaxTileDim(P));
}
BENCHMARK(BM_CacheEmulationBound);

void BM_CacheSimAccessRate(benchmark::State &State) {
  MemoryHierarchy Hierarchy(intelI7_5930K());
  uint64_t Address = 0;
  for (auto _ : State) {
    Hierarchy.load(Address, 4);
    Address += 4;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheSimAccessRate);

void BM_InterpreterRate(benchmark::State &State) {
  const BenchmarkDef *Def = findBenchmark("matmul");
  BenchmarkInstance Instance = Def->Create(32);
  for (auto _ : State)
    if (std::string Error = runInterpreted(Instance); !Error.empty())
      State.SkipWithError(Error.c_str());
  State.SetItemsProcessed(State.iterations() * 32 * 32 * 32);
}
BENCHMARK(BM_InterpreterRate)->Unit(benchmark::kMillisecond);

void BM_ThreadPoolDispatch(benchmark::State &State) {
  ThreadPool &Pool = ThreadPool::global();
  std::atomic<int64_t> Sink{0};
  for (auto _ : State)
    Pool.parallelFor(0, 16, [&](int64_t I) {
      Sink.fetch_add(I, std::memory_order_relaxed);
    });
  benchmark::DoNotOptimize(Sink.load());
}
BENCHMARK(BM_ThreadPoolDispatch);

void BM_StreamingStoreBandwidth(benchmark::State &State) {
  constexpr size_t N = 1 << 20;
  Buffer<float> Src({N}), Dst({N});
  Src.fillRandom(1);
  for (auto _ : State) {
    streamStoreFloats(Dst.data(), Src.data(), N);
    streamFence();
  }
  State.SetBytesProcessed(State.iterations() * N * sizeof(float));
}
BENCHMARK(BM_StreamingStoreBandwidth);

void BM_RegularStoreBandwidth(benchmark::State &State) {
  constexpr size_t N = 1 << 20;
  Buffer<float> Src({N}), Dst({N});
  Src.fillRandom(1);
  for (auto _ : State) {
    float *D = Dst.data();
    const float *S = Src.data();
    for (size_t I = 0; I != N; ++I)
      D[I] = S[I];
    benchmark::ClobberMemory();
  }
  State.SetBytesProcessed(State.iterations() * N * sizeof(float));
}
BENCHMARK(BM_RegularStoreBandwidth);

} // namespace

BENCHMARK_MAIN();
