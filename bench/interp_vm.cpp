//===- interp_vm.cpp - bytecode VM vs tree-walker vs JIT ------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Micro-benchmark for the interpreter's execution engines: every Table-4
// kernel runs its unscheduled definition on the tree-walking reference
// interpreter, on the bytecode VM (the default engine) and, when a host
// compiler is available, as JIT-compiled native code. Outputs are checked
// against the per-benchmark oracle before any timing row prints, and the
// footer reports geometric-mean speedups (the VM's target is >= 10x over
// the walker). Emits a JSON array so CI can track the ratios; see
// EXPERIMENTS.md ("Interpreter engines").
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

using namespace ltp;
using namespace ltp::bench;

namespace {

double bestSeconds(int Runs, const std::function<void()> &Fn) {
  double Best = -1.0;
  for (int R = 0; R != Runs; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    double S = std::chrono::duration<double>(T1 - T0).count();
    if (Best < 0.0 || S < Best)
      Best = S;
  }
  return Best;
}

/// Problem sizes tuned so the tree-walker takes tens of milliseconds per
/// kernel: big enough to time, small enough that the full suite finishes
/// in seconds. Scaled by --scale.
int64_t benchSize(const std::string &Name, double Scale) {
  int64_t Base = 48; // cubic kernels (matmul/gemm/trmm/syrk/...)
  if (Name == "doitgen")
    Base = 16;
  else if (Name == "convlayer")
    Base = 12;
  else if (Name == "tpm" || Name == "tp" || Name == "copy" ||
           Name == "mask")
    Base = 384; // 2-D streaming kernels
  return std::max<int64_t>(8, static_cast<int64_t>(Base * Scale));
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "interp_vm");
  ArchParams Arch = detectHost();
  printHeader("interp_vm: bytecode VM vs tree-walking reference vs JIT",
              Arch);

  const int Runs = timedRuns(Args, 3);
  const double Scale = Args.getDouble("scale", 1.0);
  const bool HaveJIT = jitAvailable();
  JITCompiler Compiler;

  std::vector<int> Widths = {10, 7, 10, 10, 10, 9, 9, 9};
  printRow({"kernel", "size", "ref(ms)", "vm(ms)", "jit(ms)", "vm/ref",
            "jit/vm", "verify"},
           Widths);

  std::string Json = "[";
  double LogVMSpeedup = 0.0, LogJITOverVM = 0.0;
  int Counted = 0, JITCounted = 0;
  bool First = true;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    const int64_t Size = benchSize(Def.Name, Scale);
    // Identical creation seeds: all three instances see bitwise-equal
    // inputs.
    BenchmarkInstance OnRef = Def.Create(Size);
    BenchmarkInstance OnVM = Def.Create(Size);

    std::string Error;
    double RefSeconds = bestSeconds(Runs, [&] {
      Error += runInterpreted(OnRef, /*RunParallel=*/false,
                              InterpEngine::Reference);
    });
    double VMSeconds = bestSeconds(Runs, [&] {
      Error += runInterpreted(OnVM, /*RunParallel=*/false, InterpEngine::VM);
    });
    bool Verified = Error.empty() && verifyOutput(OnVM) && verifyOutput(OnRef);

    double JITSeconds = -1.0;
    if (HaveJIT) {
      BenchmarkInstance Jitted = Def.Create(Size);
      ErrorOr<CompiledPipeline> Pipeline = compilePipeline(Jitted, Compiler);
      if (Pipeline) {
        JITSeconds = timeCompiled(*Pipeline, Jitted, Runs);
        Verified = Verified && verifyOutput(Jitted);
      }
    }

    double VMSpeedup = RefSeconds / VMSeconds;
    double JITOverVM = JITSeconds > 0.0 ? VMSeconds / JITSeconds : -1.0;
    LogVMSpeedup += std::log(VMSpeedup);
    ++Counted;
    if (JITOverVM > 0.0) {
      LogJITOverVM += std::log(JITOverVM);
      ++JITCounted;
    }

    printRow({Def.Name, strFormat("%lld", static_cast<long long>(Size)),
              strFormat("%.2f", RefSeconds * 1e3),
              strFormat("%.2f", VMSeconds * 1e3),
              JITSeconds > 0.0 ? strFormat("%.2f", JITSeconds * 1e3) : "-",
              strFormat("%.1fx", VMSpeedup),
              JITOverVM > 0.0 ? strFormat("%.1fx", JITOverVM) : "-",
              Verified ? "ok" : "MISMATCH"},
             Widths);

    Json += strFormat(
        "%s{\"kernel\":\"%s\",\"size\":%lld,\"ref_ms\":%.3f,"
        "\"vm_ms\":%.3f,\"jit_ms\":%.3f,\"vm_speedup\":%.2f,"
        "\"jit_over_vm\":%.2f,\"verified\":%s}",
        First ? "" : ",", Def.Name.c_str(), static_cast<long long>(Size),
        RefSeconds * 1e3, VMSeconds * 1e3, JITSeconds * 1e3, VMSpeedup,
        JITOverVM, Verified ? "true" : "false");
    First = false;
  }
  Json += "]";

  std::printf("\ngeomean: vm %.1fx over reference walker",
              Counted ? std::exp(LogVMSpeedup / Counted) : 0.0);
  if (JITCounted)
    std::printf(", jit %.1fx over vm", std::exp(LogJITOverVM / JITCounted));
  std::printf(" (%d kernels)\n", Counted);
  if (HaveJIT) {
    std::printf("\n");
    printJITStats(Compiler);
  }
  printTelemetryFooter();
  std::printf("\n%s\n", Json.c_str());
  return 0;
}
