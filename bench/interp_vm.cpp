//===- interp_vm.cpp - bytecode VM vs JIT ---------------------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Micro-benchmark for the interpreter: every Table-4 kernel runs its
// unscheduled definition on the bytecode VM and, when a host compiler is
// available, as JIT-compiled native code. Both outputs are checked
// against the per-benchmark oracle before the row prints, and the footer
// reports the geometric-mean JIT speedup over the VM. Emits a JSON array
// so CI can track the ratio; see EXPERIMENTS.md ("Interpreter engines").
// Exits 1 when any row reads MISMATCH: an output off the oracle, or a
// failed compile on a host with a C compiler.
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

/// Problem sizes big enough to time on the VM, small enough that the full
/// suite finishes in seconds. Scaled by --scale.
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
  printHeader("interp_vm: bytecode VM vs JIT", Arch);

  const int Runs = timedRuns(Args, 3);
  const double Scale = Args.getDouble("scale", 1.0);
  const bool HaveJIT = jitAvailable();
  JITCompiler Compiler;

  std::vector<int> Widths = {10, 7, 10, 10, 9, 9};
  printRow({"kernel", "size", "vm(ms)", "jit(ms)", "jit/vm", "verify"},
           Widths);

  std::string Json = "[";
  double LogJITOverVM = 0.0;
  int Counted = 0, JITCounted = 0;
  bool AllVerified = true;
  bool First = true;
  for (const BenchmarkDef &Def : allBenchmarks()) {
    const int64_t Size = benchSize(Def.Name, Scale);
    // Identical creation seeds: both instances see bitwise-equal inputs.
    BenchmarkInstance OnVM = Def.Create(Size);

    std::string Error;
    double VMSeconds = bestSeconds(Runs, [&] {
      Error += runInterpreted(OnVM, /*RunParallel=*/false);
    });
    bool Verified = Error.empty() && verifyOutput(OnVM);

    double JITSeconds = -1.0;
    if (HaveJIT) {
      BenchmarkInstance Jitted = Def.Create(Size);
      ErrorOr<CompiledPipeline> Pipeline = compilePipeline(Jitted, Compiler);
      if (Pipeline) {
        JITSeconds = timeCompiled(*Pipeline, Jitted, Runs);
        Verified = Verified && verifyOutput(Jitted);
      } else {
        std::fprintf(stderr, "error: %s: %s\n", Def.Name.c_str(),
                     Pipeline.getError().c_str());
        Verified = false;
      }
    }

    double JITOverVM = JITSeconds > 0.0 ? VMSeconds / JITSeconds : -1.0;
    ++Counted;
    if (JITOverVM > 0.0) {
      LogJITOverVM += std::log(JITOverVM);
      ++JITCounted;
    }
    AllVerified = AllVerified && Verified;

    printRow({Def.Name, strFormat("%lld", static_cast<long long>(Size)),
              strFormat("%.2f", VMSeconds * 1e3),
              JITSeconds > 0.0 ? strFormat("%.2f", JITSeconds * 1e3) : "-",
              JITOverVM > 0.0 ? strFormat("%.1fx", JITOverVM) : "-",
              Verified ? "ok" : "MISMATCH"},
             Widths);

    Json += strFormat(
        "%s{\"kernel\":\"%s\",\"size\":%lld,"
        "\"vm_ms\":%.3f,\"jit_ms\":%.3f,"
        "\"jit_over_vm\":%.2f,\"verified\":%s}",
        First ? "" : ",", Def.Name.c_str(), static_cast<long long>(Size),
        VMSeconds * 1e3, JITSeconds * 1e3, JITOverVM,
        Verified ? "true" : "false");
    First = false;
  }
  Json += "]";

  if (JITCounted)
    std::printf("\ngeomean: jit %.1fx over vm (%d of %d kernels)\n",
                std::exp(LogJITOverVM / JITCounted), JITCounted, Counted);
  if (HaveJIT) {
    std::printf("\n");
    printJITStats(Compiler);
  }
  printTelemetryFooter();
  std::printf("\n%s\n", Json.c_str());
  return AllVerified ? 0 : 1;
}
