//===- table4_best_times.cpp - Table 4: best absolute times ---------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Regenerates Table 4: the average execution time of the best
// implementation of each benchmark (the proposed schedule, with NTI when
// applicable), alongside the paper's reported numbers for the modeled
// platform. Absolute values differ from the paper's testbed; the table's
// role is the baseline for the relative-throughput figures.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "support/Format.h"

#include <cstdio>
#include <map>

using namespace ltp;
using namespace ltp::bench;

namespace {

/// Paper-reported best times in ms (Table 4) for the two Intel platforms.
struct PaperTimes {
  double I6700;
  double I5930K;
};

const std::map<std::string, PaperTimes> &paperTimes() {
  static const std::map<std::string, PaperTimes> Times = {
      {"convlayer", {887.12, 503.80}}, {"doitgen", {233.29, 143.77}},
      {"matmul", {298.97, 182.24}},    {"3mm", {310.97, 178.90}},
      {"gemm", {286.12, 183.00}},      {"trmm", {199.44, 131.76}},
      {"syrk", {742.57, 364.80}},      {"syr2k", {1442.41, 992.61}},
      {"tpm", {10.02, 6.00}},          {"tp", {7.23, 4.5}},
      {"copy", {5.49, 3.18}},          {"mask", {8.32, 4.67}},
  };
  return Times;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParse Args(Argc, Argv);
  setupTelemetry(Args, "table4");
  ArchParams Arch = archFromArgs(Args);
  // The paper reports Table 4 for the two Intel platforms only.
  const std::string ArchName = Args.getString("arch", "5930k");
  const bool Is6700 = ArchName == "6700";
  const bool HasPaperColumn = Is6700 || ArchName == "5930k";
  printHeader("Table 4: best execution time per benchmark", Arch);

  const int Runs = timedRuns(Args, 3);
  JITCompiler Compiler;
  std::vector<int> Widths = {10, 38, 8, 12, 14, 12};
  printRow({"benchmark", "description", "size", "measured(ms)",
            "paper(ms)", "class"},
           Widths);

  for (const BenchmarkDef &Def : allBenchmarks()) {
    int64_t Size = problemSize(Def, Args);
    BenchmarkInstance Instance = Def.Create(Size);
    std::string Description = applyScheduler(
        Instance, Scheduler::ProposedNTI, Arch, &Compiler);
    double Seconds =
        jitAvailable() ? timePipeline(Instance, Compiler, Runs) : -1.0;
    const PaperTimes &Paper = paperTimes().at(Def.Name);
    printRow({Def.Name, Def.Description,
              strFormat("%lld", static_cast<long long>(Size)),
              Seconds > 0.0 ? strFormat("%.2f", Seconds * 1e3) : "n/a",
              HasPaperColumn
                  ? strFormat("%.2f", Is6700 ? Paper.I6700 : Paper.I5930K)
                  : "n/a",
              Description.substr(0, 10)},
             Widths);
  }
  std::printf("\npaper sizes: --paper (Table 4 column 3); default sizes "
              "are container-scaled.\n");
  return 0;
}
