//===- main.cpp - ltp-perfbench: the repository benchmark runner ----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Runs one workload for one seed and prints the result line. Normally
// started by perfbench/run.py, which builds this runner and ltp-serve,
// gives each run a private directory as its working directory, and
// removes it afterwards:
//
//   ltp-perfbench --workload cold_compile --seed 7 --seconds 10
//                 --trace 0 --serve-binary PATH [--trace-out FILE] [--tiny]
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/ArgParse.h"

#include <climits>
#include <cstdio>
#include <set>
#include <unistd.h>

using namespace perfbench;

int main(int Argc, char **Argv) {
  ltp::ArgParse Args(Argc, Argv);
  Options Opts;
  Opts.Workload = Args.getString("workload", "");
  Opts.Seed = static_cast<uint64_t>(Args.getInt("seed", 1));
  Opts.Seconds = Args.getDouble("seconds", 10.0);
  Opts.Trace = Args.getInt("trace", 0) != 0;
  Opts.Tiny = Args.has("tiny");
  Opts.ServeBinary = Args.getString("serve-binary", "");
  Opts.TraceOut = Args.getString("trace-out", "trace.json");
  char Cwd[PATH_MAX];
  if (!::getcwd(Cwd, sizeof(Cwd))) {
    std::fprintf(stderr, "error: cannot read the working directory\n");
    return 1;
  }
  Opts.RunDir = Cwd;

  static const std::set<std::string> Workloads = {
      "cold_compile", "cold_plan", "warm_serve", "kernel_run"};
  if (!Workloads.contains(Opts.Workload) || Opts.Seconds <= 0 ||
      (Opts.Workload != "kernel_run" &&
       ::access(Opts.ServeBinary.c_str(), X_OK) != 0)) {
    std::fprintf(stderr, "usage: ltp-perfbench --workload "
                         "cold_compile|cold_plan|warm_serve|kernel_run "
                         "--seed N --seconds S --trace 0|1 "
                         "--serve-binary PATH [--trace-out FILE] [--tiny]\n");
    return 1;
  }

  Result R;
  int Status;
  if (Opts.Trace)
    Status = traceWorkload(Opts, R);
  else if (Opts.Workload == "kernel_run")
    Status = runKernelRun(Opts, R);
  else if (Opts.Workload == "cold_compile")
    Status = runColdCompile(Opts, R);
  else if (Opts.Workload == "cold_plan")
    Status = runColdPlan(Opts, R);
  else
    Status = runWarmServe(Opts, R);

  R.printTable(Opts);
  if (Status != 0) {
    std::fprintf(stderr, "error: %s could not run\n", Opts.Workload.c_str());
    return 1;
  }
  std::printf("%s\n", R.jsonLine().c_str());
  return 0;
}
