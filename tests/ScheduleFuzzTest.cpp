//===- ScheduleFuzzTest.cpp - randomized schedule correctness --------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Property test: ANY schedule the static legality verifier accepts must
// compute the same values as the unscheduled definition. Each seed draws
// random splits (including non-dividing factors), a random loop order and
// random vectorize/unroll/parallel marks — legality-blind, a vectorize
// mark also on loops split from a reduction variable — then asks the
// verifier for a verdict. A per-seed test redraws a rejected schedule
// (lowering would refuse it) within a fixed budget, so every seed runs;
// verifier-accepted draws must execute correctly, which is the agreement
// the sweep asserts between the verifier and the VM-vs-walker
// differential.
//
// The seed count is overridable with LTP_FUZZ_SEEDS (default 24): the
// per-seed tests pick it up when the binary is (re)discovered or run
// directly, and the DifferentialVMvsReference sweep honours it at run
// time, so `LTP_FUZZ_SEEDS=200 ctest -L fuzz` deepens coverage without a
// rebuild. The sweep runs every seed, plus a fused draw per seed, through
// both the bytecode VM and the tree-walking oracle (tests/oracles) and
// asserts they agree element-wise, and that the simulator's access
// program replays the walker's trace exactly on every platform.
//
//===----------------------------------------------------------------------===//

#include "analysis/Legality.h"
#include "benchmarks/PipelineRunner.h"
#include "cachesim/TraceRunner.h"
#include "core/AccessInfo.h"
#include "model/MissModel.h"
#include "tests/oracles/TreeWalker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>

using namespace ltp;

namespace {

/// Number of fuzz seeds; LTP_FUZZ_SEEDS overrides the default.
int fuzzSeedCount() {
  if (const char *Env = std::getenv("LTP_FUZZ_SEEDS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return N;
  }
  return 24;
}

/// Applies a random but valid schedule to the compute stage of \p F.
void applyRandomSchedule(Func &F, const std::vector<int64_t> &Extents,
                         std::mt19937 &Rng) {
  F.clearSchedules();
  int ComputeStage = F.computeStageIndex();
  StageAccessInfo Info = analyzeStage(F, ComputeStage, Extents);
  Stage S = ComputeStage < 0 ? F.pureStage() : F.update(ComputeStage);

  std::vector<std::string> Leaves;
  std::vector<std::string> ReductionLeaves;
  // Chains of split descendants, innermost first: a split's guarded
  // inner loop must stay nested inside its outer, so the relative order
  // within a chain is fixed.
  std::vector<std::vector<std::string>> Chains;
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };

  for (const LoopInfo &Loop : Info.Loops) {
    std::string Name = Loop.Name;
    std::vector<std::string> Chain;
    // Up to two nested splits with arbitrary (often non-dividing)
    // factors.
    int Splits = Rand(0, 2);
    for (int Level = 0; Level != Splits; ++Level) {
      int64_t Factor = 2 + Rand(0, 12);
      std::string Outer = Name + "_o" + std::to_string(Level);
      std::string Inner = Name + "_i" + std::to_string(Level);
      S.split(Name, Outer, Inner, Factor);
      Leaves.push_back(Outer);
      Chain.insert(Chain.begin(), Outer); // outers go late in the chain
      Name = Inner;
    }
    Leaves.push_back(Name);
    Chain.insert(Chain.begin(), Name);
    if (Loop.IsReduction)
      ReductionLeaves.insert(ReductionLeaves.end(), Chain.begin(),
                             Chain.end());
    Chains.push_back(std::move(Chain));
  }

  std::shuffle(Leaves.begin(), Leaves.end(), Rng);
  // Restore intra-chain nesting: each chain's members occupy their
  // shuffled positions in innermost-first order.
  for (const std::vector<std::string> &Chain : Chains) {
    std::vector<size_t> Positions;
    for (size_t P = 0; P != Leaves.size(); ++P)
      if (std::find(Chain.begin(), Chain.end(), Leaves[P]) != Chain.end())
        Positions.push_back(P);
    for (size_t I = 0; I != Positions.size(); ++I)
      Leaves[Positions[I]] = Chain[I];
  }
  std::vector<VarName> Order;
  for (const std::string &Name : Leaves)
    Order.push_back(Name);
  S.reorder(Order);

  // Random marks, drawn legality-blind: the callers precheck the schedule
  // with the static verifier and redraw or skip rejected draws (a parallel
  // mark may land on a loop carrying a reduction dependence). A vectorize
  // mark lands on the innermost loop or on a loop of a reduction
  // variable, which the verifier accepts when the accumulated element
  // stays put along it.
  int VectorDraw = Rand(0, 2);
  if (VectorDraw == 1)
    S.vectorize(Leaves.front());
  else if (VectorDraw == 2 && !ReductionLeaves.empty())
    S.vectorize(ReductionLeaves[static_cast<size_t>(
        Rand(0, static_cast<int>(ReductionLeaves.size()) - 1))]);
  if (Leaves.size() > 1 && Rand(0, 1))
    S.unroll(Leaves[1]);
  if (Rand(0, 1))
    S.parallel(Leaves[static_cast<size_t>(
        Rand(0, static_cast<int>(Leaves.size()) - 1))]);
}

/// Fuses two adjacent loops of the compute stage's default nest and
/// maybe splits the fused loop by a random, often non-dividing, factor:
/// the fused variables become div/mod index expressions.
void applyRandomFusedSchedule(Func &F, const std::vector<int64_t> &Extents,
                              std::mt19937 &Rng) {
  F.clearSchedules();
  int ComputeStage = F.computeStageIndex();
  StageAccessInfo Info = analyzeStage(F, ComputeStage, Extents);
  Stage S = ComputeStage < 0 ? F.pureStage() : F.update(ComputeStage);
  auto Rand = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  size_t Inner =
      static_cast<size_t>(Rand(0, static_cast<int>(Info.Loops.size()) - 2));
  S.fuse(Info.Loops[Inner + 1].Name, Info.Loops[Inner].Name, "fused");
  if (Rand(0, 1))
    S.split("fused", "fused_o", "fused_i", 2 + Rand(0, 12));
}

/// The static verifier's verdict on the compute stage's current schedule.
bool verifierAccepts(const Func &F, const std::vector<int64_t> &Extents) {
  int ComputeStage = F.computeStageIndex();
  return !analysis::verifyStageSchedule(F, ComputeStage, Extents)
              .hasErrors();
}

/// The fuzzed kernels: name, problem size (deliberately not powers
/// of two) and the per-kernel seed mix keeping their schedule streams
/// independent.
struct FuzzKernel {
  const char *Name;
  int64_t Size;
  uint32_t SeedScale;
  uint32_t SeedBias;
};

const FuzzKernel FuzzKernels[] = {
    {"matmul", 26, 1u, 0u},
    {"trmm", 21, 7919u, 0u},
    {"tpm", 33, 104729u, 0u},
    {"convlayer", 12, 31u, 5u},
    {"syrk", 27, 104723u, 3u},
};

/// Element-wise engine agreement: integers and doubles bit-exact (both
/// engines do identical int64/double operations in identical order);
/// float32 within a tight relative tolerance (the VM computes float
/// expressions in `float`, the reference walker in `double`).
void expectEnginesMatch(const BufferRef &VM, const BufferRef &Ref,
                        const std::string &Context) {
  ASSERT_EQ(VM.numElements(), Ref.numElements()) << Context;
  if (VM.ElemType == ir::Type::float32()) {
    const float *PV = static_cast<const float *>(VM.Data);
    const float *PR = static_cast<const float *>(Ref.Data);
    for (int64_t I = 0; I != VM.numElements(); ++I)
      ASSERT_NEAR(PV[I], PR[I], 1e-5 * (1.0 + std::fabs(PR[I])))
          << Context << " element " << I;
    return;
  }
  ASSERT_EQ(std::memcmp(VM.Data, Ref.Data,
                        static_cast<size_t>(VM.numElements()) *
                            VM.ElemType.bytes()),
            0)
      << Context;
}

/// The access program's miss profile of \p Instance's schedule must be
/// the one the walker's trace produces, on every built-in platform.
void expectTraceMatchesWalker(const BenchmarkInstance &Instance,
                              const std::string &Context) {
  std::vector<ir::StmtPtr> Lowered = lowerPipeline(Instance);
  std::vector<ArchParams> Archs = {intelI7_5930K(), intelI7_6700(),
                                   armCortexA15()};
  std::vector<WalkerSim> Ref =
      simulateOnWalker(Lowered, Instance.Buffers, Archs);
  for (size_t P = 0; P != Archs.size(); ++P) {
    std::string Where = Context + " on " + Archs[P].Name;
    ErrorOr<SimResult> Sim = simulate(Lowered, Instance.Buffers, Archs[P]);
    ASSERT_TRUE(static_cast<bool>(Sim)) << Where << ": " << Sim.getError();
    EXPECT_EQ(Sim->Accesses, Ref[P].Accesses) << Where;
    EXPECT_TRUE(Sim->Stats == Ref[P].Stats) << Where;
  }
}

/// A schedule draw: applyRandomSchedule or applyRandomFusedSchedule.
using ScheduleDraw = void (*)(Func &, const std::vector<int64_t> &,
                              std::mt19937 &);

/// Applies the same random schedule to two fresh instances of \p Kernel,
/// asks the verifier for a verdict and — when accepted — runs one
/// instance on the VM (threaded, exercising verified-race-free parallel
/// marks) and one on the tree-walking oracle; both must verify against the
/// oracle and agree with each other, and the access program must replay
/// the walker's trace. Returns true when the seed executed, false when
/// the verifier rejected the draw.
bool runDifferential(const FuzzKernel &Kernel, int Seed, ScheduleDraw Draw,
                     const char *DrawName) {
  const BenchmarkDef *Def = findBenchmark(Kernel.Name);
  EXPECT_NE(Def, nullptr) << Kernel.Name;
  if (!Def)
    return false;
  BenchmarkInstance OnVM = Def->Create(Kernel.Size);
  BenchmarkInstance OnRef = Def->Create(Kernel.Size);
  uint32_t Mix =
      static_cast<uint32_t>(Seed) * Kernel.SeedScale + Kernel.SeedBias;
  std::mt19937 RngA(Mix), RngB(Mix);
  Draw(OnVM.Stages[0], OnVM.StageExtents[0], RngA);
  Draw(OnRef.Stages[0], OnRef.StageExtents[0], RngB);
  if (!verifierAccepts(OnVM.Stages[0], OnVM.StageExtents[0]))
    return false;
  EXPECT_EQ(runInterpreted(OnVM, /*RunParallel=*/true), "");
  EXPECT_EQ(walkPipeline(OnRef), "");
  std::string Context = std::string(Kernel.Name) + " " + DrawName +
                        " seed " + std::to_string(Seed);
  EXPECT_TRUE(verifyOutput(OnVM)) << Context << " (vm)";
  EXPECT_TRUE(verifyOutput(OnRef)) << Context << " (reference)";
  expectEnginesMatch(OnVM.Buffers.at(OnVM.OutputName),
                     OnRef.Buffers.at(OnRef.OutputName), Context);
  expectTraceMatchesWalker(OnRef, Context);
  return true;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

/// Per-seed body shared by the kernels: draw until the verifier accepts a
/// schedule (lowering refuses rejected draws), then execute it. A seed
/// fails, not skips, when the redraw budget runs out.
void runSeed(const char *Name, int64_t Size, uint32_t Mix) {
  constexpr int RedrawBudget = 64;
  std::mt19937 Rng(Mix);
  const BenchmarkDef *Def = findBenchmark(Name);
  ASSERT_NE(Def, nullptr) << Name;
  BenchmarkInstance Instance = Def->Create(Size);
  int Rejected = 0;
  for (;;) {
    applyRandomSchedule(Instance.Stages[0], Instance.StageExtents[0], Rng);
    if (verifierAccepts(Instance.Stages[0], Instance.StageExtents[0]))
      break;
    ASSERT_LT(++Rejected, RedrawBudget)
        << Name << " mix " << Mix << ": the verifier rejected every draw";
  }
  std::printf("[fuzz] %s mix %u: 1 schedule accepted, %d rejected\n", Name,
              Mix, Rejected);
  ASSERT_EQ(runInterpreted(Instance), "");
  EXPECT_TRUE(verifyOutput(Instance)) << Name << " mix " << Mix;
}

TEST_P(FuzzSeeds, MatmulAnyScheduleIsCorrect) {
  runSeed("matmul", 26, // not a power of two
          static_cast<uint32_t>(GetParam()));
}

TEST_P(FuzzSeeds, TrmmPredicatedScheduleIsCorrect) {
  runSeed("trmm", 21, static_cast<uint32_t>(GetParam()) * 7919u);
}

TEST_P(FuzzSeeds, TransposeMaskAnyScheduleIsCorrect) {
  runSeed("tpm", 33, static_cast<uint32_t>(GetParam()) * 104729u);
}

TEST_P(FuzzSeeds, ConvLayerAnyScheduleIsCorrect) {
  runSeed("convlayer", 12, static_cast<uint32_t>(GetParam()) * 31u + 5u);
}

TEST_P(FuzzSeeds, SyrkReductionVectorScheduleIsCorrect) {
  runSeed("syrk", 27, // not a multiple of the vector width
          static_cast<uint32_t>(GetParam()) * 104723u + 3u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range(0, fuzzSeedCount()));

// ---- Analytic miss model vs simulator, fuzzed (`model` ctest label). ---

/// Random dividing splits plus a shuffled loop order — the schedule space
/// the autotuner draws from, kept mark-free (vectorize/parallel/unroll do
/// not change the memory traversal the model predicts). Dividing factors
/// keep every reorder legal without a verifier round trip.
void applyRandomTraversal(Func &F, const std::vector<int64_t> &Extents,
                          std::mt19937 &Rng) {
  F.clearSchedules();
  int ComputeStage = F.computeStageIndex();
  StageAccessInfo Info = analyzeStage(F, ComputeStage, Extents);
  Stage S = ComputeStage < 0 ? F.pureStage() : F.update(ComputeStage);
  std::vector<std::string> Order;
  for (const LoopInfo &Loop : Info.Loops) {
    int MaxLog = 0;
    while ((int64_t(1) << (MaxLog + 1)) <= Loop.Extent &&
           Loop.Extent % (int64_t(1) << (MaxLog + 1)) == 0)
      ++MaxLog;
    if (MaxLog >= 3 &&
        std::uniform_int_distribution<int>(0, 1)(Rng)) {
      int Log = std::uniform_int_distribution<int>(3, MaxLog)(Rng);
      S.split(Loop.Name, Loop.Name + "_t", Loop.Name + "_i",
              int64_t(1) << Log);
      Order.push_back(Loop.Name + "_i");
      Order.push_back(Loop.Name + "_t");
    } else {
      Order.push_back(Loop.Name);
    }
  }
  if (Order.size() > 1) {
    std::shuffle(Order.begin() + 1, Order.end(), Rng);
    S.reorder(std::vector<VarName>(Order.begin(), Order.end()));
  }
}

/// The analytic-vs-simulator differential: on every drawn schedule the
/// closed-form miss model either declines with a reason or agrees with
/// the trace-driven simulator within the pinned tolerance (3x relative,
/// or 1024 misses absolute — the slack absorbs streamer training and the
/// simulator's base-address-dependent conflicts; AnalyticModelTest.cpp
/// documents the calibration). Honours LTP_FUZZ_SEEDS like the
/// correctness sweep above.
TEST(ModelSweep, AnalyticVsSimDifferential) {
  struct SweepKernel {
    const char *Name;
    int64_t Size;
    uint32_t SeedScale;
  };
  const SweepKernel Kernels[] = {
      {"matmul", 128, 1u},
      {"doitgen", 48, 7919u},
      {"tpm", 1024, 104729u},
      {"mask", 1024, 31u},
  };
  const ArchParams Arch = intelI7_6700();
  const int Seeds = fuzzSeedCount();
  int Analytic = 0;
  int Declined = 0;
  for (int Seed = 0; Seed != Seeds; ++Seed) {
    for (const SweepKernel &Kernel : Kernels) {
      const BenchmarkDef *Def = findBenchmark(Kernel.Name);
      ASSERT_NE(Def, nullptr) << Kernel.Name;
      BenchmarkInstance Instance = Def->Create(Kernel.Size);
      std::mt19937 Rng(static_cast<uint32_t>(Seed) * Kernel.SeedScale +
                       0x9E37u);
      for (size_t I = 0; I != Instance.Stages.size(); ++I)
        applyRandomTraversal(Instance.Stages[I], Instance.StageExtents[I],
                             Rng);
      std::string Context = std::string(Kernel.Name) + " seed " +
                            std::to_string(Seed);

      model::BufferStrides Strides;
      for (const auto &[BufName, Buf] : Instance.Buffers)
        Strides[BufName] = Buf.Strides;
      double PredL1 = 0.0, PredL2 = 0.0;
      bool Applicable = true;
      std::string WhyNot;
      for (size_t I = 0; I != Instance.Stages.size() && Applicable; ++I) {
        Func &F = Instance.Stages[I];
        bool NT = F.isStoreNonTemporal();
        for (int S = -1; S < F.numUpdates(); ++S) {
          StageAccessInfo Info =
              analyzeStage(F, S, Instance.StageExtents[I]);
          analysis::LegalityReport Legality =
              analysis::verifyStageSchedule(F, S, Instance.StageExtents[I]);
          model::MissPrediction P =
              model::predictMisses(Info, Legality.Nest, Arch, Strides, NT);
          if (!P.Analytic) {
            Applicable = false;
            WhyNot = P.WhyNot;
            break;
          }
          PredL1 += P.L1Misses;
          PredL2 += P.L2Misses;
        }
      }
      if (!Applicable) {
        ++Declined;
        EXPECT_FALSE(WhyNot.empty())
            << Context << ": model declined without a reason";
        continue;
      }
      ++Analytic;
      ErrorOr<SimResult> Sim = simulatePipeline(Instance, Arch);
      ASSERT_TRUE(static_cast<bool>(Sim)) << Context << ": " << Sim.getError();
      const SimResult &R = *Sim;
      auto Within = [](double Pred, double Sim) {
        if (std::fabs(Pred - Sim) <= 1024.0)
          return true;
        if (Sim <= 0.0 || Pred <= 0.0)
          return false;
        double Ratio = Pred / Sim;
        return Ratio <= 3.0 && Ratio >= 1.0 / 3.0;
      };
      EXPECT_TRUE(Within(PredL1,
                         static_cast<double>(R.Stats.L1.DemandMisses)))
          << Context << ": L1 predicted " << PredL1 << " vs simulated "
          << R.Stats.L1.DemandMisses;
      EXPECT_TRUE(Within(PredL2,
                         static_cast<double>(R.Stats.L2.DemandMisses)))
          << Context << ": L2 predicted " << PredL2 << " vs simulated "
          << R.Stats.L2.DemandMisses;
    }
  }
  std::printf("[model] %d schedules predicted analytically, %d declined "
              "to the simulator\n",
              Analytic, Declined);
  EXPECT_GT(Analytic, 0)
      << "the closed form declined every drawn schedule";
}

// The differential oracle: every seed, every kernel, a free and a fused
// draw, both interpreters and the simulator's trace. A plain TEST (not
// TEST_P) so the LTP_FUZZ_SEEDS override takes effect at run time under
// ctest, whose test list is fixed at discovery time. The
// sweep also tallies the verifier's verdicts and fails if every draw was
// rejected — the one-sided agreement check (verifier-accepted implies
// correct execution) is vacuous without executed seeds.
TEST(FuzzSweep, DifferentialVMvsReference) {
  const int Seeds = fuzzSeedCount();
  int Executed = 0;
  int ExecutedFused = 0;
  int Rejected = 0;
  for (int Seed = 0; Seed != Seeds; ++Seed)
    for (const FuzzKernel &Kernel : FuzzKernels)
      for (auto [Draw, DrawName] :
           {std::pair{&applyRandomSchedule, "free"},
            std::pair{&applyRandomFusedSchedule, "fused"}}) {
        if (runDifferential(Kernel, Seed, Draw, DrawName)) {
          ++Executed;
          ExecutedFused += Draw == &applyRandomFusedSchedule;
        } else {
          ++Rejected;
        }
        if (::testing::Test::HasFatalFailure())
          return;
      }
  std::printf("[fuzz] %d schedules executed (%d fused), %d rejected by "
              "the verifier\n",
              Executed, ExecutedFused, Rejected);
  EXPECT_GT(Executed, 0)
      << "the verifier rejected every drawn schedule; it is either "
         "over-conservative or the draw space collapsed";
  EXPECT_GT(ExecutedFused, 0) << "the verifier rejected every fused draw";
}

} // namespace
