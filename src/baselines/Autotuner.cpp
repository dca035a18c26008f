//===- Autotuner.cpp - OpenTuner-style schedule search -------------------===//

#include "baselines/Autotuner.h"

#include "analysis/Legality.h"
#include "analysis/Lint.h"
#include "benchmarks/PipelineRunner.h"
#include "core/AccessInfo.h"
#include "model/MissModel.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "obs/Telemetry.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <random>

using namespace ltp;

namespace {

/// One randomly drawn schedule for one stage.
struct StageDecision {
  /// Tile per pure loop (== extent means untiled).
  std::map<std::string, int64_t> Tiles;
  /// Permutation seed for the middle loops.
  uint32_t OrderSeed = 0;
  bool Parallel = true;
  bool Vectorize = true;
};

using PipelineDecision = std::vector<StageDecision>;

StageDecision drawDecision(const StageAccessInfo &Info, std::mt19937 &Rng,
                           const AutotuneOptions &Options) {
  StageDecision D;
  for (const LoopInfo &Loop : Info.Loops) {
    if (Loop.IsReduction && !Options.TileReductions)
      continue;
    if (Loop.Extent < 16)
      continue;
    // Tile sizes are powers of two between 8 and the extent; "untiled" is
    // one more outcome.
    int MaxLog = 0;
    while ((int64_t(1) << (MaxLog + 1)) <= Loop.Extent)
      ++MaxLog;
    std::uniform_int_distribution<int> Dist(3, MaxLog + 1);
    int Log = Dist(Rng);
    if (Log <= MaxLog)
      D.Tiles[Loop.Name] = int64_t(1) << Log;
  }
  D.OrderSeed = Rng();
  D.Parallel = std::uniform_int_distribution<int>(0, 9)(Rng) != 0;
  D.Vectorize = std::uniform_int_distribution<int>(0, 9)(Rng) != 0;
  return D;
}

/// Applies one decision to one stage.
void applyDecision(Func &F, int StageIndex, const StageAccessInfo &Info,
                   const StageDecision &D, const ArchParams &Arch) {
  Stage S = StageIndex < 0 ? F.pureStage() : F.update(StageIndex);

  // The loop the optimizer streams and vectorizes goes first, so it stays
  // innermost below.
  const std::string Column = Info.streamColumnVar();
  std::vector<const LoopInfo *> Loops;
  for (const LoopInfo &Loop : Info.Loops)
    if (Loop.Name == Column)
      Loops.insert(Loops.begin(), &Loop);
    else
      Loops.push_back(&Loop);

  std::vector<std::string> Intra;
  std::vector<std::string> Inter;
  for (const LoopInfo *Loop : Loops) {
    auto It = D.Tiles.find(Loop->Name);
    bool Tiled = It != D.Tiles.end() && It->second < Loop->Extent;
    if (Tiled) {
      S.split(Loop->Name, Loop->Name + "_t", Loop->Name + "_i", It->second);
      Intra.push_back(Loop->Name + "_i");
      Inter.push_back(Loop->Name + "_t");
    } else {
      Intra.push_back(Loop->Name);
    }
  }

  // Shuffle the loops except the innermost (kept for vectorization) and
  // the outermost inter-tile loop (kept for parallelism).
  std::mt19937 OrderRng(D.OrderSeed);
  if (Intra.size() > 1)
    std::shuffle(Intra.begin() + 1, Intra.end(), OrderRng);
  if (Inter.size() > 1)
    std::shuffle(Inter.begin(), Inter.end() - 1, OrderRng);

  std::vector<VarName> Order;
  for (const std::string &Name : Intra)
    Order.push_back(Name);
  for (const std::string &Name : Inter)
    Order.push_back(Name);
  if (Order.size() > 1)
    S.reorder(Order);

  if (D.Parallel && Arch.NCores > 1 && !Order.empty()) {
    // Parallelize the outermost loop of the final order most of the time,
    // occasionally any loop. The draw is purity-blind: illegal picks (a
    // dependence-carrying reduction loop, say) are discarded by the
    // static verifier before compilation, the way OpenTuner discards
    // invalid configurations instead of steering the generator around
    // them.
    size_t Pick = Order.size() - 1;
    if (std::uniform_int_distribution<int>(0, 9)(OrderRng) < 3)
      Pick = std::uniform_int_distribution<size_t>(0, Order.size() - 1)(
          OrderRng);
    S.parallel(Order[Pick]);
  }
  if (D.Vectorize && Arch.VectorWidth > 1 && !Order.empty()) {
    // Mostly the innermost (stream) loop, occasionally any loop. Like the
    // parallel draw this is purity-blind; a vectorize drawn on a
    // dependence-carrying reduction loop is pruned statically.
    if (std::uniform_int_distribution<int>(0, 9)(OrderRng) < 3) {
      size_t Pick = std::uniform_int_distribution<size_t>(0, Order.size() - 1)(
          OrderRng);
      S.vectorize(Order[Pick]);
    } else {
      const int64_t Extent = Loops.front()->Extent;
      auto It = D.Tiles.find(Column);
      bool Tiled = It != D.Tiles.end() && It->second < Extent;
      if ((Tiled ? It->second : Extent) >= Arch.VectorWidth)
        S.vectorize(Intra.front());
    }
  }
}

void applyPipelineDecision(BenchmarkInstance &Instance,
                           const PipelineDecision &Decision,
                           const ArchParams &Arch) {
  for (size_t I = 0; I != Instance.Stages.size(); ++I) {
    Func &F = Instance.Stages[I];
    F.clearSchedules();
    int ComputeStage = F.computeStageIndex();
    StageAccessInfo Info =
        analyzeStage(F, ComputeStage, Instance.StageExtents[I]);
    applyDecision(F, ComputeStage, Info, Decision[I], Arch);
  }
}

std::string describeDecision(const PipelineDecision &Decision) {
  std::vector<std::string> Parts;
  for (const StageDecision &D : Decision) {
    std::vector<std::string> Tiles;
    for (const auto &[Var, T] : D.Tiles)
      Tiles.push_back(strFormat("%s=%lld", Var.c_str(),
                                static_cast<long long>(T)));
    Parts.push_back("{" + join(Tiles, ",") + "}");
  }
  return join(Parts, " ; ");
}

} // namespace

AutotuneOutcome ltp::autotune(BenchmarkInstance &Instance,
                              JITCompiler &Compiler,
                              const AutotuneOptions &Options) {
  obs::ScopedSpan Span("autotune.search");
  static obs::Counter &EvaluatedCounter = obs::counter("autotune.evaluated");
  static obs::Counter &PrunedCounter = obs::counter("autotune.pruned");
  static obs::Counter &FailedCounter = obs::counter("autotune.failed");
  static obs::Counter &ModelPrunedCounter =
      obs::counter("autotune.pruned.model");
  static obs::Counter &LintPrunedCounter =
      obs::counter("opt.candidates.lint_pruned");
  static obs::Counter &PredictAnalytic =
      obs::counter("model.predict.analytic");
  std::mt19937 Rng(Options.Seed);
  const ArchParams &Arch = detectHost();
  Timer Budget;

  AutotuneOutcome Outcome;
  PipelineDecision BestDecision;

  // Under --explain, every lint-pruned candidate and every new best is
  // logged with its reason so the search is auditable like the optimizer.
  const bool Explain = obs::explainEnabled();
  if (Explain)
    obs::beginDecision(Instance.Stages.back().name(), "autotune");

  const bool ModelPruning = Options.ModelKeepFraction < 1.0;
  model::BufferStrides Strides;
  for (const auto &[Name, Buf] : Instance.Buffers)
    Strides[Name] = Buf.Strides;

  // Predicted weighted misses (Eq. 11 weights) for the candidate whose
  // schedules are currently applied to the instance, over the nests its
  // legality reports replayed, or nothing when the closed form declines a
  // stage. Nothing is simulated: a candidate without a score is never
  // model-pruned.
  auto ScoreCandidate = [&](const std::vector<analysis::LegalityReport>
                                &StageLegality) -> std::optional<double> {
    double Score = 0.0;
    for (size_t I = 0; I != Instance.Stages.size(); ++I) {
      const Func &F = Instance.Stages[I];
      StageAccessInfo Info = analyzeStage(F, F.computeStageIndex(),
                                          Instance.StageExtents[I]);
      model::MissPrediction P = model::predictMisses(
          Info, StageLegality[I].Nest, Arch, Strides);
      if (!P.Analytic)
        return std::nullopt;
      Score += Arch.A2 * P.L1Misses + Arch.A3 * P.L2Misses;
    }
    PredictAnalytic.add();
    ++Outcome.ScoredAnalytic;
    return Score;
  };

  // Candidates are drawn and compiled in batches: compilePipelines fans
  // the cold cc invocations across the thread pool, then each candidate
  // is timed serially. The draw order (and thus, under MaxCandidates,
  // the candidate set) is identical to the one-at-a-time search.
  int Drawn = 0;
  while (Budget.elapsedSeconds() < Options.BudgetSeconds &&
         (Options.MaxCandidates == 0 || Drawn < Options.MaxCandidates)) {
    int BatchN = std::max(1, Options.BatchSize);
    if (Options.MaxCandidates > 0)
      BatchN = std::min(BatchN, Options.MaxCandidates - Drawn);

    struct Ranked {
      PipelineDecision Decision;
      std::optional<double> Score;
    };
    std::vector<Ranked> Legal;
    for (int B = 0; B != BatchN; ++B) {
      PipelineDecision Decision;
      for (size_t I = 0; I != Instance.Stages.size(); ++I) {
        Func &F = Instance.Stages[I];
        int ComputeStage = F.computeStageIndex();
        StageAccessInfo Info =
            analyzeStage(F, ComputeStage, Instance.StageExtents[I]);
        Decision.push_back(drawDecision(Info, Rng, Options));
      }
      applyPipelineDecision(Instance, Decision, Arch);
      // Static legality pruning: drop candidates the verifier rejects
      // before spending a compilation on them. The per-stage reports are
      // kept for reuse by the lint pass below.
      std::vector<analysis::LegalityReport> StageLegality(
          Instance.Stages.size());
      bool Illegal = false;
      for (size_t I = 0; I != Instance.Stages.size() && !Illegal; ++I) {
        const Func &F = Instance.Stages[I];
        int ComputeStage = F.computeStageIndex();
        StageLegality[I] = analysis::verifyStageSchedule(
            F, ComputeStage, Instance.StageExtents[I]);
        Illegal = StageLegality[I].hasErrors();
      }
      if (Illegal) {
        ++Outcome.CandidatesPruned;
        PrunedCounter.add();
        continue;
      }
      // Lint pruning: drop legal candidates a static diagnostic of Error
      // severity marks as prefetcher-hostile (an oversized tile, a
      // scattering vectorize) before spending a compilation on them.
      if (Options.LintPrune) {
        std::string LintRule;
        for (size_t I = 0; I != Instance.Stages.size() && LintRule.empty();
             ++I) {
          Func &F = Instance.Stages[I];
          int ComputeStage = F.computeStageIndex();
          lint::LintOptions LintOpts;
          LintOpts.PrecomputedLegality = &StageLegality[I];
          lint::LintReport Report = lint::lintStageSchedule(
              F, ComputeStage, Instance.StageExtents[I], Arch, LintOpts);
          for (const lint::Diagnostic &D : Report.Diagnostics)
            if (D.Sev == analysis::Severity::Error) {
              LintRule = D.RuleId;
              break;
            }
        }
        if (!LintRule.empty()) {
          ++Outcome.CandidatesLintPruned;
          LintPrunedCounter.add();
          if (Explain) {
            obs::CandidateRecord Rec;
            Rec.Candidate = describeDecision(Decision);
            Rec.Reason = "lint: " + LintRule;
            obs::recordCandidate(std::move(Rec));
          }
          continue;
        }
      }
      Ranked R;
      if (ModelPruning)
        R.Score = ScoreCandidate(StageLegality);
      R.Decision = std::move(Decision);
      Legal.push_back(std::move(R));
    }
    Drawn += BatchN;

    // Miss-model ranking: compile only the most promising fraction of the
    // scored candidates; unscored ones sort after them and are all kept.
    // The stable sort keeps the draw order on ties, so the search stays a
    // deterministic function of the seed.
    const size_t Scored = static_cast<size_t>(
        std::count_if(Legal.begin(), Legal.end(),
                      [](const Ranked &R) { return R.Score.has_value(); }));
    if (ModelPruning && Scored > 1) {
      size_t Keep = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(
                 static_cast<double>(Scored) *
                 std::max(0.0, Options.ModelKeepFraction))));
      if (Keep < Scored) {
        std::stable_sort(Legal.begin(), Legal.end(),
                         [](const Ranked &A, const Ranked &B) {
                           return A.Score &&
                                  (!B.Score || *A.Score < *B.Score);
                         });
        int Dropped = static_cast<int>(Scored - Keep);
        Outcome.CandidatesModelPruned += Dropped;
        ModelPrunedCounter.add(Dropped);
        Legal.erase(Legal.begin() + static_cast<std::ptrdiff_t>(Keep),
                    Legal.begin() + static_cast<std::ptrdiff_t>(Scored));
      }
    }

    std::vector<PipelineDecision> Batch;
    std::vector<PipelineCompileJob> Jobs;
    for (Ranked &R : Legal) {
      applyPipelineDecision(Instance, R.Decision, Arch);
      Jobs.push_back(makeCompileJob(Instance));
      Batch.push_back(std::move(R.Decision));
    }

    std::vector<ErrorOr<CompiledPipeline>> Compiled =
        compilePipelines(Jobs, Compiler);
    for (size_t B = 0; B != Batch.size(); ++B) {
      if (!Compiled[B]) {
        ++Outcome.CandidatesFailed;
        FailedCounter.add();
        continue;
      }
      double Seconds = timeBestOf(
          static_cast<unsigned>(std::max(1, Options.RunsPerCandidate)),
          [&] { Compiled[B]->run(Instance); });
      ++Outcome.CandidatesEvaluated;
      EvaluatedCounter.add();
      if (Outcome.BestSeconds < 0.0 || Seconds < Outcome.BestSeconds) {
        Outcome.BestSeconds = Seconds;
        BestDecision = Batch[B];
        if (Explain) {
          obs::CandidateRecord Rec;
          Rec.Candidate = describeDecision(Batch[B]);
          Rec.Accepted = true;
          Rec.Reason = strFormat("best so far (%.3f ms)", Seconds * 1e3);
          obs::recordCandidate(std::move(Rec));
        }
      }
    }
  }

  if (!BestDecision.empty()) {
    applyPipelineDecision(Instance, BestDecision, Arch);
    Outcome.BestDescription = describeDecision(BestDecision);
  }
  if (Explain)
    obs::endDecision(Outcome.BestDescription.empty()
                         ? "no candidate evaluated"
                         : Outcome.BestDescription);
  if (obs::metricsEnabled()) {
    static obs::Histogram &SearchHist = obs::histogram("autotune.search_ms");
    SearchHist.observe(Budget.elapsedMillis());
  }
  return Outcome;
}
