//===- Lint.cpp - static prefetch-efficiency diagnostics ------------------===//

#include "analysis/Lint.h"

#include "core/AccessInfo.h"
#include "core/Classifier.h"
#include "lang/ScheduleText.h"
#include "model/CacheEmu.h"
#include "obs/Log.h"
#include "support/Format.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ltp;
using namespace ltp::lint;

namespace {

using analysis::NestJam;
using analysis::NestLoop;
using analysis::NestMark;

//===----------------------------------------------------------------------===//
// Access strides
//===----------------------------------------------------------------------===//

/// Stride of \p A along one step of a loop over \p Origin: the dimension-0
/// index delta in elements, plus whether any higher (row) dimension moves
/// too (which makes the effective stride at least a row).
struct AccessStride {
  bool Moves = false;
  bool RowJump = false;
  int64_t Dim0 = 0;
};

AccessStride strideAlong(const ArrayAccess &A, const std::string &Origin,
                         int64_t Step) {
  AccessStride S;
  if (Origin.empty())
    return S;
  for (size_t DimIdx = 0; DimIdx != A.Index.size(); ++DimIdx) {
    const AffineIndex &Idx = A.Index[DimIdx];
    if (!Idx.IsAffine) {
      // Unknown movement: conservatively a row jump if the variable
      // appears at all.
      if (Idx.vars().contains(Origin)) {
        S.Moves = true;
        S.RowJump = true;
      }
      continue;
    }
    auto It = Idx.Coeffs.find(Origin);
    if (It == Idx.Coeffs.end() || It->second == 0)
      continue;
    S.Moves = true;
    if (DimIdx == 0)
      S.Dim0 = It->second * Step;
    else
      S.RowJump = true;
  }
  return S;
}

bool unitForward(const AccessStride &S) {
  return S.Moves && !S.RowJump && S.Dim0 == 1;
}

//===----------------------------------------------------------------------===//
// Diagnostics plumbing
//===----------------------------------------------------------------------===//

/// Everything the rule implementations share.
struct LintContext {
  LintReport &Report;
  const std::string &Text;
  const std::vector<ScheduleSpan> &Spans;
  const std::vector<ScheduleDirective> &Dirs;
  const StageAccessInfo &Info;
  const ArchParams &Arch;
  const LintOptions &Options;
  const analysis::LegalityReport &Legality;
  /// The legality verifier's replay of the schedule.
  const analysis::ScheduledNest &Nest;
  const Classification &Class;

  /// Span of the unit that produced directive \p DirIndex; whole-text
  /// span when the directive came from outside the text.
  ScheduleSpan unitOf(int DirIndex) const {
    for (const ScheduleSpan &S : Spans)
      if (DirIndex >= S.FirstDirective && DirIndex <= S.LastDirective)
        return S;
    return {0, Text.size(), 0, -1};
  }

  /// True when unit \p S maps one-to-one onto a single directive, so
  /// deleting the unit deletes exactly that directive.
  static bool soleDirective(const ScheduleSpan &S) {
    return S.FirstDirective == S.LastDirective;
  }

  Diagnostic &add(const char *RuleId, analysis::Severity Sev, size_t Offset,
                  size_t Length, std::string Message) {
    Diagnostic D;
    D.RuleId = RuleId;
    D.Sev = Sev;
    D.Offset = Offset;
    D.Length = Length;
    D.Message = std::move(Message);
    Report.Diagnostics.push_back(std::move(D));
    return Report.Diagnostics.back();
  }

  int64_t extentOf(const std::string &Origin) const {
    for (const LoopInfo &Loop : Info.Loops)
      if (Loop.Name == Origin)
        return Loop.Extent;
    return 0;
  }

  /// True when a fuse merged two loops (some loop is fused).
  bool hasFuse() const {
    return std::any_of(Nest.Loops.begin(), Nest.Loops.end(),
                       [](const NestLoop &L) { return L.Fused; });
  }

  /// The outermost surviving dim of \p Origin (nullptr when none).
  const NestLoop *outermostOf(const std::string &Origin) const {
    for (auto It = Nest.Loops.rbegin(); It != Nest.Loops.rend(); ++It)
      if (It->Origin == Origin)
        return &*It;
    return nullptr;
  }

  /// The inter-tile dim of \p Origin: its outermost dim when that dim was
  /// produced by a real (non-jam) split and actually iterates.
  const NestLoop *interDimOf(const std::string &Origin) const {
    const NestLoop *D = outermostOf(Origin);
    if (!D || D->Fused || D->JamInner || D->JamOuter || D->Stride <= 1 ||
        D->Trip <= 1)
      return nullptr;
    return D;
  }

  /// The intra-tile width of \p Origin: the inter-tile stride when tiled,
  /// the full extent otherwise.
  int64_t tileOf(const std::string &Origin) const {
    const NestLoop *D = interDimOf(Origin);
    return D ? D->Stride : extentOf(Origin);
  }
};

//===----------------------------------------------------------------------===//
// Rules
//===----------------------------------------------------------------------===//

/// strided-innermost: no access advances unit-stride (+1 element) along
/// the innermost iterating loop, so the L1 next-line prefetcher (and the
/// L2 streamer's line-sequential trains) never engage.
void checkStridedInnermost(LintContext &C) {
  const NestLoop *Inner = nullptr;
  for (const NestLoop &D : C.Nest.Loops)
    if (D.Trip > 1 && !D.JamInner) {
      Inner = &D;
      break;
    }
  if (!Inner || Inner->Fused)
    return;

  bool AnyMoves = false;
  bool AnyUnit = false;
  AccessStride OutStride;
  for (const ArrayAccess &A : C.Info.Accesses) {
    AccessStride S = strideAlong(A, Inner->Origin, Inner->Stride);
    if (A.IsOutput)
      OutStride = S;
    AnyMoves |= S.Moves;
    AnyUnit |= unitForward(S);
  }
  if (!AnyMoves || AnyUnit)
    return;

  // Anchor on the unit that decided the final order when there is one.
  ScheduleSpan Span{0, C.Text.size(), 0, -1};
  for (const ScheduleSpan &S : C.Spans)
    if (S.FirstDirective <= S.LastDirective)
      Span = S; // fall through to the last unit; refined below
  for (auto It = C.Spans.rbegin(); It != C.Spans.rend(); ++It) {
    bool IsReorder = false;
    // A reorder unit is identifiable from the text itself.
    if (C.Text.compare(It->Offset, 7, "reorder") == 0)
      IsReorder = true;
    if (IsReorder) {
      Span = *It;
      break;
    }
  }

  std::string Msg;
  if (OutStride.Moves && !OutStride.RowJump && OutStride.Dim0 < 0)
    Msg = strFormat("innermost loop '%s' walks the output backwards "
                    "(stride %lld elements); the %s next-line prefetcher "
                    "only runs forward",
                    Inner->Name.c_str(),
                    static_cast<long long>(OutStride.Dim0),
                    C.Arch.Name.c_str());
  else
    Msg = strFormat(
        "no access is unit-stride along innermost loop '%s' (origin '%s', "
        "step %lld); every reference defeats the adjacent-line prefetcher",
        Inner->Name.c_str(), Inner->Origin.c_str(),
        static_cast<long long>(Inner->Stride));
  Diagnostic &D = C.add("strided-innermost", analysis::Severity::Error,
                        Span.Offset, Span.Length, std::move(Msg));

  // Fix-it: bring the loop that makes the most accesses unit-stride
  // innermost via an appended full-order reorder.
  const NestLoop *Best = nullptr;
  int BestScore = 0;
  for (const NestLoop &Cand : C.Nest.Loops) {
    if (Cand.Trip <= 1 || Cand.JamInner || Cand.Fused)
      continue;
    int Score = 0;
    for (const ArrayAccess &A : C.Info.Accesses) {
      AccessStride S = strideAlong(A, Cand.Origin, Cand.Stride);
      if (unitForward(S))
        Score += A.IsOutput ? 2 : 1;
    }
    if (Score > BestScore) {
      BestScore = Score;
      Best = &Cand;
    }
  }
  if (!Best)
    return;
  std::vector<std::string> Order;
  Order.push_back(Best->Name);
  for (const NestLoop &Dm : C.Nest.Loops)
    if (&Dm != Best)
      Order.push_back(Dm.Name);
  D.HasFixIt = true;
  D.Fix.Offset = C.Text.size();
  D.Fix.Length = 0;
  D.Fix.Replacement = (C.Text.empty() ? "" : " ") + std::string("reorder(") +
                      join(Order, ", ") + ");";
}

/// vectorize-noncontiguous: a vectorize mark on a loop along which some
/// access neither stays put nor advances +1 element per lane (the
/// optimizer's contiguity predicate): its lanes gather or scatter instead
/// of streaming one cache line. A store that stays put is a reduction
/// into one element, which the back end vectorizes with partial sums. A
/// transposed input of a spatial-reuse stage is exempt: it cannot stream
/// along any loop the output does, and the spatial tiling is what keeps
/// its gathered lines cached (Section 3.3).
void checkVectorizeNoncontiguous(LintContext &C) {
  auto Checked = [&](const ArrayAccess &A) {
    return C.Class.Kind != StatementClass::SpatialReuse ||
           std::find(C.Class.TransposedInputs.begin(),
                     C.Class.TransposedInputs.end(),
                     A.Buffer) == C.Class.TransposedInputs.end();
  };
  auto Contiguous = [&](const ArrayAccess &A, const NestLoop &D) {
    return !Checked(A) || A.contiguousAlong(D.Origin, D.Stride);
  };
  auto AllContiguous = [&](const NestLoop &D) {
    return std::all_of(
        C.Info.Accesses.begin(), C.Info.Accesses.end(),
        [&](const ArrayAccess &A) { return Contiguous(A, D); });
  };
  for (const NestMark &M : C.Nest.Marks) {
    if (M.Kind != MarkDirective::Kind::Vectorize)
      continue;
    int Pos = C.Nest.find(M.Name);
    if (Pos < 0)
      continue; // dead mark; the dead-directive rule reports it
    const NestLoop &D = C.Nest.Loops[static_cast<size_t>(Pos)];
    if (D.Fused)
      continue;
    auto Bad = std::find_if(
        C.Info.Accesses.begin(), C.Info.Accesses.end(),
        [&](const ArrayAccess &A) { return !Contiguous(A, D); });
    if (Bad == C.Info.Accesses.end())
      continue;
    AccessStride S = strideAlong(*Bad, D.Origin, D.Stride);
    ScheduleSpan Span = C.unitOf(M.DirIndex);
    std::string How =
        S.RowJump ? std::string("jumps at least a full row per lane")
                  : strFormat("advances %lld elements per lane",
                              static_cast<long long>(S.Dim0));
    Diagnostic &Diag = C.add(
        "vectorize-noncontiguous", analysis::Severity::Error, Span.Offset,
        Span.Length,
        strFormat("vectorize(%s): the %s '%s' %s; %d-wide lanes %s instead "
                  "of filling one cache line",
                  M.Name.c_str(), Bad->IsOutput ? "store to" : "load from",
                  Bad->Buffer.c_str(), How.c_str(), C.Arch.VectorWidth,
                  Bad->IsOutput ? "scatter" : "gather"));

    // Fix-it: retarget the mark at a loop every access is contiguous along
    // and wide enough for the vector width: one the store streams along
    // first, else a reduction loop the store stays put on.
    const NestLoop *Target = nullptr;
    for (const NestLoop &Cand : C.Nest.Loops) {
      if (Cand.JamInner || Cand.Fused || Cand.Trip < C.Arch.VectorWidth ||
          !AllContiguous(Cand))
        continue;
      if (strideAlong(C.Info.Accesses.front(), Cand.Origin, Cand.Stride)
              .Moves) {
        Target = &Cand;
        break;
      }
      if (!Target)
        Target = &Cand;
    }
    if (!Target)
      continue;
    Diag.HasFixIt = true;
    Diag.Fix.Offset = Span.Offset;
    Diag.Fix.Length = Span.Length;
    Diag.Fix.Replacement = "vectorize(" + Target->Name + ")";
  }
}

/// tile-exceeds-bound: a reuse-pivot tile larger than the Algorithm-1
/// bound makes successive tile rows interfere in the cache the tiling is
/// supposed to exploit, re-introducing the conflict misses the model
/// priced out. The bound is algorithm1Bound, the same call the temporal
/// and spatial optimizers bound their searches with, so optimizer-chosen
/// schedules are always clean.
void checkTileBounds(LintContext &C) {
  if (C.hasFuse() || C.Info.Loops.size() < 2)
    return;

  // The column loop each optimizer bounds its rows by: the temporal
  // optimizer streams streamColumnVar(), the spatial one the output's.
  const std::string Column = C.Class.Kind == StatementClass::TemporalReuse
                                 ? C.Info.streamColumnVar()
                                 : C.Info.outputColumnVar();
  if (C.Class.Kind == StatementClass::TemporalReuse) {
    const int64_t Bc = C.extentOf(Column);
    if (Bc <= 0)
      return;
    int64_t MaxExtent = 1;
    for (const LoopInfo &Loop : C.Info.Loops)
      MaxExtent = std::max(MaxExtent, Loop.Extent);
    const int64_t Tc = std::min(C.tileOf(Column), Bc);

    const int64_t MaxT1 =
        algorithm1Bound(C.Arch, EmuLevel::L1, C.Info.DTS, Tc, Bc, MaxExtent);
    const int64_t MaxT2 =
        algorithm1Bound(C.Arch, EmuLevel::L2, C.Info.DTS, Tc, Bc, MaxExtent);

    // u: outermost intra-tile loop (L1 reuse pivot); v: innermost
    // inter-tile loop (L2 reuse pivot) — identified from the final nest
    // the way the optimizer's search treats them. Small loops are
    // ignored, matching TemporalOptions::SmallLoopExtent.
    std::string U;
    for (auto It = C.Nest.Loops.rbegin(); It != C.Nest.Loops.rend(); ++It) {
      const NestLoop &D = *It;
      if (D.Fused || D.JamInner || D.Trip <= 1 || D.Origin == Column)
        continue;
      if (C.interDimOf(D.Origin) == &D)
        continue; // inter-tile loop
      if (C.extentOf(D.Origin) <= C.Options.SmallLoopExtent)
        continue;
      U = D.Origin;
      break;
    }
    std::string V;
    for (const NestLoop &D : C.Nest.Loops)
      if (C.interDimOf(D.Origin) == &D) {
        V = D.Origin;
        break;
      }

    auto FireClamp = [&](const std::string &Origin, int64_t Tile,
                         int64_t Bound, const char *Level) {
      const NestLoop *Inter = C.interDimOf(Origin);
      if (!Inter || Inter->CreatedBy < 0)
        return;
      ScheduleSpan Span = C.unitOf(Inter->CreatedBy);
      Diagnostic &D = C.add(
          "tile-exceeds-bound", analysis::Severity::Error, Span.Offset,
          Span.Length,
          strFormat("tile of '%s' is %lld but Algorithm 1 bounds "
                    "interference-free %s rows at %lld (row stride %lld, "
                    "column tile %lld); tile rows evict each other",
                    Origin.c_str(), static_cast<long long>(Tile), Level,
                    static_cast<long long>(Bound),
                    static_cast<long long>(Bc),
                    static_cast<long long>(Tc)));
      const auto *Split = std::get_if<SplitDirective>(
          &C.Dirs[static_cast<size_t>(Inter->CreatedBy)]);
      if (!Split || Bound < 1)
        return;
      D.HasFixIt = true;
      D.Fix.Offset = Span.Offset;
      D.Fix.Length = Span.Length;
      D.Fix.Replacement =
          strFormat("split(%s, %s, %s, %lld)", Split->Old.c_str(),
                    Split->Outer.c_str(), Split->Inner.c_str(),
                    static_cast<long long>(Bound));
    };

    if (!U.empty() && C.interDimOf(U)) {
      int64_t TU = C.tileOf(U);
      int64_t Bound = (U == V) ? std::min(MaxT1, MaxT2) : MaxT1;
      if (TU > Bound)
        FireClamp(U, TU, Bound, U == V ? "L1/L2" : "L1");
    }
    if (!V.empty() && V != U) {
      int64_t TV = V == Column ? Tc : C.tileOf(V);
      if (TV > MaxT2)
        FireClamp(V, TV, MaxT2, "L2");
    }
    return;
  }

  if (C.Class.Kind == StatementClass::SpatialReuse &&
      C.Info.Loops.size() == 2 && !C.Class.TransposedInputs.empty()) {
    std::string RowVar;
    for (const LoopInfo &Loop : C.Info.Loops)
      if (Loop.Name != Column)
        RowVar = Loop.Name;
    const NestLoop *Inter = C.interDimOf(RowVar);
    if (!Inter || Inter->CreatedBy < 0)
      return; // untiled spatial nest: nothing to clamp
    const int64_t By = C.extentOf(RowVar);
    const int64_t Tx = std::min(C.tileOf(Column), C.extentOf(Column));
    const int64_t Ty = Inter->Stride;

    // The transposed array's contiguous dim is the row loop.
    const int64_t MaxTy =
        algorithm1Bound(C.Arch, EmuLevel::L2, C.Info.DTS, Tx, By, By);
    if (Ty <= MaxTy)
      return;

    ScheduleSpan Span = C.unitOf(Inter->CreatedBy);
    Diagnostic &D = C.add(
        "tile-exceeds-bound", analysis::Severity::Error, Span.Offset,
        Span.Length,
        strFormat("transposed-input tile of '%s' is %lld but Algorithm 1 "
                  "bounds interference-free stride-%lld rows in the L2 at "
                  "%lld (column tile %lld)",
                  RowVar.c_str(), static_cast<long long>(Ty),
                  static_cast<long long>(By),
                  static_cast<long long>(MaxTy),
                  static_cast<long long>(Tx)));
    const auto *Split = std::get_if<SplitDirective>(
        &C.Dirs[static_cast<size_t>(Inter->CreatedBy)]);
    if (!Split || MaxTy < 1)
      return;
    D.HasFixIt = true;
    D.Fix.Offset = Span.Offset;
    D.Fix.Length = Span.Length;
    D.Fix.Replacement =
        strFormat("split(%s, %s, %s, %lld)", Split->Old.c_str(),
                  Split->Outer.c_str(), Split->Inner.c_str(),
                  static_cast<long long>(MaxTy));
  }
}

/// streamer-oversubscription: each access that moves inside the tile is
/// one constant-stride train per unroll_jam copy; past the tracker's
/// capacity the streamer thrashes its own table and stops prefetching.
void checkStreamerOversubscription(LintContext &C) {
  if (C.hasFuse())
    return;
  size_t IntraEnd = C.Nest.Loops.size();
  for (size_t I = 0; I != C.Nest.Loops.size(); ++I)
    if (C.interDimOf(C.Nest.Loops[I].Origin) == &C.Nest.Loops[I]) {
      IntraEnd = I;
      break;
    }
  std::set<std::string> MovingOrigins;
  for (size_t I = 0; I != IntraEnd; ++I)
    if (C.Nest.Loops[I].Trip > 1 && !C.Nest.Loops[I].Fused)
      MovingOrigins.insert(C.Nest.Loops[I].Origin);
  if (MovingOrigins.empty())
    return;

  std::map<std::string, int64_t> JamCopies;
  for (const NestJam &J : C.Nest.Jams)
    JamCopies[J.Origin] =
        (JamCopies.contains(J.Origin) ? JamCopies[J.Origin] : 1) * J.Copies;

  int64_t Trains = 0;
  int64_t LastJamContribution = 0; // trains multiplied by the last jam
  const NestJam *LastJam =
      C.Nest.Jams.empty() ? nullptr : &C.Nest.Jams.back();
  for (const ArrayAccess &A : C.Info.Accesses) {
    std::set<std::string> Vars = A.indexVars();
    bool Moves = false;
    for (const std::string &O : MovingOrigins)
      if (Vars.contains(O))
        Moves = true;
    if (!Moves)
      continue;
    int64_t Copies = 1;
    for (const auto &[Origin, Factor] : JamCopies)
      if (Vars.contains(Origin))
        Copies *= Factor;
    Trains += Copies;
    if (LastJam && Vars.contains(LastJam->Origin))
      LastJamContribution += Copies;
  }
  if (Trains <= C.Arch.L2StreamerTrains)
    return;

  ScheduleSpan Span{0, C.Text.size(), 0, -1};
  if (LastJam)
    Span = C.unitOf(LastJam->DirIndex);
  Diagnostic &D = C.add(
      "streamer-oversubscription", analysis::Severity::Warning, Span.Offset,
      Span.Length,
      strFormat("the tile body walks %lld concurrent streams but the L2 "
                "streamer tracks %d trains; excess streams evict tracker "
                "entries and lose prefetching",
                static_cast<long long>(Trains), C.Arch.L2StreamerTrains));
  if (!LastJam || LastJamContribution == 0)
    return;
  // Shrinking the last jam scales its streams linearly; pick the largest
  // power-of-two factor that fits the tracker.
  int64_t Fixed = Trains - LastJamContribution;
  int64_t PerFactor = LastJamContribution / LastJam->Copies;
  int64_t MaxFactor =
      PerFactor > 0 ? (C.Arch.L2StreamerTrains - Fixed) / PerFactor : 0;
  int64_t NewF = 0;
  for (int64_t F = 2; F <= MaxFactor && F < LastJam->Copies; F *= 2)
    NewF = F;
  ScheduleSpan JamSpan = C.unitOf(LastJam->DirIndex);
  if (!LintContext::soleDirective(JamSpan))
    return;
  D.HasFixIt = true;
  D.Fix.Offset = JamSpan.Offset;
  D.Fix.Length = JamSpan.Length;
  if (NewF >= 2)
    D.Fix.Replacement = strFormat("unroll_jam(%s, %lld)",
                                  LastJam->Loop.c_str(),
                                  static_cast<long long>(NewF));
  else if (Fixed + PerFactor <= C.Arch.L2StreamerTrains)
    D.Fix.Replacement.clear(); // drop the jam entirely
  else
    D.HasFixIt = false;
}

/// unrolljam-spill: the jammed copies each pin a (vector) accumulator
/// register; together with one register per distinct input stream and a
/// scratch register they must fit the architectural register file or the
/// compiler spills the accumulators to the stack every iteration.
void checkUnrollJamSpill(LintContext &C) {
  if (C.Nest.Jams.empty())
    return;
  int64_t Copies = 1;
  for (const NestJam &J : C.Nest.Jams)
    Copies *= J.Copies;
  const int64_t Inputs =
      static_cast<int64_t>(C.Info.Accesses.size()) - 1;
  const int64_t Regs = Copies + Inputs + 1;
  if (Regs <= C.Arch.VectorRegisters)
    return;

  const NestJam &Last = C.Nest.Jams.back();
  ScheduleSpan Span = C.unitOf(Last.DirIndex);
  Diagnostic &D = C.add(
      "unrolljam-spill", analysis::Severity::Warning, Span.Offset,
      Span.Length,
      strFormat("%lld jammed accumulator copies + %lld input streams + 1 "
                "scratch need %lld vector registers but the ISA has %d; "
                "the accumulators spill",
                static_cast<long long>(Copies),
                static_cast<long long>(Inputs),
                static_cast<long long>(Regs), C.Arch.VectorRegisters));
  if (!LintContext::soleDirective(Span))
    return;
  const int64_t Others = Copies / Last.Copies;
  const int64_t Budget = C.Arch.VectorRegisters - Inputs - 1;
  const int64_t MaxFactor = Others > 0 ? Budget / Others : 0;
  int64_t NewF = 0;
  for (int64_t F = 2; F <= MaxFactor && F < Last.Copies; F *= 2)
    NewF = F;
  D.HasFixIt = true;
  D.Fix.Offset = Span.Offset;
  D.Fix.Length = Span.Length;
  if (NewF >= 2)
    D.Fix.Replacement = strFormat("unroll_jam(%s, %lld)", Last.Loop.c_str(),
                                  static_cast<long long>(NewF));
  else if (Others + Inputs + 1 <= C.Arch.VectorRegisters)
    D.Fix.Replacement.clear();
  else
    D.HasFixIt = false;
}

/// nt-store-reuse: surfaced from the legality verifier's stage-level
/// warning (it already consults the dependence graph for re-reads).
void checkNtStoreReuse(LintContext &C) {
  for (const analysis::DirectiveVerdict &V : C.Legality.Verdicts) {
    if (V.Legal || V.Index != -1 || V.Directive != "store_nontemporal")
      continue;
    // The store_nontemporal unit is the span that produced no directive.
    const ScheduleSpan *NtSpan = nullptr;
    for (const ScheduleSpan &S : C.Spans)
      if (S.LastDirective < S.FirstDirective)
        NtSpan = &S;
    size_t Offset = NtSpan ? NtSpan->Offset : 0;
    size_t Length = NtSpan ? NtSpan->Length : 0;
    Diagnostic &D = C.add("nt-store-reuse", analysis::Severity::Warning,
                          Offset, Length, V.Message);
    if (!NtSpan)
      continue;
    D.HasFixIt = true;
    D.Fix.Offset = Offset;
    D.Fix.Length = Length;
    D.Fix.Replacement.clear();
  }
}

/// dead-directive: marks whose loop no longer exists when lowering runs.
void checkDeadDirectives(LintContext &C) {
  for (const NestMark &M : C.Nest.Marks) {
    if (C.Nest.find(M.Name) >= 0)
      continue;
    ScheduleSpan Span = C.unitOf(M.DirIndex);
    const char *Kind = M.Kind == MarkDirective::Kind::Parallel ? "parallel"
                       : M.Kind == MarkDirective::Kind::Vectorize
                           ? "vectorize"
                           : "unroll";
    Diagnostic &D = C.add(
        "dead-directive", analysis::Severity::Warning, Span.Offset,
        Span.Length,
        strFormat("%s(%s): loop '%s' is destroyed by a later split/fuse, "
                  "so lowering silently drops the mark",
                  Kind, M.Name.c_str(), M.Name.c_str()));
    if (!LintContext::soleDirective(Span))
      continue;
    D.HasFixIt = true;
    D.Fix.Offset = Span.Offset;
    D.Fix.Length = Span.Length;
    D.Fix.Replacement.clear();
  }
}

/// shadowed-reorder + redundant-directive: directives with no effect on
/// the final nest.
void checkRedundant(LintContext &C) {
  auto Delete = [&](const char *Rule, int DirIndex, std::string Msg) {
    ScheduleSpan Span = C.unitOf(DirIndex);
    Diagnostic &D = C.add(Rule, analysis::Severity::Warning, Span.Offset,
                          Span.Length, std::move(Msg));
    if (!LintContext::soleDirective(Span))
      return;
    D.HasFixIt = true;
    D.Fix.Offset = Span.Offset;
    D.Fix.Length = Span.Length;
    D.Fix.Replacement.clear();
  };
  // Shadowing: a reorder that changes the order overrides the reorder
  // immediately before it when it names every loop that one names.
  const std::vector<int> &Noops = C.Nest.NoopReorders;
  for (size_t DI = 1; DI < C.Dirs.size(); ++DI) {
    const auto *Cur = std::get_if<ReorderDirective>(&C.Dirs[DI]);
    const auto *Prev = std::get_if<ReorderDirective>(&C.Dirs[DI - 1]);
    if (!Cur || !Prev ||
        std::find(Noops.begin(), Noops.end(), static_cast<int>(DI)) !=
            Noops.end())
      continue;
    std::set<std::string> Names(Cur->InnermostFirst.begin(),
                                Cur->InnermostFirst.end());
    if (std::all_of(Prev->InnermostFirst.begin(), Prev->InnermostFirst.end(),
                    [&](const std::string &N) { return Names.contains(N); }))
      Delete("shadowed-reorder", static_cast<int>(DI) - 1,
             "this reorder is immediately overridden by the next reorder, "
             "which covers every loop it names");
  }
  for (int DirIndex : Noops)
    Delete("redundant-directive", DirIndex,
           "this reorder restates the order the loops already have");
  for (auto M = C.Nest.Marks.begin(); M != C.Nest.Marks.end(); ++M)
    if (std::any_of(C.Nest.Marks.begin(), M, [&](const NestMark &Prev) {
          return Prev.Kind == M->Kind && Prev.Name == M->Name;
        }))
      Delete("redundant-directive", M->DirIndex,
             "this mark repeats an identical earlier mark on the same loop");
}

/// Directive list of the linted stage (the text has been applied).
const std::vector<ScheduleDirective> &directivesOf(const Func &F,
                                                   int StageIndex) {
  const Definition &Def = StageIndex < 0 ? F.pureDefinition()
                                         : F.updateDefinition(StageIndex);
  return Def.Schedule.Directives;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

bool LintReport::hasErrors() const {
  for (const Diagnostic &D : Diagnostics)
    if (D.Sev == analysis::Severity::Error)
      return true;
  return false;
}

bool LintReport::clean() const { return Diagnostics.empty(); }

std::string LintReport::message() const {
  std::string Out;
  for (const Diagnostic &D : Diagnostics)
    Out += strFormat("[%s] %s @%zu+%zu: %s\n", severityName(D.Sev),
                     D.RuleId.c_str(), D.Offset, D.Length,
                     D.Message.c_str());
  return Out;
}

const char *ltp::lint::severityName(analysis::Severity Sev) {
  return Sev == analysis::Severity::Error ? "error" : "warning";
}

LintReport ltp::lint::lintScheduleText(Func &F, int StageIndex,
                                       const std::string &Text,
                                       const std::vector<int64_t> &OutputExtents,
                                       const ArchParams &Arch,
                                       const LintOptions &Options) {
  LintReport Report;
  Report.ScheduleText = Text;

  F.clearSchedules();
  std::vector<ScheduleSpan> Spans;
  ErrorOr<bool> Applied = applyScheduleText(F, StageIndex, Text, &Spans);
  if (!Applied) {
    Diagnostic D;
    D.RuleId = "parse-error";
    D.Sev = analysis::Severity::Error;
    D.Length = Text.size();
    D.Message = Applied.getError();
    Report.Diagnostics.push_back(std::move(D));
    return Report;
  }
  analysis::LegalityReport OwnLegality;
  const analysis::LegalityReport *Legality = Options.PrecomputedLegality;
  if (!Legality) {
    OwnLegality = analysis::verifyStageSchedule(F, StageIndex, OutputExtents);
    Legality = &OwnLegality;
  }
  if (const analysis::DirectiveVerdict *V = Legality->structuralError()) {
    Diagnostic D;
    D.RuleId = "invalid-schedule";
    D.Sev = analysis::Severity::Error;
    D.Length = Text.size();
    D.Message = V->Directive + ": " + V->Message;
    Report.Diagnostics.push_back(std::move(D));
    return Report;
  }

  StageAccessInfo Info = analyzeStage(F, StageIndex, OutputExtents);
  if (Info.Loops.empty())
    return Report;
  Classification Class = classify(Info);

  const std::vector<ScheduleDirective> &Dirs = directivesOf(F, StageIndex);
  LintContext C{Report,  Text,      Spans,          Dirs, Info, Arch,
                Options, *Legality, Legality->Nest, Class};
  checkStridedInnermost(C);
  checkVectorizeNoncontiguous(C);
  checkTileBounds(C);
  checkStreamerOversubscription(C);
  checkUnrollJamSpill(C);
  checkNtStoreReuse(C);
  checkDeadDirectives(C);
  checkRedundant(C);
  return Report;
}

LintReport ltp::lint::lintStageSchedule(Func &F, int StageIndex,
                                        const std::vector<int64_t> &OutputExtents,
                                        const ArchParams &Arch,
                                        const LintOptions &Options) {
  return lintScheduleText(F, StageIndex, printSchedule(F, StageIndex),
                          OutputExtents, Arch, Options);
}

std::string ltp::lint::applyLintFixes(const LintReport &Report) {
  std::vector<const Diagnostic *> Fixes;
  for (const Diagnostic &D : Report.Diagnostics)
    if (D.HasFixIt)
      Fixes.push_back(&D);
  std::sort(Fixes.begin(), Fixes.end(),
            [](const Diagnostic *A, const Diagnostic *B) {
              return A->Fix.Offset > B->Fix.Offset;
            });
  std::string Text = Report.ScheduleText;
  size_t LastStart = std::string::npos;
  for (const Diagnostic *D : Fixes) {
    if (D->Fix.Offset + D->Fix.Length > Text.size())
      continue;
    // Skip overlapping edits (two rules anchored on one unit): the first
    // (later-in-text) fix wins; the schedule can be re-linted after.
    if (LastStart != std::string::npos &&
        D->Fix.Offset + D->Fix.Length > LastStart)
      continue;
    Text.replace(D->Fix.Offset, D->Fix.Length, D->Fix.Replacement);
    LastStart = D->Fix.Offset;
  }
  return Text;
}

std::string ltp::lint::diagnosticJson(const Diagnostic &D, int StageOrdinal) {
  std::string Out = strFormat(
      "{\"stage\": %d, \"rule\": \"%s\", \"severity\": \"%s\", "
      "\"offset\": %zu, \"length\": %zu, \"message\": \"%s\"",
      StageOrdinal, D.RuleId.c_str(), severityName(D.Sev), D.Offset,
      D.Length, obs::jsonEscape(D.Message).c_str());
  if (D.HasFixIt)
    Out += strFormat(
        ", \"fixit\": {\"offset\": %zu, \"length\": %zu, "
        "\"replacement\": \"%s\"}",
        D.Fix.Offset, D.Fix.Length, obs::jsonEscape(D.Fix.Replacement).c_str());
  Out += "}";
  return Out;
}
