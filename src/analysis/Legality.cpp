//===- Legality.cpp - schedule legality verification ----------------------===//

#include "analysis/Legality.h"

#include "analysis/IRVerify.h"
#include "ir/IRVisitor.h"
#include "obs/Telemetry.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>

using namespace ltp;
using namespace ltp::analysis;
using namespace ltp::ir;

//===----------------------------------------------------------------------===//
// LegalityReport
//===----------------------------------------------------------------------===//

int ScheduledNest::find(const std::string &Name) const {
  for (size_t I = 0; I != Loops.size(); ++I)
    if (Loops[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const DirectiveVerdict *LegalityReport::structuralError() const {
  return Nest.Complete || Verdicts.empty() ? nullptr : &Verdicts.back();
}

bool LegalityReport::hasErrors() const {
  for (const DirectiveVerdict &V : Verdicts)
    if (!V.Legal && V.Sev == Severity::Error)
      return true;
  return false;
}

bool LegalityReport::clean() const {
  for (const DirectiveVerdict &V : Verdicts)
    if (!V.Legal)
      return false;
  return true;
}

std::string LegalityReport::message() const {
  std::string Out;
  for (const DirectiveVerdict &V : Verdicts) {
    if (V.Legal)
      continue;
    if (!Out.empty())
      Out += "\n";
    Out += strFormat("%s: %s: %s",
                     V.Sev == Severity::Error ? "error" : "warning",
                     V.Directive.c_str(), V.Message.c_str());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Shadow nest replay
//===----------------------------------------------------------------------===//

namespace {

int64_t floorDiv(int64_t A, int64_t B) {
  assert(B > 0);
  return A >= 0 ? A / B : -((-A + B - 1) / B);
}

uint8_t signBit(int64_t D) {
  return D < 0 ? DistanceSet::Neg : D > 0 ? DistanceSet::Pos
                                          : DistanceSet::Zero;
}

/// Collects free variable names of an expression.
class FreeVars : public IRVisitor {
public:
  std::set<std::string> Names;

protected:
  void visit(const VarRef *Node) override { Names.insert(Node->Name); }
};

/// True when the expression tree loads \p Buffer.
class ReadsBuffer : public IRVisitor {
public:
  std::string Buffer;
  bool Found = false;

protected:
  void visit(const Load *Node) override {
    if (Node->BufferName == Buffer)
      Found = true;
    IRVisitor::visit(Node);
  }
};

/// Splits the distance set of one loop of distance d into the (outer,
/// inner) pair of d = Factor * d_o + d_i with |d_i| < Factor.
void splitDistance(const DistanceSet &S, int64_t Factor,
                   const std::string &OuterName, DistanceSet &Outer,
                   DistanceSet &Inner) {
  if (S.definitelyZero()) {
    Outer = DistanceSet::exact(0);
    Inner = DistanceSet::exact(0);
    return;
  }
  if (S.Exact) {
    int64_t D = *S.Exact;
    if (D % Factor == 0) {
      Outer = DistanceSet::exact(D / Factor);
      Inner = DistanceSet::exact(0);
      return;
    }
    // d_o is floor(d/F) (d_i = d mod F > 0) or floor(d/F)+1 (d_i < 0).
    int64_t Lo = floorDiv(D, Factor);
    Outer = DistanceSet::any();
    Outer.Signs = signBit(Lo) | signBit(Lo + 1);
    Inner = DistanceSet::any();
    Inner.Signs = DistanceSet::Neg | DistanceSet::Pos;
    if (D > 0)
      Inner.NegGuard = OuterName; // negative d_i forces d_o = floor+1 >= 1
    return;
  }
  Outer = DistanceSet::any();
  Outer.Signs = DistanceSet::Zero |
                (S.mayBePositive() ? DistanceSet::Pos : 0) |
                (S.mayBeNegative() ? DistanceSet::Neg : 0);
  Outer.NegGuard = S.NegGuard; // outer negative requires d negative
  Inner = DistanceSet::any();
  if (!S.mayBeNegative())
    Inner.NegGuard = OuterName; // d >= 0: negative d_i forces d_o >= 1
}

/// Fuses the (outer, inner) distance pair into the distance of the fused
/// loop, d = InnerExtent * d_o + d_i with |d_i| < InnerExtent.
DistanceSet fuseDistance(const DistanceSet &Do, const DistanceSet &Di,
                         int64_t InnerExtent, const std::string &OuterName) {
  if (Do.Exact && Di.Exact)
    return DistanceSet::exact(*Do.Exact * InnerExtent + *Di.Exact);
  // d_o != 0 determines the sign; d_o == 0 leaves d_i's sign. An inner
  // negative guarded on this outer cannot occur in the d_o == 0 case.
  uint8_t ZeroCase =
      Di.NegGuard == OuterName ? (Di.Signs & ~DistanceSet::Neg) : Di.Signs;
  DistanceSet Out;
  Out.Signs = (Do.mayBePositive() ? DistanceSet::Pos : 0) |
              (Do.mayBeNegative() ? DistanceSet::Neg : 0) |
              (Do.mayBeZero() ? ZeroCase : 0);
  if (Out.mayBeNegative()) {
    bool FromOuter = Do.mayBeNegative();
    bool FromInner = Do.mayBeZero() && (ZeroCase & DistanceSet::Neg);
    if (FromOuter && !FromInner)
      Out.NegGuard = Do.NegGuard;
    else if (FromInner && !FromOuter && Di.NegGuard != OuterName)
      Out.NegGuard = Di.NegGuard;
  }
  return Out;
}

/// A loop of the replayed nest plus what only the verdicts need.
struct ShadowLoop : NestLoop {
  /// Loop variables the loop's bounds reference; such loops must stay
  /// nested inside them (tail splits, triangular reduction domains).
  std::set<std::string> BoundDeps;
  bool IsRVar = false;
  /// True when some pure loop contributes to this one: the stored element
  /// then moves along it (every pure loop indexes the store).
  bool PureOrigin = false;
};

/// One dependence's distance vector tracked through the replay, keyed by
/// the current (live) loop names.
struct ShadowDep {
  DepKind Kind;
  bool Approximate;
  bool Reduction;
  std::map<std::string, DistanceSet> D;
};

/// Existence search over per-loop sign assignments of one dependence.
/// Variables are enumerated in default order (outermost first), which
/// streams two constraints: lexicographic non-negativity in the default
/// order (real distance vectors are execution-order-forward; splits and
/// fuses preserve this) and NegGuard edges (a guard always names a loop
/// further out in default order).
class SignSearch {
public:
  struct Var {
    uint8_t Mask;  // allowed signs
    int Guard;     // index of guard var (always earlier), -1 for none
    int FinalRank; // outermost-first rank in the actual loop order
  };
  std::vector<Var> Vars; // default order, outermost first
  bool DefaultOrderValid = true;

  /// True when some assignment satisfies masks, guards, default-order
  /// lexicographic non-negativity, and \p Accept. Conservatively true on
  /// search-budget exhaustion.
  bool exists(const std::function<bool(const std::vector<int8_t> &)> &Accept) {
    Signs.assign(Vars.size(), 0);
    Budget = 200000;
    return search(0, /*ZeroPrefix=*/true, Accept);
  }

private:
  std::vector<int8_t> Signs;
  int Budget = 0;

  bool search(size_t I, bool ZeroPrefix,
              const std::function<bool(const std::vector<int8_t> &)> &Accept) {
    if (--Budget <= 0)
      return true;
    if (I == Vars.size())
      return Accept(Signs);
    static const int8_t Order[3] = {0, 1, -1};
    for (int8_t S : Order) {
      uint8_t Bit = S < 0 ? DistanceSet::Neg
                          : S > 0 ? DistanceSet::Pos : DistanceSet::Zero;
      if (!(Vars[I].Mask & Bit))
        continue;
      if (S < 0) {
        if (DefaultOrderValid && ZeroPrefix)
          continue; // lexicographically negative in execution order
        if (Vars[I].Guard >= 0 && Signs[Vars[I].Guard] != 1)
          continue; // guarded negative requires the guard loop positive
      }
      Signs[I] = S;
      if (search(I + 1, ZeroPrefix && S == 0, Accept))
        return true;
    }
    return false;
  }
};

class ShadowNest {
public:
  std::vector<ShadowLoop> Dims;          // innermost first, actual order
  std::vector<std::string> DefaultOrder; // innermost first, never reordered
  std::vector<ShadowDep> Deps;
  bool DefaultOrderValid = true;

  int find(const std::string &Name) const {
    for (size_t I = 0; I != Dims.size(); ++I)
      if (Dims[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }

  std::vector<std::string> finalOrder() const {
    std::vector<std::string> Out;
    for (auto It = Dims.rbegin(); It != Dims.rend(); ++It)
      Out.push_back(It->Name);
    return Out;
  }

  /// Replaces \p Dead in every loop's bound-dependence set by \p Repl.
  void replaceBoundDep(const std::string &Dead,
                       const std::set<std::string> &Repl) {
    for (ShadowLoop &L : Dims)
      if (L.BoundDeps.erase(Dead))
        L.BoundDeps.insert(Repl.begin(), Repl.end());
  }

  /// Clears distance-set guards naming a loop that no longer exists.
  void clearDeadGuards(const std::string &Dead) {
    for (ShadowDep &Dep : Deps)
      for (auto &[Name, S] : Dep.D)
        if (S.NegGuard == Dead)
          S.NegGuard.clear();
  }

  void retargetGuards(const std::string &From, const std::string &To) {
    for (ShadowDep &Dep : Deps)
      for (auto &[Name, S] : Dep.D)
        if (S.NegGuard == From)
          S.NegGuard = To;
  }

  /// Splits a loop in place into (inner, outer); \p Jam marks the pair
  /// as an unroll_jam's copies and the loop stepping over them.
  std::string split(const SplitDirective &S, int DirIndex, bool Jam) {
    int Pos = find(S.Old);
    if (Pos < 0)
      return strFormat("unknown loop '%s'", S.Old.c_str());
    if (S.Factor < 1)
      return "split factor must be positive";
    for (const std::string &New : {S.Outer, S.Inner})
      if (find(New) >= 0)
        return strFormat("loop name '%s' already in use", New.c_str());
    if (S.Outer == S.Inner)
      return "outer and inner split names must differ";

    ShadowLoop Old = Dims[Pos];
    bool Divisible = Old.ConstExtent && *Old.ConstExtent % S.Factor == 0;

    ShadowLoop Inner = Old;
    Inner.Name = S.Inner;
    Inner.Trip = std::min(S.Factor, Old.Trip);
    Inner.JamInner = Jam;
    Inner.CreatedBy = DirIndex;
    if (Divisible) {
      Inner.ConstExtent = S.Factor;
      Inner.BoundDeps.clear();
    } else {
      Inner.ConstExtent.reset();
      Inner.BoundDeps.insert(S.Outer);
    }

    ShadowLoop Outer = Old;
    Outer.Name = S.Outer;
    Outer.Trip = (Old.Trip + S.Factor - 1) / S.Factor;
    Outer.Stride = Old.Stride * S.Factor;
    Outer.JamOuter = Jam;
    Outer.CreatedBy = DirIndex;
    if (Old.ConstExtent)
      Outer.ConstExtent = (*Old.ConstExtent + S.Factor - 1) / S.Factor;

    Dims[Pos] = Inner;
    Dims.insert(Dims.begin() + Pos + 1, Outer);

    auto It = std::find(DefaultOrder.begin(), DefaultOrder.end(), S.Old);
    assert(It != DefaultOrder.end());
    *It = S.Inner;
    DefaultOrder.insert(It + 1, S.Outer);

    std::set<std::string> Repl = Old.BoundDeps;
    Repl.insert(S.Outer);
    Repl.insert(S.Inner);
    replaceBoundDep(S.Old, Repl);

    for (ShadowDep &Dep : Deps) {
      DistanceSet OldSet = Dep.D.at(S.Old);
      Dep.D.erase(S.Old);
      splitDistance(OldSet, S.Factor, S.Outer, Dep.D[S.Outer],
                    Dep.D[S.Inner]);
    }
    clearDeadGuards(S.Old);
    return "";
  }

  std::string fuse(const FuseDirective &F, int DirIndex) {
    int PosOuter = find(F.Outer);
    int PosInner = find(F.Inner);
    if (PosOuter < 0)
      return strFormat("unknown loop '%s'", F.Outer.c_str());
    if (PosInner < 0)
      return strFormat("unknown loop '%s'", F.Inner.c_str());
    if (PosOuter != PosInner + 1)
      return strFormat("loops '%s' and '%s' must be adjacent with '%s' "
                       "outermost",
                       F.Outer.c_str(), F.Inner.c_str(), F.Outer.c_str());
    if (find(F.Fused) >= 0)
      return strFormat("loop name '%s' already in use", F.Fused.c_str());
    ShadowLoop OuterDim = Dims[PosOuter];
    ShadowLoop InnerDim = Dims[PosInner];
    if (!OuterDim.ConstExtent || !InnerDim.ConstExtent)
      return "fuse requires constant loop extents";
    int64_t InnerExtent = *InnerDim.ConstExtent;

    // The fused loop keeps its inner loop's step and jam flags.
    ShadowLoop Fused;
    Fused.Name = F.Fused;
    Fused.ConstExtent = *OuterDim.ConstExtent * InnerExtent;
    Fused.Trip = OuterDim.Trip * InnerDim.Trip;
    Fused.Stride = InnerDim.Stride;
    Fused.JamInner = InnerDim.JamInner;
    Fused.JamOuter = InnerDim.JamOuter;
    Fused.Fused = true;
    Fused.CreatedBy = DirIndex;
    Fused.IsRVar = OuterDim.IsRVar || InnerDim.IsRVar;
    Fused.PureOrigin = OuterDim.PureOrigin || InnerDim.PureOrigin;

    Dims.erase(Dims.begin() + PosOuter);
    Dims[PosInner] = Fused;

    // In default order the pair may have drifted apart (reorder between
    // them happened); the fused loop then has no single slot that keeps
    // the execution-order lex constraint exact, so drop that constraint.
    auto ItO = std::find(DefaultOrder.begin(), DefaultOrder.end(), F.Outer);
    auto ItI = std::find(DefaultOrder.begin(), DefaultOrder.end(), F.Inner);
    assert(ItO != DefaultOrder.end() && ItI != DefaultOrder.end());
    if (ItO != ItI + 1)
      DefaultOrderValid = false;
    *ItI = F.Fused;
    DefaultOrder.erase(ItO);

    std::set<std::string> Repl = OuterDim.BoundDeps;
    Repl.insert(InnerDim.BoundDeps.begin(), InnerDim.BoundDeps.end());
    Repl.insert(F.Fused);
    replaceBoundDep(F.Outer, Repl);
    replaceBoundDep(F.Inner, Repl);

    for (ShadowDep &Dep : Deps) {
      DistanceSet Do = Dep.D.at(F.Outer);
      DistanceSet Di = Dep.D.at(F.Inner);
      Dep.D.erase(F.Outer);
      Dep.D.erase(F.Inner);
      Dep.D[F.Fused] =
          InnerExtent > 0 ? fuseDistance(Do, Di, InnerExtent, F.Outer)
                          : DistanceSet::exact(0); // empty loop: no deps
    }
    // A guard on the outer loop transfers: fused positive follows from
    // outer positive. A guard on the inner loop does not.
    retargetGuards(F.Outer, F.Fused);
    clearDeadGuards(F.Inner);
    return "";
  }

  /// Permutes the named loops across the positions they occupy; \p Noop
  /// tells whether the order was already the requested one.
  std::string reorder(const ReorderDirective &R, bool &Noop) {
    std::vector<size_t> Positions;
    for (const std::string &Name : R.InnermostFirst) {
      int Pos = find(Name);
      if (Pos < 0)
        return strFormat("unknown loop '%s'", Name.c_str());
      Positions.push_back(static_cast<size_t>(Pos));
    }
    std::vector<size_t> Sorted = Positions;
    std::sort(Sorted.begin(), Sorted.end());
    if (std::adjacent_find(Sorted.begin(), Sorted.end()) != Sorted.end())
      return "reorder mentions a loop twice";
    Noop = Positions == Sorted;
    std::vector<ShadowLoop> Reordered = Dims;
    for (size_t I = 0; I != Positions.size(); ++I)
      Reordered[Sorted[I]] = Dims[Positions[I]];
    Dims = std::move(Reordered);
    return "";
  }

  /// Builds the sign-search problem of one dependence. Variables are in
  /// default order (outermost first).
  SignSearch makeSearch(const ShadowDep &Dep) const {
    SignSearch Search;
    Search.DefaultOrderValid = DefaultOrderValid;
    std::map<std::string, int> VarIdx;
    for (auto It = DefaultOrder.rbegin(); It != DefaultOrder.rend(); ++It) {
      const DistanceSet &S = Dep.D.at(*It);
      SignSearch::Var V;
      V.Mask = S.Signs;
      V.Guard = -1;
      if (!S.NegGuard.empty()) {
        auto G = VarIdx.find(S.NegGuard);
        if (G != VarIdx.end())
          V.Guard = G->second;
      }
      int FinalPos = find(*It);
      assert(FinalPos >= 0);
      V.FinalRank = static_cast<int>(Dims.size()) - 1 - FinalPos;
      VarIdx[*It] = static_cast<int>(Search.Vars.size());
      Search.Vars.push_back(V);
    }
    return Search;
  }

  /// True when \p Dep admits a distance vector that is lexicographically
  /// negative in the current (actual) loop order.
  bool lexNegativeInFinalOrder(const ShadowDep &Dep) const {
    SignSearch Search = makeSearch(Dep);
    std::vector<int> ByRank(Search.Vars.size());
    for (size_t I = 0; I != Search.Vars.size(); ++I)
      ByRank[Search.Vars[I].FinalRank] = static_cast<int>(I);
    return Search.exists([&](const std::vector<int8_t> &Signs) {
      for (int I : ByRank) {
        if (Signs[I] < 0)
          return true;
        if (Signs[I] > 0)
          return false;
      }
      return false;
    });
  }

  /// True when \p Dep may be carried by loop \p Name in the current
  /// order: every loop nested outside may simultaneously be at distance
  /// zero while this loop's distance is non-zero.
  bool carriedBy(const ShadowDep &Dep, const std::string &Name) const {
    int Pos = find(Name);
    assert(Pos >= 0);
    int Rank = static_cast<int>(Dims.size()) - 1 - Pos;
    SignSearch Search = makeSearch(Dep);
    for (SignSearch::Var &V : Search.Vars) {
      if (V.FinalRank < Rank)
        V.Mask &= DistanceSet::Zero;
      else if (V.FinalRank == Rank)
        V.Mask &= ~DistanceSet::Zero;
      if (!V.Mask)
        return false;
    }
    return Search.exists([](const std::vector<int8_t> &) { return true; });
  }
};

std::string describeDirective(const ScheduleDirective &Directive) {
  if (const auto *S = std::get_if<SplitDirective>(&Directive))
    return strFormat("split(%s, %s, %s, %lld)", S->Old.c_str(),
                     S->Outer.c_str(), S->Inner.c_str(),
                     static_cast<long long>(S->Factor));
  if (const auto *F = std::get_if<FuseDirective>(&Directive))
    return strFormat("fuse(%s, %s, %s)", F->Outer.c_str(), F->Inner.c_str(),
                     F->Fused.c_str());
  if (const auto *R = std::get_if<ReorderDirective>(&Directive))
    return "reorder(" + join(R->InnermostFirst, ", ") + ")";
  if (const auto *M = std::get_if<MarkDirective>(&Directive)) {
    const char *Kind = M->Mark == MarkDirective::Kind::Parallel ? "parallel"
                       : M->Mark == MarkDirective::Kind::Vectorize
                           ? "vectorize"
                           : "unroll";
    return strFormat("%s(%s)", Kind, M->Name.c_str());
  }
  if (const auto *U = std::get_if<UnrollJamDirective>(&Directive))
    return strFormat("unroll_jam(%s, %lld)", U->Name.c_str(),
                     static_cast<long long>(U->Factor));
  return "<unknown directive>";
}

} // namespace

//===----------------------------------------------------------------------===//
// verifyStageSchedule
//===----------------------------------------------------------------------===//

LegalityReport
ltp::analysis::verifyStageSchedule(const Func &F, int StageIndex,
                                   const std::vector<int64_t> &OutputExtents,
                                   const LegalityOptions &Options) {
  obs::ScopedSpan Span("analysis.verify", [&] {
    return strFormat("func=%s stage=%d", F.name().c_str(), StageIndex);
  });
  LegalityReport Report;
  Report.Graph = buildDependenceGraph(F, StageIndex, OutputExtents);
  const Definition &Def = StageIndex < 0 ? F.pureDefinition()
                                         : F.updateDefinition(StageIndex);

  // Shadow nest in lowering's innermost-first layout.
  ShadowNest Nest;
  for (auto It = Report.Graph.Loops.rbegin(); It != Report.Graph.Loops.rend();
       ++It) {
    ShadowLoop L;
    L.Name = It->Name;
    L.Origin = It->Name;
    L.ConstExtent = It->Extent;
    L.Trip = It->Extent.value_or(1);
    L.IsRVar = It->IsReduction;
    L.PureOrigin = !It->IsReduction;
    Nest.Dims.push_back(L);
    Nest.DefaultOrder.push_back(It->Name);
  }
  // Reduction bounds may reference pure loop variables (triangular
  // domains); record them so nesting stays checkable through the replay.
  for (const ReductionVarInfo &R : Def.RVars) {
    int Pos = Nest.find(R.Name);
    if (Pos < 0)
      continue;
    FreeVars Vars;
    Vars.visitExpr(R.Min.node());
    Vars.visitExpr(R.Extent.node());
    for (const std::string &Name : Vars.Names)
      if (Nest.find(Name) >= 0)
        Nest.Dims[Pos].BoundDeps.insert(Name);
  }
  for (const Dependence &Dep : Report.Graph.Deps) {
    ShadowDep S;
    S.Kind = Dep.Kind;
    S.Approximate = Dep.Approximate;
    S.Reduction = Dep.Reduction;
    S.D = Dep.Distance;
    Nest.Deps.push_back(std::move(S));
  }

  // Replay the directives, collecting structural verdicts as we go and
  // deferring mark checks until the final loop structure is known.
  ScheduledNest &Out = Report.Nest;
  int LastOrderDirective = -1;
  const std::vector<ScheduleDirective> &Directives = Def.Schedule.Directives;
  for (size_t I = 0; I != Directives.size(); ++I) {
    const int DirIndex = static_cast<int>(I);
    DirectiveVerdict V;
    V.Index = DirIndex;
    V.Directive = describeDirective(Directives[I]);
    std::string Err;
    if (const auto *S = std::get_if<SplitDirective>(&Directives[I])) {
      Err = Nest.split(*S, DirIndex, /*Jam=*/false);
    } else if (const auto *Fu = std::get_if<FuseDirective>(&Directives[I])) {
      Err = Nest.fuse(*Fu, DirIndex);
      LastOrderDirective = DirIndex;
    } else if (const auto *R = std::get_if<ReorderDirective>(&Directives[I])) {
      bool Noop = false;
      Err = Nest.reorder(*R, Noop);
      if (Err.empty() && Noop)
        Out.NoopReorders.push_back(DirIndex);
      LastOrderDirective = DirIndex;
    } else if (const auto *M = std::get_if<MarkDirective>(&Directives[I])) {
      if (Nest.find(M->Name) < 0)
        Err = strFormat("unknown loop '%s'", M->Name.c_str());
      else
        Out.Marks.push_back({DirIndex, M->Mark, M->Name});
    } else if (const auto *U =
                   std::get_if<UnrollJamDirective>(&Directives[I])) {
      if (U->Factor < 2) {
        Err = "unroll_jam factor must exceed 1";
      } else {
        Err = Nest.split(SplitDirective{U->Name, U->Name + "_ujo",
                                        U->Name + "_uji", U->Factor},
                         DirIndex, /*Jam=*/true);
        if (Err.empty()) {
          // The copies' loop keeps the jammed loop's origin; its trip is
          // the factor clamped to the loop's trip bound.
          const ShadowLoop &Copies = Nest.Dims[Nest.find(U->Name + "_uji")];
          Out.Jams.push_back(
              {DirIndex, U->Name, Copies.Origin, U->Factor, Copies.Trip});
        }
      }
    }
    if (!Err.empty()) {
      V.Legal = false;
      V.Message = Err;
      Report.Verdicts.push_back(V);
      Out.Complete = false;
      return Report; // nest state unknown past a structural error
    }
    Report.Verdicts.push_back(V);
  }
  Out.Loops.assign(Nest.Dims.begin(), Nest.Dims.end());

  auto FailVerdict = [&](int Index, Severity Sev, const std::string &Msg) {
    for (DirectiveVerdict &V : Report.Verdicts)
      if (V.Index == Index && V.Legal) {
        V.Legal = false;
        V.Sev = Sev;
        V.Message = Msg;
        return;
      }
    DirectiveVerdict V;
    V.Index = Index;
    V.Directive = Index < 0 ? "<stage>" : "<directive>";
    V.Legal = false;
    V.Sev = Sev;
    V.Message = Msg;
    Report.Verdicts.push_back(V);
  };

  // Bound-dependence nesting: a loop whose bounds reference another loop
  // variable (tail splits, triangular domains) must stay nested inside it.
  for (size_t I = 0; I != Nest.Dims.size(); ++I)
    for (const std::string &Dep : Nest.Dims[I].BoundDeps) {
      bool Outside = false;
      for (size_t Outer = I + 1; Outer != Nest.Dims.size(); ++Outer)
        if (Nest.Dims[Outer].Name == Dep)
          Outside = true;
      if (!Outside)
        FailVerdict(LastOrderDirective, Severity::Error,
                    strFormat("loop '%s' must stay nested inside '%s' (its "
                              "bound depends on it, e.g. a tail split)",
                              Nest.Dims[I].Name.c_str(), Dep.c_str()));
    }

  // Lexicographic legality of the final loop order: no dependence may
  // admit a distance vector that the new order executes backwards.
  // Reduction (accumulator) dependences are exempt: reordering them is
  // reassociation, which the execution semantics accept.
  std::vector<std::string> FinalOrder = Nest.finalOrder();
  for (const ShadowDep &Dep : Nest.Deps)
    if (!Dep.Reduction && Nest.lexNegativeInFinalOrder(Dep)) {
      Dependence Desc;
      Desc.Kind = Dep.Kind;
      Desc.Buffer = F.name();
      Desc.Approximate = Dep.Approximate;
      Desc.Distance = Dep.D;
      FailVerdict(LastOrderDirective, Severity::Error,
                  strFormat("loop order reverses a dependence: %s",
                            Desc.describe(FinalOrder).c_str()));
      break;
    }

  // Mark checks against the final nest. A parallel mark must not carry a
  // dependence; vectorize and unroll_jam must not carry one shorter than
  // the vector width / jam factor. Plain unroll preserves execution order.
  enum class Check { Parallel, Vectorize, UnrollJam };
  auto CheckMark = [&](int DirIndex, Check Kind, const std::string &Name,
                       int64_t JamFactor) {
    int Pos = Nest.find(Name);
    if (Pos < 0)
      return; // the loop was split after the mark; lowering drops it
    const std::optional<int64_t> &Extent = Nest.Dims[Pos].ConstExtent;
    if (Kind == Check::Vectorize && Extent &&
        *Extent > IRVerifyOptions::MaxVectorExtent) {
      FailVerdict(DirIndex, Severity::Error,
                  strFormat("vectorized loop '%s' extent %lld exceeds the "
                            "backend limit %lld",
                            Name.c_str(), static_cast<long long>(*Extent),
                            static_cast<long long>(
                                IRVerifyOptions::MaxVectorExtent)));
      return;
    }
    // Jamming an accumulator chain only reassociates it; so does
    // vectorizing a loop the accumulated element stays fixed along (one
    // partial sum per lane, added into the element when the loop exits).
    const bool Reassociates =
        Kind == Check::UnrollJam ||
        (Kind == Check::Vectorize && !Nest.Dims[Pos].PureOrigin);
    for (const ShadowDep &Dep : Nest.Deps) {
      if (Dep.Reduction && Reassociates)
        continue;
      const DistanceSet &S = Dep.D.at(Name);
      int64_t Width = 0;
      if (Kind == Check::Vectorize)
        Width = Extent.value_or(Options.VectorWidth);
      else if (Kind == Check::UnrollJam)
        Width = JamFactor;
      if (Width > 0 && S.Exact && std::llabs(*S.Exact) >= Width)
        continue; // distance spans whole chunks, which stay in order
      if (!Nest.carriedBy(Dep, Name))
        continue;
      Dependence Desc;
      Desc.Kind = Dep.Kind;
      Desc.Buffer = F.name();
      Desc.Approximate = Dep.Approximate;
      Desc.Distance = Dep.D;
      std::string Msg;
      switch (Kind) {
      case Check::Parallel:
        Msg = strFormat("loop carries a %s dependence and parallel "
                        "iterations would race: %s",
                        depKindName(Dep.Kind),
                        Desc.describe(FinalOrder).c_str());
        break;
      case Check::Vectorize:
        Msg = strFormat("loop carries a %s dependence shorter than the "
                        "vector width %lld: %s",
                        depKindName(Dep.Kind),
                        static_cast<long long>(Width),
                        Desc.describe(FinalOrder).c_str());
        break;
      case Check::UnrollJam:
        Msg = strFormat("loop carries a %s dependence that would be "
                        "reordered across jammed copies: %s",
                        depKindName(Dep.Kind),
                        Desc.describe(FinalOrder).c_str());
        break;
      }
      FailVerdict(DirIndex, Severity::Error, Msg);
      break;
    }
  };
  for (const NestMark &M : Out.Marks)
    if (M.Kind != MarkDirective::Kind::Unroll)
      CheckMark(M.DirIndex,
                M.Kind == MarkDirective::Kind::Parallel ? Check::Parallel
                                                        : Check::Vectorize,
                M.Name, 0);
  for (const NestJam &J : Out.Jams)
    CheckMark(J.DirIndex, Check::UnrollJam, J.Loop + "_uji", J.Factor);

  // Non-temporal stores bypass the cache; re-reading the buffer in the
  // same nest then misses to memory. Semantics are preserved, so this is
  // a performance warning, not an error.
  if (F.isStoreNonTemporal()) {
    ReadsBuffer Reads;
    Reads.Buffer = F.name();
    Reads.visitExpr(Def.Value.node());
    for (const Expr &Pred : Def.Predicates)
      Reads.visitExpr(Pred.node());
    if (Reads.Found) {
      DirectiveVerdict V;
      V.Index = -1;
      V.Directive = "store_nontemporal";
      V.Legal = false;
      V.Sev = Severity::Warning;
      V.Message = strFormat("buffer '%s' is re-read in the nest; "
                            "non-temporal stores bypass the cache the "
                            "re-read would hit",
                            F.name().c_str());
      Report.Verdicts.push_back(V);
    }
  }

  return Report;
}

std::vector<LegalityReport>
ltp::analysis::verifyFuncSchedule(const Func &F,
                                  const std::vector<int64_t> &OutputExtents,
                                  const LegalityOptions &Options) {
  std::vector<LegalityReport> Reports;
  Reports.push_back(verifyStageSchedule(F, -1, OutputExtents, Options));
  for (int U = 0; U != F.numUpdates(); ++U)
    Reports.push_back(verifyStageSchedule(F, U, OutputExtents, Options));
  return Reports;
}
