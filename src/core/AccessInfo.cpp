//===- AccessInfo.cpp - affine access analysis of a statement ------------===//

#include "core/AccessInfo.h"

#include "ir/IRVisitor.h"
#include "ir/Simplify.h"

#include <algorithm>
#include <cassert>

using namespace ltp;
using namespace ltp::ir;

//===----------------------------------------------------------------------===//
// StageAccessInfo queries
//===----------------------------------------------------------------------===//

std::string StageAccessInfo::outputColumnVar() const {
  assert(!Accesses.empty() && Accesses.front().IsOutput &&
         "access list must start with the output");
  const ArrayAccess &Out = Accesses.front();
  assert(!Out.Index.empty() && "output access has no dimensions");
  std::set<std::string> Vars = Out.Index.front().vars();
  assert(Vars.size() == 1 && "output column index must be a single variable");
  return *Vars.begin();
}

bool ArrayAccess::contiguousAlong(const std::string &Var,
                                  int64_t Step) const {
  for (size_t D = 0; D != Index.size(); ++D) {
    const AffineIndex &Idx = Index[D];
    if (!Idx.IsAffine) {
      if (Idx.vars().contains(Var))
        return false;
      continue;
    }
    auto It = Idx.Coeffs.find(Var);
    if (It == Idx.Coeffs.end() || It->second == 0)
      continue;
    if (D != 0 || It->second * Step != 1)
      return false;
  }
  return true;
}

std::string StageAccessInfo::streamColumnVar() const {
  auto AllContiguous = [&](const std::string &Var) {
    return std::all_of(Accesses.begin(), Accesses.end(),
                       [&](const ArrayAccess &A) {
                         return A.contiguousAlong(Var);
                       });
  };
  const std::string Column = outputColumnVar();
  if (AllContiguous(Column))
    return Column;
  for (const LoopInfo &Loop : Loops) {
    if (!Loop.IsReduction || Accesses.front().indexVars().contains(Loop.Name))
      continue;
    bool Streams = std::any_of(
        Accesses.begin(), Accesses.end(),
        [&](const ArrayAccess &A) { return A.indexVars().contains(Loop.Name); });
    if (Streams && AllContiguous(Loop.Name))
      return Loop.Name;
  }
  return Column;
}

std::set<std::string> StageAccessInfo::columnVars() const {
  std::set<std::string> Out;
  for (const ArrayAccess &A : Accesses)
    if (!A.Index.empty())
      for (const std::string &V : A.Index.front().vars())
        Out.insert(V);
  return Out;
}

std::vector<const ArrayAccess *> StageAccessInfo::inputs() const {
  std::vector<const ArrayAccess *> Out;
  for (const ArrayAccess &A : Accesses)
    if (!A.IsOutput)
      Out.push_back(&A);
  return Out;
}

namespace {

/// Collects every load in an expression tree.
class LoadCollector : public IRVisitor {
public:
  std::vector<const Load *> Loads;

protected:
  void visit(const Load *Node) override {
    Loads.push_back(Node);
    IRVisitor::visit(Node);
  }
};

bool sameIndex(const std::vector<AffineIndex> &A,
               const std::vector<AffineIndex> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t D = 0; D != A.size(); ++D)
    if (A[D].Const != B[D].Const || A[D].Coeffs != B[D].Coeffs ||
        A[D].IsAffine != B[D].IsAffine)
      return false;
  return true;
}

std::vector<AffineIndex> decomposeAll(const std::vector<ExprPtr> &Indices) {
  std::vector<AffineIndex> Out;
  Out.reserve(Indices.size());
  for (const ExprPtr &E : Indices)
    Out.push_back(decomposeAffine(E));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Stage analysis
//===----------------------------------------------------------------------===//

StageAccessInfo ltp::analyzeStage(const Func &F, int StageIndex,
                                  const std::vector<int64_t> &OutputExtents) {
  assert(F.defined() && "cannot analyze an undefined Func");
  assert(OutputExtents.size() == F.args().size() &&
         "output extents must match the Func's dimensionality");
  const Definition &Def = StageIndex < 0 ? F.pureDefinition()
                                         : F.updateDefinition(StageIndex);

  StageAccessInfo Info;
  Info.DTS = static_cast<int64_t>(F.type().bytes());
  Info.HasPredicates = !Def.Predicates.empty();

  // Pure loops, innermost first.
  for (size_t D = 0; D != Def.Indices.size(); ++D) {
    const VarRef *V = exprDynAs<VarRef>(Def.Indices[D].node());
    assert(V && "store indices must be plain variables");
    LoopInfo L;
    L.Name = V->Name;
    L.Extent = OutputExtents[D];
    Info.Loops.push_back(L);
  }
  // Reduction loops outside.
  for (const ReductionVarInfo &R : Def.RVars) {
    LoopInfo L;
    L.Name = R.Name;
    L.IsReduction = true;
    ExprPtr Extent = simplify(R.Extent.node());
    auto C = asConstInt(Extent);
    assert(C && "reduction extents must be compile-time constants; express "
                "triangular domains with RDom::where predicates");
    L.Extent = *C;
    Info.Loops.push_back(L);
  }

  // The output access comes first.
  ArrayAccess Out;
  Out.Buffer = F.name();
  Out.IsOutput = true;
  std::vector<ExprPtr> StoreIdx;
  for (const Expr &E : Def.Indices)
    StoreIdx.push_back(E.node());
  Out.Index = decomposeAll(StoreIdx);
  Info.Accesses.push_back(Out);

  // Loads, deduplicated by (buffer, index).
  LoadCollector Collector;
  Collector.visitExpr(Def.Value.node());
  for (const Expr &Pred : Def.Predicates)
    Collector.visitExpr(Pred.node());
  for (const Load *L : Collector.Loads) {
    ArrayAccess A;
    A.Buffer = L->BufferName;
    A.Index = decomposeAll(L->Indices);
    A.IsSelfReference =
        L->BufferName == F.name() && sameIndex(A.Index, Out.Index);
    if (A.IsSelfReference) {
      // Fold into the output access: the accumulator is read and written
      // at the same address, one footprint.
      Info.Accesses.front().IsSelfReference = true;
      continue;
    }
    bool Duplicate = false;
    for (const ArrayAccess &Existing : Info.Accesses)
      if (Existing.Buffer == A.Buffer && sameIndex(Existing.Index, A.Index))
        Duplicate = true;
    if (!Duplicate)
      Info.Accesses.push_back(std::move(A));
  }

  return Info;
}

StageAccessInfo
ltp::analyzeComputeStage(const Func &F,
                         const std::vector<int64_t> &OutputExtents) {
  int Stage = F.computeStageIndex();
  return analyzeStage(F, Stage, OutputExtents);
}
