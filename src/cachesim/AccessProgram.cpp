//===- AccessProgram.cpp - compiled affine access streams ----------------===//

#include "cachesim/AccessProgram.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

using namespace ltp;
using namespace ltp::ir;

//===----------------------------------------------------------------------===//
// ScalarFn evaluation
//===----------------------------------------------------------------------===//

int64_t ScalarFn::eval(const std::vector<int64_t> &Slots,
                       std::vector<int64_t> &Scratch) const {
  Scratch.clear();
  for (size_t Pc = 0; Pc != Insts.size();) {
    const Inst &I = Insts[Pc++];
    switch (I.Code) {
    case Op::PushConst:
      Scratch.push_back(I.Imm);
      continue;
    case Op::PushSlot:
      Scratch.push_back(Slots[static_cast<size_t>(I.Imm)]);
      continue;
    case Op::CastInt32:
      Scratch.back() = static_cast<int32_t>(Scratch.back());
      continue;
    case Op::CastUInt32:
      Scratch.back() =
          static_cast<int64_t>(static_cast<uint32_t>(Scratch.back()));
      continue;
    case Op::CastUInt8:
      Scratch.back() =
          static_cast<int64_t>(static_cast<uint8_t>(Scratch.back()));
      continue;
    case Op::CastBool:
      Scratch.back() = Scratch.back() != 0;
      continue;
    case Op::JumpIfZero: {
      int64_t Cond = Scratch.back();
      Scratch.pop_back();
      if (Cond == 0)
        Pc = static_cast<size_t>(I.Imm);
      continue;
    }
    case Op::Jump:
      Pc = static_cast<size_t>(I.Imm);
      continue;
    default:
      break;
    }
    int64_t B = Scratch.back();
    Scratch.pop_back();
    int64_t &A = Scratch.back();
    switch (I.Code) {
    case Op::Add:
      A += B;
      break;
    case Op::Sub:
      A -= B;
      break;
    case Op::Mul:
      A *= B;
      break;
    case Op::Div:
      assert(B != 0 && "integer division by zero");
      A /= B;
      break;
    case Op::Mod:
      assert(B != 0 && "integer modulo by zero");
      A %= B;
      break;
    case Op::Min:
      A = std::min(A, B);
      break;
    case Op::Max:
      A = std::max(A, B);
      break;
    case Op::BitAnd:
      A &= B;
      break;
    case Op::BitOr:
      A |= B;
      break;
    case Op::BitXor:
      A ^= B;
      break;
    case Op::LT:
      A = A < B;
      break;
    case Op::LE:
      A = A <= B;
      break;
    case Op::GT:
      A = A > B;
      break;
    case Op::GE:
      A = A >= B;
      break;
    case Op::EQ:
      A = A == B;
      break;
    case Op::NE:
      A = A != B;
      break;
    case Op::And:
      A = (A != 0) && (B != 0);
      break;
    case Op::Or:
      A = (A != 0) || (B != 0);
      break;
    default:
      assert(false && "malformed scalar program");
    }
  }
  assert(Scratch.size() == 1 && "scalar program must yield one value");
  return Scratch.back();
}

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace {

/// Name -> slot scope stack (innermost binding wins on lookup) and the
/// first refusal.
struct CompileCtx {
  const std::map<std::string, BufferRef> &Buffers;
  std::vector<std::pair<std::string, int>> Scope;
  int NumSlots = 0;
  std::string Error;

  int lookup(const std::string &Name) const {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->first == Name)
        return It->second;
    return -1;
  }

  int push(const std::string &Name) {
    int Slot = NumSlots++;
    Scope.emplace_back(Name, Slot);
    return Slot;
  }

  void pop() { Scope.pop_back(); }

  bool refuse(const std::string &Why) {
    if (Error.empty())
      Error = "cannot simulate: " + Why;
    return false;
  }
};

/// True when any Load appears in \p E.
bool containsLoad(const ExprPtr &E) {
  switch (E->kind()) {
  case ExprKind::Load:
    return true;
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    return containsLoad(B->A) || containsLoad(B->B);
  }
  case ExprKind::Cast:
    return containsLoad(exprAs<Cast>(E)->Value);
  case ExprKind::Select: {
    const Select *S = exprAs<Select>(E);
    return containsLoad(S->Cond) || containsLoad(S->TrueValue) ||
           containsLoad(S->FalseValue);
  }
  default:
    return false;
  }
}

//===--- affine index expressions -----------------------------------------===//

std::optional<AffineFn> affineOf(const ExprPtr &E, const CompileCtx &Ctx) {
  switch (E->kind()) {
  case ExprKind::IntImm: {
    AffineFn F;
    F.Const = exprAs<IntImm>(E)->Value;
    return F;
  }
  case ExprKind::VarRef: {
    int Slot = Ctx.lookup(exprAs<VarRef>(E)->Name);
    if (Slot < 0)
      return std::nullopt;
    AffineFn F;
    F.Terms.push_back({Slot, 1});
    return F;
  }
  case ExprKind::Cast: {
    // Casts to Int64 are value-preserving for anything a loop variable
    // can hold; narrowing casts only fold when applied to a constant
    // (the truncation does not distribute over the affine terms).
    const Cast *C = exprAs<Cast>(E);
    if (C->type().isFloat())
      return std::nullopt;
    std::optional<AffineFn> V = affineOf(C->Value, Ctx);
    if (!V)
      return std::nullopt;
    if (C->type() == Type::int64())
      return V;
    if (!V->Terms.empty())
      return std::nullopt;
    switch (C->type().kind()) {
    case TypeKind::Int32:
      V->Const = static_cast<int32_t>(V->Const);
      return V;
    case TypeKind::UInt32:
      V->Const = static_cast<int64_t>(static_cast<uint32_t>(V->Const));
      return V;
    case TypeKind::UInt8:
      V->Const = static_cast<int64_t>(static_cast<uint8_t>(V->Const));
      return V;
    case TypeKind::Bool:
      V->Const = V->Const != 0;
      return V;
    default:
      return V;
    }
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    std::optional<AffineFn> A = affineOf(B->A, Ctx);
    if (!A)
      return std::nullopt;
    std::optional<AffineFn> C = affineOf(B->B, Ctx);
    if (!C)
      return std::nullopt;
    auto Combine = [](const AffineFn &X, const AffineFn &Y,
                      int64_t Sign) {
      AffineFn R = X;
      R.Const += Sign * Y.Const;
      for (const AffineFn::Term &T : Y.Terms) {
        bool Merged = false;
        for (AffineFn::Term &RT : R.Terms)
          if (RT.Slot == T.Slot) {
            RT.Coef += Sign * T.Coef;
            Merged = true;
            break;
          }
        if (!Merged)
          R.Terms.push_back({T.Slot, Sign * T.Coef});
      }
      R.Terms.erase(std::remove_if(R.Terms.begin(), R.Terms.end(),
                                   [](const AffineFn::Term &T) {
                                     return T.Coef == 0;
                                   }),
                    R.Terms.end());
      return R;
    };
    switch (B->Op) {
    case BinOp::Add:
      return Combine(*A, *C, 1);
    case BinOp::Sub:
      return Combine(*A, *C, -1);
    case BinOp::Mul: {
      const AffineFn *Scale = C->Terms.empty() ? &*C : nullptr;
      const AffineFn *Base = Scale ? &*A : nullptr;
      if (!Scale && A->Terms.empty()) {
        Scale = &*A;
        Base = &*C;
      }
      if (!Scale)
        return std::nullopt; // slot * slot is not affine
      AffineFn R = *Base;
      R.Const *= Scale->Const;
      for (AffineFn::Term &T : R.Terms)
        T.Coef *= Scale->Const;
      if (Scale->Const == 0)
        R.Terms.clear();
      return R;
    }
    default:
      // Remaining integer ops only fold between constants.
      if (!A->Terms.empty() || !C->Terms.empty())
        return std::nullopt;
      AffineFn R;
      int64_t X = A->Const, Y = C->Const;
      switch (B->Op) {
      case BinOp::Div:
        if (Y == 0)
          return std::nullopt;
        R.Const = X / Y;
        return R;
      case BinOp::Mod:
        if (Y == 0)
          return std::nullopt;
        R.Const = X % Y;
        return R;
      case BinOp::Min:
        R.Const = std::min(X, Y);
        return R;
      case BinOp::Max:
        R.Const = std::max(X, Y);
        return R;
      default:
        return std::nullopt;
      }
    }
  }
  case ExprKind::FloatImm:
  case ExprKind::Load:
  case ExprKind::Select:
    return std::nullopt;
  }
  return std::nullopt;
}

//===--- scalar expressions -----------------------------------------------===//

/// Appends the postfix program of \p E to \p Out; false when \p E is not
/// a load-free integer expression over bound slots.
bool emitScalar(const ExprPtr &E, const CompileCtx &Ctx, ScalarFn &Out) {
  if (E->type().isFloat())
    return false;
  switch (E->kind()) {
  case ExprKind::IntImm:
    Out.Insts.push_back({ScalarFn::Op::PushConst, exprAs<IntImm>(E)->Value});
    return true;
  case ExprKind::VarRef: {
    int Slot = Ctx.lookup(exprAs<VarRef>(E)->Name);
    if (Slot < 0)
      return false;
    Out.Insts.push_back({ScalarFn::Op::PushSlot, Slot});
    return true;
  }
  case ExprKind::Cast: {
    const Cast *C = exprAs<Cast>(E);
    if (C->Value->type().isFloat() || !emitScalar(C->Value, Ctx, Out))
      return false;
    switch (C->type().kind()) {
    case TypeKind::Int32:
      Out.Insts.push_back({ScalarFn::Op::CastInt32, 0});
      return true;
    case TypeKind::UInt32:
      Out.Insts.push_back({ScalarFn::Op::CastUInt32, 0});
      return true;
    case TypeKind::UInt8:
      Out.Insts.push_back({ScalarFn::Op::CastUInt8, 0});
      return true;
    case TypeKind::Bool:
      Out.Insts.push_back({ScalarFn::Op::CastBool, 0});
      return true;
    default:
      return true; // Int64: value-preserving
    }
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    if (B->A->type().isFloat() || B->B->type().isFloat())
      return false;
    if (!emitScalar(B->A, Ctx, Out) || !emitScalar(B->B, Ctx, Out))
      return false;
    switch (B->Op) {
    case BinOp::Add:
      Out.Insts.push_back({ScalarFn::Op::Add, 0});
      return true;
    case BinOp::Sub:
      Out.Insts.push_back({ScalarFn::Op::Sub, 0});
      return true;
    case BinOp::Mul:
      Out.Insts.push_back({ScalarFn::Op::Mul, 0});
      return true;
    case BinOp::Div:
      Out.Insts.push_back({ScalarFn::Op::Div, 0});
      return true;
    case BinOp::Mod:
      Out.Insts.push_back({ScalarFn::Op::Mod, 0});
      return true;
    case BinOp::Min:
      Out.Insts.push_back({ScalarFn::Op::Min, 0});
      return true;
    case BinOp::Max:
      Out.Insts.push_back({ScalarFn::Op::Max, 0});
      return true;
    case BinOp::BitAnd:
      Out.Insts.push_back({ScalarFn::Op::BitAnd, 0});
      return true;
    case BinOp::BitOr:
      Out.Insts.push_back({ScalarFn::Op::BitOr, 0});
      return true;
    case BinOp::BitXor:
      Out.Insts.push_back({ScalarFn::Op::BitXor, 0});
      return true;
    case BinOp::LT:
      Out.Insts.push_back({ScalarFn::Op::LT, 0});
      return true;
    case BinOp::LE:
      Out.Insts.push_back({ScalarFn::Op::LE, 0});
      return true;
    case BinOp::GT:
      Out.Insts.push_back({ScalarFn::Op::GT, 0});
      return true;
    case BinOp::GE:
      Out.Insts.push_back({ScalarFn::Op::GE, 0});
      return true;
    case BinOp::EQ:
      Out.Insts.push_back({ScalarFn::Op::EQ, 0});
      return true;
    case BinOp::NE:
      Out.Insts.push_back({ScalarFn::Op::NE, 0});
      return true;
    case BinOp::And:
      Out.Insts.push_back({ScalarFn::Op::And, 0});
      return true;
    case BinOp::Or:
      Out.Insts.push_back({ScalarFn::Op::Or, 0});
      return true;
    }
    return false;
  }
  case ExprKind::Select: {
    // Jumps keep the walker's lazy select: only the taken arm evaluates
    // (the other may divide by zero).
    const Select *S = exprAs<Select>(E);
    if (!emitScalar(S->Cond, Ctx, Out))
      return false;
    size_t ToElse = Out.Insts.size();
    Out.Insts.push_back({ScalarFn::Op::JumpIfZero, 0});
    if (!emitScalar(S->TrueValue, Ctx, Out))
      return false;
    size_t ToEnd = Out.Insts.size();
    Out.Insts.push_back({ScalarFn::Op::Jump, 0});
    Out.Insts[ToElse].Imm = static_cast<int64_t>(Out.Insts.size());
    if (!emitScalar(S->FalseValue, Ctx, Out))
      return false;
    Out.Insts[ToEnd].Imm = static_cast<int64_t>(Out.Insts.size());
    return true;
  }
  case ExprKind::FloatImm:
  case ExprKind::Load:
    return false;
  }
  return false;
}

/// emitScalar, refusing the program with "\p What ..." on failure.
bool scalarOf(const ExprPtr &E, CompileCtx &Ctx, const std::string &What,
              ScalarFn &Out) {
  if (emitScalar(E, Ctx, Out))
    return true;
  return Ctx.refuse(What + (containsLoad(E)
                                ? " depends on buffer contents"
                                : " is not an integer expression over "
                                  "loop variables"));
}

//===--- per-statement compilation ----------------------------------------===//

/// Fills in the byte address and width of \p Op, an access to
/// \p BufferName at \p Indices: affine when every index is, else a
/// per-element scalar program (the div/mod indices of a fused loop).
bool addressOf(const std::string &BufferName,
               const std::vector<ExprPtr> &Indices, CompileCtx &Ctx,
               AccessOp &Op) {
  auto It = Ctx.Buffers.find(BufferName);
  if (It == Ctx.Buffers.end())
    return Ctx.refuse("'" + BufferName + "' is not bound to a buffer");
  const BufferRef &Buf = It->second;
  if (Indices.size() != Buf.Extents.size())
    return Ctx.refuse(strFormat("'%s' has %zu dimensions but is indexed "
                                "with %zu",
                                BufferName.c_str(), Buf.Extents.size(),
                                Indices.size()));
  int64_t ElemBytes = Buf.ElemType.bytes();
  int64_t Base = static_cast<int64_t>(reinterpret_cast<uintptr_t>(Buf.Data));
  Op.SizeBytes = static_cast<uint32_t>(ElemBytes);
  AffineFn Addr;
  Addr.Const = Base;
  for (size_t D = 0; D != Indices.size() && Op.Affine; ++D) {
    std::optional<AffineFn> Index = affineOf(Indices[D], Ctx);
    if (!Index) {
      Op.Affine = false;
      break;
    }
    int64_t Scale = Buf.Strides[D] * ElemBytes;
    Addr.Const += Index->Const * Scale;
    for (const AffineFn::Term &T : Index->Terms) {
      bool Merged = false;
      for (AffineFn::Term &AT : Addr.Terms)
        if (AT.Slot == T.Slot) {
          AT.Coef += T.Coef * Scale;
          Merged = true;
          break;
        }
      if (!Merged)
        Addr.Terms.push_back({T.Slot, T.Coef * Scale});
    }
  }
  if (Op.Affine) {
    Addr.Terms.erase(std::remove_if(Addr.Terms.begin(), Addr.Terms.end(),
                                    [](const AffineFn::Term &T) {
                                      return T.Coef == 0;
                                    }),
                     Addr.Terms.end());
    Op.AddressBytes = std::move(Addr);
    return true;
  }
  Op.Address.Insts.push_back({ScalarFn::Op::PushConst, Base});
  for (size_t D = 0; D != Indices.size(); ++D) {
    if (!scalarOf(Indices[D], Ctx, "an index of '" + BufferName + "'",
                  Op.Address))
      return false;
    Op.Address.Insts.push_back(
        {ScalarFn::Op::PushConst, Buf.Strides[D] * ElemBytes});
    Op.Address.Insts.push_back({ScalarFn::Op::Mul, 0});
    Op.Address.Insts.push_back({ScalarFn::Op::Add, 0});
  }
  return true;
}

/// Appends \p Op to the trailing Accesses node of \p Seq, opening one
/// when \p Seq is empty or ends in a guard.
void append(std::vector<ProgramNode> &Seq, AccessOp Op) {
  if (Seq.empty() || Seq.back().NodeKind != ProgramNode::Kind::Accesses) {
    Seq.emplace_back();
    Seq.back().NodeKind = ProgramNode::Kind::Accesses;
  }
  Seq.back().Ops.push_back(std::move(Op));
}

/// Appends the loads of \p E to \p Seq in the walker's evaluation order:
/// depth-first, left operand before right, and only the taken arm of a
/// Select (a guard on its condition when an arm loads).
bool collectValueLoads(const ExprPtr &E, CompileCtx &Ctx,
                       std::vector<ProgramNode> &Seq) {
  switch (E->kind()) {
  case ExprKind::IntImm:
  case ExprKind::FloatImm:
  case ExprKind::VarRef:
    return true;
  case ExprKind::Load: {
    const Load *L = exprAs<Load>(E);
    AccessOp Op;
    Op.Kind = AccessKind::Load;
    if (!addressOf(L->BufferName, L->Indices, Ctx, Op))
      return false;
    append(Seq, std::move(Op));
    return true;
  }
  case ExprKind::Binary: {
    const Binary *B = exprAs<Binary>(E);
    return collectValueLoads(B->A, Ctx, Seq) &&
           collectValueLoads(B->B, Ctx, Seq);
  }
  case ExprKind::Cast:
    return collectValueLoads(exprAs<Cast>(E)->Value, Ctx, Seq);
  case ExprKind::Select: {
    const Select *S = exprAs<Select>(E);
    if (!containsLoad(S->TrueValue) && !containsLoad(S->FalseValue))
      return collectValueLoads(S->Cond, Ctx, Seq);
    ProgramNode Guard;
    Guard.NodeKind = ProgramNode::Kind::Guard;
    if (!scalarOf(S->Cond, Ctx, "a select condition choosing between loads",
                  Guard.Cond) ||
        !collectValueLoads(S->TrueValue, Ctx, Guard.Body) ||
        !collectValueLoads(S->FalseValue, Ctx, Guard.Else))
      return false;
    Seq.push_back(std::move(Guard));
    return true;
  }
  }
  return false;
}

bool compileStore(const Store *St, CompileCtx &Ctx,
                  std::vector<ProgramNode> &Out) {
  AccessOp StoreOp;
  StoreOp.Kind =
      St->NonTemporal ? AccessKind::NonTemporalStore : AccessKind::Store;
  if (!addressOf(St->BufferName, St->Indices, Ctx, StoreOp))
    return false;
  // Walker order: the (load-free) indices, then the value's loads, then
  // the store event itself.
  std::vector<ProgramNode> Seq;
  if (!collectValueLoads(St->Value, Ctx, Seq))
    return false;
  append(Seq, std::move(StoreOp));
  for (ProgramNode &N : Seq)
    Out.push_back(std::move(N));
  return true;
}

/// True when \p Nodes is one Accesses node with affine addresses only:
/// the shape execBatchedLoop retires window by window.
bool batchable(const std::vector<ProgramNode> &Nodes) {
  if (Nodes.size() != 1 || Nodes[0].NodeKind != ProgramNode::Kind::Accesses)
    return false;
  for (const AccessOp &Op : Nodes[0].Ops)
    if (!Op.Affine)
      return false;
  return true;
}

bool compileStmt(const StmtPtr &S, CompileCtx &Ctx,
                 std::vector<ProgramNode> &Out) {
  ProgramNode Node;
  switch (S->kind()) {
  case StmtKind::For: {
    const For *F = stmtAs<For>(S);
    Node.NodeKind = ProgramNode::Kind::Loop;
    if (!scalarOf(F->Min, Ctx, "the start of loop '" + F->VarName + "'",
                  Node.Min) ||
        !scalarOf(F->Extent, Ctx, "the extent of loop '" + F->VarName + "'",
                  Node.Extent))
      return false;
    Node.Slot = Ctx.push(F->VarName);
    bool Ok = compileStmt(F->Body, Ctx, Node.Body);
    Ctx.pop();
    Node.Batched = batchable(Node.Body);
    Out.push_back(std::move(Node));
    return Ok;
  }
  case StmtKind::LetStmt: {
    const LetStmt *L = stmtAs<LetStmt>(S);
    Node.NodeKind = ProgramNode::Kind::Let;
    if (!scalarOf(L->Value, Ctx, "the value of '" + L->Name + "'",
                  Node.Value))
      return false;
    Node.Slot = Ctx.push(L->Name);
    bool Ok = compileStmt(L->Body, Ctx, Node.Body);
    Ctx.pop();
    Out.push_back(std::move(Node));
    return Ok;
  }
  case StmtKind::Store:
    return compileStore(stmtAs<Store>(S), Ctx, Out);
  case StmtKind::IfThenElse: {
    // Predicated statements: rdom.where and boundary conditions.
    const IfThenElse *I = stmtAs<IfThenElse>(S);
    Node.NodeKind = ProgramNode::Kind::Guard;
    if (!scalarOf(I->Cond, Ctx, "an if condition", Node.Cond) ||
        !compileStmt(I->Then, Ctx, Node.Body) ||
        (I->Else && !compileStmt(I->Else, Ctx, Node.Else)))
      return false;
    Out.push_back(std::move(Node));
    return true;
  }
  case StmtKind::Block:
    for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
      if (!compileStmt(Child, Ctx, Out))
        return false;
    return true;
  }
  return Ctx.refuse("unknown statement kind");
}

} // namespace

ErrorOr<AccessProgram>
ltp::compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                          const std::map<std::string, BufferRef> &Buffers) {
  CompileCtx Ctx{Buffers, {}, 0, {}};
  AccessProgram Program;
  for (const StmtPtr &S : Stmts) {
    assert(S && "compiling a null statement");
    if (!compileStmt(S, Ctx, Program.Roots))
      return ErrorOr<AccessProgram>::makeError(Ctx.Error);
  }
  Program.NumSlots = Ctx.NumSlots;
  return Program;
}

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

namespace {

struct ExecState {
  MemoryHierarchy &Hierarchy;
  std::vector<int64_t> Slots;
  std::vector<int64_t> Scratch;
  std::vector<int64_t> Base;   // per-op window base addresses
  std::vector<int64_t> Stride; // per-op per-iteration strides
  std::vector<uint64_t> DemandLines; // demand lines of the current window
  int64_t LineBytes;
  uint64_t Accesses = 0;

  void issue(AccessKind Kind, uint64_t Address, uint32_t Size) {
    ++Accesses;
    Hierarchy.access(Kind, Address, Size);
  }
};

/// Number of consecutive iterations (starting with the current one, with
/// addresses advancing by \p Stride) for which an access of \p Size at
/// \p Addr stays within its current cache line.
int64_t sameLineRun(int64_t Addr, uint32_t Size, int64_t Stride,
                    int64_t LineBytes) {
  int64_t Off = Addr % LineBytes; // line size need not be a power of two
  if (Off + static_cast<int64_t>(Size) > LineBytes)
    return 1; // spans two lines: run element-wise
  if (Stride == 0)
    return std::numeric_limits<int64_t>::max();
  if (Stride > 0)
    return (LineBytes - Off - static_cast<int64_t>(Size)) / Stride + 1;
  return Off / -Stride + 1;
}

void execList(const std::vector<ProgramNode> &Nodes, ExecState &State);

/// Innermost loop over a single access sequence: issue each iteration's
/// accesses element-wise, then retire the rest of the same-line window
/// in O(1) when every repeat is provably a pure L1 hit (see the header
/// comment for the equivalence argument).
void execBatchedLoop(const ProgramNode &Body, int LoopSlot, int64_t Min,
                     int64_t Extent, ExecState &State) {
  const std::vector<AccessOp> &Ops = Body.Ops;
  size_t NumOps = Ops.size();
  State.Base.resize(NumOps);
  State.Stride.resize(NumOps);
  State.Slots[LoopSlot] = Min;
  uint64_t DemandOps = 0;
  bool HasNT = false;
  for (size_t K = 0; K != NumOps; ++K) {
    State.Base[K] = Ops[K].AddressBytes.eval(State.Slots);
    State.Stride[K] = Ops[K].AddressBytes.coefOf(LoopSlot);
    if (Ops[K].Kind == AccessKind::NonTemporalStore)
      HasNT = true;
    else
      ++DemandOps;
  }
  const int64_t LB = State.LineBytes;
  for (int64_t I = 0; I < Extent;) {
    // One element-wise iteration establishes residency, recency order,
    // dirty bits and prefetch state for the whole window.
    int64_t Window = Extent - I;
    for (size_t K = 0; K != NumOps; ++K) {
      int64_t Addr = State.Base[K] + State.Stride[K] * I;
      State.issue(Ops[K].Kind, static_cast<uint64_t>(Addr), Ops[K].SizeBytes);
      Window = std::min(
          Window, sameLineRun(Addr, Ops[K].SizeBytes, State.Stride[K], LB));
    }
    if (Window <= 1) {
      ++I;
      continue;
    }
    bool Ready = true;
    State.DemandLines.clear();
    for (size_t K = 0; K != NumOps && Ready; ++K) {
      if (Ops[K].Kind == AccessKind::NonTemporalStore)
        continue;
      int64_t Line = (State.Base[K] + State.Stride[K] * I) / LB;
      Ready = State.Hierarchy.repeatHitReady(static_cast<uint64_t>(Line));
      State.DemandLines.push_back(static_cast<uint64_t>(Line));
    }
    if (Ready && HasNT) {
      // A repeated NT store invalidates its line; that is only free of
      // demand-visible effects when no demand op depends on that line
      // or its next-line-prefetch successor.
      for (size_t K = 0; K != NumOps && Ready; ++K) {
        if (Ops[K].Kind != AccessKind::NonTemporalStore)
          continue;
        int64_t NTLine = (State.Base[K] + State.Stride[K] * I) / LB;
        for (size_t J = 0; J != NumOps && Ready; ++J) {
          if (Ops[J].Kind == AccessKind::NonTemporalStore)
            continue;
          int64_t DLine = (State.Base[J] + State.Stride[J] * I) / LB;
          Ready = NTLine != DLine && NTLine != DLine + 1;
        }
      }
    }
    if (!Ready) {
      ++I;
      continue;
    }
    uint64_t Repeats = static_cast<uint64_t>(Window - 1);
#ifdef LTP_PARANOID_BATCH
    {
      HierarchyStats Before = State.Hierarchy.stats();
      for (int64_t R = I + 1; R < I + Window; ++R)
        for (size_t K = 0; K != NumOps; ++K)
          State.issue(Ops[K].Kind,
                      static_cast<uint64_t>(State.Base[K] + State.Stride[K] * R),
                      Ops[K].SizeBytes);
      HierarchyStats After = State.Hierarchy.stats();
      bool Pure =
          After.L1.DemandHits == Before.L1.DemandHits + DemandOps * Repeats &&
          After.L1.DemandMisses == Before.L1.DemandMisses &&
          After.L1.PrefetchFills == Before.L1.PrefetchFills &&
          After.L1.PrefetchHits == Before.L1.PrefetchHits &&
          After.PrefetchIssuedL1 == Before.PrefetchIssuedL1 &&
          After.PrefetchIssuedL2 == Before.PrefetchIssuedL2 &&
          After.NonTemporalStores ==
              Before.NonTemporalStores + (HasNT ? Repeats : 0);
      if (!Pure) {
        std::fprintf(stderr,
                     "IMPURE window: I=%lld Window=%lld NumOps=%zu "
                     "DemandOps=%llu\n",
                     (long long)I, (long long)Window, NumOps,
                     (unsigned long long)DemandOps);
        for (size_t K = 0; K != NumOps; ++K)
          std::fprintf(stderr,
                       "  op%zu kind=%d base=%lld stride=%lld line=%lld\n", K,
                       (int)Ops[K].Kind,
                       (long long)State.Base[K], (long long)State.Stride[K],
                       (long long)((State.Base[K] + State.Stride[K] * I) / LB));
        std::fprintf(stderr,
                     "  dHit %llu->%llu dMiss %llu->%llu pfIss %llu->%llu "
                     "pfFill %llu->%llu pfHit %llu->%llu\n",
                     (unsigned long long)Before.L1.DemandHits,
                     (unsigned long long)After.L1.DemandHits,
                     (unsigned long long)Before.L1.DemandMisses,
                     (unsigned long long)After.L1.DemandMisses,
                     (unsigned long long)Before.PrefetchIssuedL1,
                     (unsigned long long)After.PrefetchIssuedL1,
                     (unsigned long long)Before.L1.PrefetchFills,
                     (unsigned long long)After.L1.PrefetchFills,
                     (unsigned long long)Before.L1.PrefetchHits,
                     (unsigned long long)After.L1.PrefetchHits);
        std::abort();
      }
      State.Accesses += NumOps * Repeats;
      I += Window;
      continue;
    }
#endif
    if (DemandOps)
      State.Hierarchy.retireRepeatHits(State.DemandLines.data(),
                                       State.DemandLines.size(), Repeats);
    if (HasNT)
      for (size_t K = 0; K != NumOps; ++K) {
        if (Ops[K].Kind != AccessKind::NonTemporalStore)
          continue;
        int64_t NTLine = (State.Base[K] + State.Stride[K] * I) / LB;
        State.Hierarchy.retireRepeatNonTemporal(
            static_cast<uint64_t>(NTLine), Repeats,
            static_cast<uint64_t>(Ops[K].SizeBytes) * Repeats);
      }
    State.Accesses += NumOps * Repeats;
    I += Window;
  }
}

void execNode(const ProgramNode &Node, ExecState &State) {
  switch (Node.NodeKind) {
  case ProgramNode::Kind::Loop: {
    int64_t Min = Node.Min.eval(State.Slots, State.Scratch);
    int64_t Extent = Node.Extent.eval(State.Slots, State.Scratch);
    if (Extent <= 0)
      return;
    if (Node.Batched) {
      execBatchedLoop(Node.Body[0], Node.Slot, Min, Extent, State);
      return;
    }
    for (int64_t I = Min; I != Min + Extent; ++I) {
      State.Slots[Node.Slot] = I;
      execList(Node.Body, State);
    }
    return;
  }
  case ProgramNode::Kind::Let:
    State.Slots[Node.Slot] = Node.Value.eval(State.Slots, State.Scratch);
    execList(Node.Body, State);
    return;
  case ProgramNode::Kind::Guard:
    execList(Node.Cond.eval(State.Slots, State.Scratch) != 0 ? Node.Body
                                                             : Node.Else,
             State);
    return;
  case ProgramNode::Kind::Accesses:
    for (const AccessOp &Op : Node.Ops) {
      int64_t Address = Op.Affine
                            ? Op.AddressBytes.eval(State.Slots)
                            : Op.Address.eval(State.Slots, State.Scratch);
      State.issue(Op.Kind, static_cast<uint64_t>(Address), Op.SizeBytes);
    }
    return;
  }
}

void execList(const std::vector<ProgramNode> &Nodes, ExecState &State) {
  for (const ProgramNode &Node : Nodes)
    execNode(Node, State);
}

} // namespace

uint64_t AccessProgram::run(MemoryHierarchy &Hierarchy) const {
  ExecState State{Hierarchy, std::vector<int64_t>(
                                 static_cast<size_t>(NumSlots), 0),
                  {},        {},
                  {},        {},
                  Hierarchy.lineBytes()};
  execList(Roots, State);
  return State.Accesses;
}
