//===- TreeWalker.cpp - tree-walking oracle for lowered IR ----------------===//

#include "tests/oracles/TreeWalker.h"

#include "benchmarks/PipelineRunner.h"
#include "lang/Bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ltp;
using namespace ltp::ir;

namespace {

/// Runtime scalar value: either integer or floating point.
struct Value {
  bool IsFloat = false;
  int64_t I = 0;
  double F = 0.0;

  static Value makeInt(int64_t V) {
    Value Result;
    Result.I = V;
    return Result;
  }
  static Value makeFloat(double V) {
    Value Result;
    Result.IsFloat = true;
    Result.F = V;
    return Result;
  }

  int64_t asInt() const { return IsFloat ? static_cast<int64_t>(F) : I; }
  double asFloat() const { return IsFloat ? F : static_cast<double>(I); }
};

/// Execution environment: buffers, loop-variable bindings and the hook.
struct Env {
  const std::map<std::string, BufferRef> &Buffers;
  std::map<std::string, int64_t> Scalars;
  const WalkHook &Hook;

  const BufferRef &buffer(const std::string &Name) const {
    auto It = Buffers.find(Name);
    assert(It != Buffers.end() && "statement references an unbound buffer");
    return It->second;
  }

  int64_t scalar(const std::string &Name) const {
    auto It = Scalars.find(Name);
    assert(It != Scalars.end() && "reference to an unbound variable");
    return It->second;
  }
};

Value evalExpr(const ExprPtr &E, Env &Environment);

/// Evaluates the index expressions of a load/store into element indices.
std::vector<int64_t> evalIndices(const std::vector<ExprPtr> &Indices,
                                 Env &Environment) {
  std::vector<int64_t> Out;
  Out.reserve(Indices.size());
  for (const ExprPtr &Index : Indices)
    Out.push_back(evalExpr(Index, Environment).asInt());
  return Out;
}

/// Reads one element of \p Buf at \p Offset as a Value.
Value readElement(const BufferRef &Buf, int64_t Offset) {
  switch (Buf.ElemType.kind()) {
  case TypeKind::Float32:
    return Value::makeFloat(static_cast<const float *>(Buf.Data)[Offset]);
  case TypeKind::Float64:
    return Value::makeFloat(static_cast<const double *>(Buf.Data)[Offset]);
  case TypeKind::Int32:
    return Value::makeInt(static_cast<const int32_t *>(Buf.Data)[Offset]);
  case TypeKind::Int64:
    return Value::makeInt(static_cast<const int64_t *>(Buf.Data)[Offset]);
  case TypeKind::UInt32:
    return Value::makeInt(static_cast<const uint32_t *>(Buf.Data)[Offset]);
  case TypeKind::UInt8:
  case TypeKind::Bool:
    return Value::makeInt(static_cast<const uint8_t *>(Buf.Data)[Offset]);
  }
  assert(false && "unknown element type");
  return Value();
}

/// Writes \p V (converted to the buffer's element type) at \p Offset.
void writeElement(const BufferRef &Buf, int64_t Offset, const Value &V) {
  switch (Buf.ElemType.kind()) {
  case TypeKind::Float32:
    static_cast<float *>(Buf.Data)[Offset] = static_cast<float>(V.asFloat());
    return;
  case TypeKind::Float64:
    static_cast<double *>(Buf.Data)[Offset] = V.asFloat();
    return;
  case TypeKind::Int32:
    static_cast<int32_t *>(Buf.Data)[Offset] =
        static_cast<int32_t>(V.asInt());
    return;
  case TypeKind::Int64:
    static_cast<int64_t *>(Buf.Data)[Offset] = V.asInt();
    return;
  case TypeKind::UInt32:
    static_cast<uint32_t *>(Buf.Data)[Offset] =
        static_cast<uint32_t>(V.asInt());
    return;
  case TypeKind::UInt8:
  case TypeKind::Bool:
    static_cast<uint8_t *>(Buf.Data)[Offset] =
        static_cast<uint8_t>(V.asInt());
    return;
  }
  assert(false && "unknown element type");
}

Value evalBinary(const Binary *Node, Env &Environment) {
  Value A = evalExpr(Node->A, Environment);
  Value B = evalExpr(Node->B, Environment);
  bool FloatOp = A.IsFloat || B.IsFloat;
  switch (Node->Op) {
  case BinOp::Add:
    return FloatOp ? Value::makeFloat(A.asFloat() + B.asFloat())
                   : Value::makeInt(A.I + B.I);
  case BinOp::Sub:
    return FloatOp ? Value::makeFloat(A.asFloat() - B.asFloat())
                   : Value::makeInt(A.I - B.I);
  case BinOp::Mul:
    return FloatOp ? Value::makeFloat(A.asFloat() * B.asFloat())
                   : Value::makeInt(A.I * B.I);
  case BinOp::Div:
    if (FloatOp)
      return Value::makeFloat(A.asFloat() / B.asFloat());
    assert(B.I != 0 && "integer division by zero");
    return Value::makeInt(A.I / B.I);
  case BinOp::Mod:
    assert(!FloatOp && "modulo requires integer operands");
    assert(B.I != 0 && "integer modulo by zero");
    return Value::makeInt(A.I % B.I);
  case BinOp::Min:
    return FloatOp ? Value::makeFloat(std::min(A.asFloat(), B.asFloat()))
                   : Value::makeInt(std::min(A.I, B.I));
  case BinOp::Max:
    return FloatOp ? Value::makeFloat(std::max(A.asFloat(), B.asFloat()))
                   : Value::makeInt(std::max(A.I, B.I));
  case BinOp::BitAnd:
    assert(!FloatOp && "bitwise op requires integer operands");
    return Value::makeInt(A.I & B.I);
  case BinOp::BitOr:
    assert(!FloatOp && "bitwise op requires integer operands");
    return Value::makeInt(A.I | B.I);
  case BinOp::BitXor:
    assert(!FloatOp && "bitwise op requires integer operands");
    return Value::makeInt(A.I ^ B.I);
  case BinOp::LT:
    return Value::makeInt(FloatOp ? A.asFloat() < B.asFloat() : A.I < B.I);
  case BinOp::LE:
    return Value::makeInt(FloatOp ? A.asFloat() <= B.asFloat()
                                  : A.I <= B.I);
  case BinOp::GT:
    return Value::makeInt(FloatOp ? A.asFloat() > B.asFloat() : A.I > B.I);
  case BinOp::GE:
    return Value::makeInt(FloatOp ? A.asFloat() >= B.asFloat()
                                  : A.I >= B.I);
  case BinOp::EQ:
    return Value::makeInt(FloatOp ? A.asFloat() == B.asFloat()
                                  : A.I == B.I);
  case BinOp::NE:
    return Value::makeInt(FloatOp ? A.asFloat() != B.asFloat()
                                  : A.I != B.I);
  case BinOp::And:
    return Value::makeInt((A.asInt() != 0) && (B.asInt() != 0));
  case BinOp::Or:
    return Value::makeInt((A.asInt() != 0) || (B.asInt() != 0));
  }
  assert(false && "unknown binary operator");
  return Value();
}

Value evalExpr(const ExprPtr &E, Env &Environment) {
  switch (E->kind()) {
  case ExprKind::IntImm:
    return Value::makeInt(exprAs<IntImm>(E)->Value);
  case ExprKind::FloatImm:
    return Value::makeFloat(exprAs<FloatImm>(E)->Value);
  case ExprKind::VarRef:
    return Value::makeInt(Environment.scalar(exprAs<VarRef>(E)->Name));
  case ExprKind::Load: {
    const Load *L = exprAs<Load>(E);
    const BufferRef &Buf = Environment.buffer(L->BufferName);
    int64_t Offset = Buf.offsetOf(evalIndices(L->Indices, Environment));
    if (Environment.Hook) {
      uint64_t Address = reinterpret_cast<uint64_t>(Buf.Data) +
                         static_cast<uint64_t>(Offset) *
                             Buf.ElemType.bytes();
      Environment.Hook(AccessKind::Load, Address,
                       static_cast<uint32_t>(Buf.ElemType.bytes()));
    }
    return readElement(Buf, Offset);
  }
  case ExprKind::Binary:
    return evalBinary(exprAs<Binary>(E), Environment);
  case ExprKind::Cast: {
    const Cast *C = exprAs<Cast>(E);
    Value V = evalExpr(C->Value, Environment);
    if (C->type().isFloat()) {
      // Float32 casts must round through float to match compiled code.
      double D = V.asFloat();
      if (C->type() == Type::float32())
        D = static_cast<float>(D);
      return Value::makeFloat(D);
    }
    int64_t IV = V.asInt();
    switch (C->type().kind()) {
    case TypeKind::Int32:
      return Value::makeInt(static_cast<int32_t>(IV));
    case TypeKind::UInt32:
      return Value::makeInt(static_cast<uint32_t>(IV));
    case TypeKind::UInt8:
      return Value::makeInt(static_cast<uint8_t>(IV));
    case TypeKind::Bool:
      return Value::makeInt(IV != 0);
    default:
      return Value::makeInt(IV);
    }
  }
  case ExprKind::Select: {
    const Select *S = exprAs<Select>(E);
    // Scalar select evaluates only the taken arm.
    if (evalExpr(S->Cond, Environment).asInt() != 0)
      return evalExpr(S->TrueValue, Environment);
    return evalExpr(S->FalseValue, Environment);
  }
  }
  assert(false && "unknown expression kind");
  return Value();
}

void execStmt(const StmtPtr &S, Env &Environment) {
  switch (S->kind()) {
  case StmtKind::For: {
    const For *F = stmtAs<For>(S);
    int64_t Min = evalExpr(F->Min, Environment).asInt();
    int64_t Extent = evalExpr(F->Extent, Environment).asInt();
    if (Extent <= 0)
      return;
    auto Saved = Environment.Scalars.find(F->VarName);
    bool HadBinding = Saved != Environment.Scalars.end();
    int64_t SavedValue = HadBinding ? Saved->second : 0;
    for (int64_t I = Min; I != Min + Extent; ++I) {
      Environment.Scalars[F->VarName] = I;
      execStmt(F->Body, Environment);
    }
    if (HadBinding)
      Environment.Scalars[F->VarName] = SavedValue;
    else
      Environment.Scalars.erase(F->VarName);
    return;
  }
  case StmtKind::Store: {
    const Store *St = stmtAs<Store>(S);
    const BufferRef &Buf = Environment.buffer(St->BufferName);
    int64_t Offset = Buf.offsetOf(evalIndices(St->Indices, Environment));
    Value V = evalExpr(St->Value, Environment);
    if (Environment.Hook) {
      uint64_t Address = reinterpret_cast<uint64_t>(Buf.Data) +
                         static_cast<uint64_t>(Offset) *
                             Buf.ElemType.bytes();
      Environment.Hook(
          St->NonTemporal ? AccessKind::NonTemporalStore : AccessKind::Store,
          Address, static_cast<uint32_t>(Buf.ElemType.bytes()));
    }
    writeElement(Buf, Offset, V);
    return;
  }
  case StmtKind::LetStmt: {
    const LetStmt *L = stmtAs<LetStmt>(S);
    int64_t V = evalExpr(L->Value, Environment).asInt();
    auto Saved = Environment.Scalars.find(L->Name);
    bool HadBinding = Saved != Environment.Scalars.end();
    int64_t SavedValue = HadBinding ? Saved->second : 0;
    Environment.Scalars[L->Name] = V;
    execStmt(L->Body, Environment);
    if (HadBinding)
      Environment.Scalars[L->Name] = SavedValue;
    else
      Environment.Scalars.erase(L->Name);
    return;
  }
  case StmtKind::IfThenElse: {
    const IfThenElse *I = stmtAs<IfThenElse>(S);
    if (evalExpr(I->Cond, Environment).asInt() != 0)
      execStmt(I->Then, Environment);
    else if (I->Else)
      execStmt(I->Else, Environment);
    return;
  }
  case StmtKind::Block: {
    for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
      execStmt(Child, Environment);
    return;
  }
  }
  assert(false && "unknown statement kind");
}

} // namespace

void ltp::walkStmt(const StmtPtr &S,
                   const std::map<std::string, BufferRef> &Buffers,
                   const WalkHook &Hook) {
  assert(S && "interpreting a null statement");
  Env Environment{Buffers, {}, Hook};
  execStmt(S, Environment);
}

std::string ltp::walkPipeline(const BenchmarkInstance &Instance) {
  std::vector<StmtPtr> Lowered = lowerPipeline(Instance);
  for (const StmtPtr &S : Lowered) {
    std::string Diag = validateAccesses(S, Instance.Buffers);
    if (!Diag.empty())
      return "schedule accesses out of bounds: " + Diag;
  }
  for (const StmtPtr &S : Lowered)
    walkStmt(S, Instance.Buffers);
  return "";
}

std::vector<WalkerSim>
ltp::simulateOnWalker(const std::vector<StmtPtr> &Stmts,
                      const std::map<std::string, BufferRef> &Buffers,
                      const std::vector<ArchParams> &Archs) {
  std::vector<MemoryHierarchy> Hierarchies(Archs.begin(), Archs.end());
  uint64_t Accesses = 0;
  WalkHook Hook = [&](AccessKind Kind, uint64_t Address, uint32_t Size) {
    ++Accesses;
    for (MemoryHierarchy &H : Hierarchies)
      H.access(Kind, Address, Size);
  };
  for (const StmtPtr &S : Stmts)
    walkStmt(S, Buffers, Hook);
  std::vector<WalkerSim> Results;
  for (const MemoryHierarchy &H : Hierarchies)
    Results.push_back({H.stats(), Accesses});
  return Results;
}
