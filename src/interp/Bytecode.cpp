//===- Bytecode.cpp - compile lowered IR to register bytecode ------------===//

#include "interp/Bytecode.h"

#include <cassert>

using namespace ltp;
using namespace ltp::ir;
using namespace ltp::vm;

namespace {

/// Runtime value class of a compiled expression. Integers (including Bool
/// and the unsigned kinds) live in int64 registers like the tree-walker's
/// scalar values; floats keep their own width so Float32 math runs in
/// `float`.
enum class VC : uint8_t { I64, F32, F64 };

VC classOfType(Type T) {
  switch (T.kind()) {
  case TypeKind::Float32:
    return VC::F32;
  case TypeKind::Float64:
    return VC::F64;
  default:
    return VC::I64;
  }
}

/// Arithmetic promotion: F64 wins, then F32, then I64. Mixing F32 with I64
/// computes in float — the C back end's semantics (the tree-walker promotes
/// to double instead; see Bytecode.h).
VC promote(VC A, VC B) {
  if (A == VC::F64 || B == VC::F64)
    return VC::F64;
  if (A == VC::F32 || B == VC::F32)
    return VC::F32;
  return VC::I64;
}

class Compiler {
public:
  Compiler(const std::map<std::string, BufferRef> &Buffers,
           const CompileOptions &Options)
      : Buffers(Buffers), Options(Options) {}

  Program run(const StmtPtr &S) {
    compileStmt(S);
    emit(Op::Halt);
    P.NumRegs = NextReg;
    return std::move(P);
  }

private:
  struct RV {
    uint16_t Reg;
    VC Class;
  };

  Program P;
  const std::map<std::string, BufferRef> &Buffers;
  CompileOptions Options;
  uint32_t NextReg = 0;
  /// Innermost binding last; shadowed bindings stay underneath.
  std::map<std::string, std::vector<uint16_t>> Scope;
  std::map<std::string, uint16_t> BufferIndex;

  uint16_t newReg() {
    assert(NextReg < 65535 && "register file overflow");
    return static_cast<uint16_t>(NextReg++);
  }

  size_t emit(Op Code, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              int64_t Imm = 0) {
    P.Insts.push_back(Inst{Code, A, B, C, Imm});
    return P.Insts.size() - 1;
  }

  size_t here() const { return P.Insts.size(); }

  void patchTarget(size_t At) {
    P.Insts[At].Imm = static_cast<int64_t>(here());
  }

  uint16_t bufferIndex(const std::string &Name) {
    auto It = BufferIndex.find(Name);
    if (It != BufferIndex.end())
      return It->second;
    auto Buf = Buffers.find(Name);
    assert(Buf != Buffers.end() &&
           "statement references an unbound buffer");
    BufferDesc D;
    D.Data = Buf->second.Data;
    D.NumElements = Buf->second.numElements();
    uint16_t Index = static_cast<uint16_t>(P.Buffers.size());
    P.Buffers.push_back(D);
    BufferIndex.emplace(Name, Index);
    return Index;
  }

  uint16_t varReg(const std::string &Name) {
    auto It = Scope.find(Name);
    assert(It != Scope.end() && !It->second.empty() &&
           "reference to an unbound variable");
    return It->second.back();
  }

  /// Structural value class of \p E, with no code emitted; must agree with
  /// what compileExpr produces (Select needs the unified class of both
  /// arms before either arm is compiled).
  VC classOf(const ExprPtr &E) const {
    switch (E->kind()) {
    case ExprKind::IntImm:
    case ExprKind::VarRef:
      return VC::I64;
    case ExprKind::FloatImm:
    case ExprKind::Cast:
      return classOfType(E->type());
    case ExprKind::Load: {
      auto It = Buffers.find(exprAs<Load>(E)->BufferName);
      assert(It != Buffers.end() &&
             "statement references an unbound buffer");
      return classOfType(It->second.ElemType);
    }
    case ExprKind::Binary: {
      const Binary *B = exprAs<Binary>(E);
      if (isBooleanOp(B->Op))
        return VC::I64;
      switch (B->Op) {
      case BinOp::Mod:
      case BinOp::BitAnd:
      case BinOp::BitOr:
      case BinOp::BitXor:
        return VC::I64;
      default:
        return promote(classOf(B->A), classOf(B->B));
      }
    }
    case ExprKind::Select: {
      const Select *S = exprAs<Select>(E);
      return promote(classOf(S->TrueValue), classOf(S->FalseValue));
    }
    }
    assert(false && "unknown expression kind");
    return VC::I64;
  }

  /// Emits a conversion of \p V to \p Target (no-op when already there).
  uint16_t convert(RV V, VC Target) {
    if (V.Class == Target)
      return V.Reg;
    uint16_t Dst = newReg();
    Op Code;
    if (V.Class == VC::I64)
      Code = Target == VC::F32 ? Op::I64ToF32 : Op::I64ToF64;
    else if (V.Class == VC::F32)
      Code = Target == VC::F64 ? Op::F32ToF64 : Op::F32ToI64;
    else
      Code = Target == VC::F32 ? Op::F64ToF32 : Op::F64ToI64;
    emit(Code, Dst, V.Reg);
    return Dst;
  }

  uint16_t toI64(RV V) { return convert(V, VC::I64); }

  /// Compiles the index expressions of one load/store into an element
  /// offset register, folding the buffer's strides in as immediates. Index
  /// evaluation order (and therefore any loads feeding an index) matches
  /// the tree-walker's evalIndices: left to right, each index fully.
  uint16_t compileOffset(const std::vector<ExprPtr> &Indices,
                         const std::string &BufferName) {
    const BufferRef &Ref = Buffers.at(BufferName);
    assert(Indices.size() == Ref.Extents.size() && "index rank mismatch");
    std::vector<uint16_t> Idx;
    Idx.reserve(Indices.size());
    for (const ExprPtr &Index : Indices)
      Idx.push_back(toI64(compileExpr(Index)));
    uint16_t Off = newReg();
    if (Ref.Strides[0] == 1)
      emit(Op::Mov, Off, Idx[0]);
    else
      emit(Op::MulImm, Off, Idx[0], 0, Ref.Strides[0]);
    for (size_t D = 1; D != Idx.size(); ++D)
      emit(Op::MAddImm, Off, Off, Idx[D], Ref.Strides[D]);
    return Off;
  }

  /// Typed opcode for a binary operator at \p Class. Comparison results
  /// are int64 0/1 regardless of operand class.
  Op binaryOp(BinOp O, VC Class) {
    switch (O) {
    case BinOp::Add:
      return Class == VC::I64   ? Op::AddI
             : Class == VC::F32 ? Op::AddF32
                                : Op::AddF64;
    case BinOp::Sub:
      return Class == VC::I64   ? Op::SubI
             : Class == VC::F32 ? Op::SubF32
                                : Op::SubF64;
    case BinOp::Mul:
      return Class == VC::I64   ? Op::MulI
             : Class == VC::F32 ? Op::MulF32
                                : Op::MulF64;
    case BinOp::Div:
      return Class == VC::I64   ? Op::DivI
             : Class == VC::F32 ? Op::DivF32
                                : Op::DivF64;
    case BinOp::Min:
      return Class == VC::I64   ? Op::MinI
             : Class == VC::F32 ? Op::MinF32
                                : Op::MinF64;
    case BinOp::Max:
      return Class == VC::I64   ? Op::MaxI
             : Class == VC::F32 ? Op::MaxF32
                                : Op::MaxF64;
    case BinOp::Mod:
      assert(Class == VC::I64 && "modulo requires integer operands");
      return Op::ModI;
    case BinOp::BitAnd:
      assert(Class == VC::I64 && "bitwise op requires integer operands");
      return Op::BitAndI;
    case BinOp::BitOr:
      assert(Class == VC::I64 && "bitwise op requires integer operands");
      return Op::BitOrI;
    case BinOp::BitXor:
      assert(Class == VC::I64 && "bitwise op requires integer operands");
      return Op::BitXorI;
    case BinOp::LT:
      return Class == VC::I64   ? Op::LTI
             : Class == VC::F32 ? Op::LTF32
                                : Op::LTF64;
    case BinOp::LE:
      return Class == VC::I64   ? Op::LEI
             : Class == VC::F32 ? Op::LEF32
                                : Op::LEF64;
    case BinOp::GT:
      return Class == VC::I64   ? Op::GTI
             : Class == VC::F32 ? Op::GTF32
                                : Op::GTF64;
    case BinOp::GE:
      return Class == VC::I64   ? Op::GEI
             : Class == VC::F32 ? Op::GEF32
                                : Op::GEF64;
    case BinOp::EQ:
      return Class == VC::I64   ? Op::EQI
             : Class == VC::F32 ? Op::EQF32
                                : Op::EQF64;
    case BinOp::NE:
      return Class == VC::I64   ? Op::NEI
             : Class == VC::F32 ? Op::NEF32
                                : Op::NEF64;
    case BinOp::And:
      return Op::AndL;
    case BinOp::Or:
      return Op::OrL;
    }
    assert(false && "unknown binary operator");
    return Op::AddI;
  }

  RV compileBinary(const Binary *Node) {
    RV A = compileExpr(Node->A);
    RV B = compileExpr(Node->B);
    uint16_t Dst = newReg();
    if (Node->Op == BinOp::And || Node->Op == BinOp::Or) {
      // Eager truthiness on int64, like the tree-walker's asInt() != 0.
      emit(binaryOp(Node->Op, VC::I64), Dst, toI64(A), toI64(B));
      return {Dst, VC::I64};
    }
    if (isBooleanOp(Node->Op)) {
      VC Common = promote(A.Class, B.Class);
      emit(binaryOp(Node->Op, Common), Dst, convert(A, Common),
           convert(B, Common));
      return {Dst, VC::I64};
    }
    switch (Node->Op) {
    case BinOp::Mod:
    case BinOp::BitAnd:
    case BinOp::BitOr:
    case BinOp::BitXor:
      emit(binaryOp(Node->Op, VC::I64), Dst, toI64(A), toI64(B));
      return {Dst, VC::I64};
    default: {
      VC Common = promote(A.Class, B.Class);
      emit(binaryOp(Node->Op, Common), Dst, convert(A, Common),
           convert(B, Common));
      return {Dst, Common};
    }
    }
  }

  RV compileCast(const Cast *Node) {
    RV V = compileExpr(Node->Value);
    switch (Node->type().kind()) {
    case TypeKind::Float32:
      return {convert(V, VC::F32), VC::F32};
    case TypeKind::Float64:
      return {convert(V, VC::F64), VC::F64};
    case TypeKind::Int64:
      return {toI64(V), VC::I64};
    case TypeKind::Int32: {
      uint16_t Dst = newReg();
      emit(Op::TruncI32, Dst, toI64(V));
      return {Dst, VC::I64};
    }
    case TypeKind::UInt32: {
      uint16_t Dst = newReg();
      emit(Op::TruncU32, Dst, toI64(V));
      return {Dst, VC::I64};
    }
    case TypeKind::UInt8: {
      uint16_t Dst = newReg();
      emit(Op::TruncU8, Dst, toI64(V));
      return {Dst, VC::I64};
    }
    case TypeKind::Bool: {
      uint16_t Dst = newReg();
      emit(Op::BoolI, Dst, toI64(V));
      return {Dst, VC::I64};
    }
    }
    assert(false && "unknown cast target");
    return {0, VC::I64};
  }

  /// Typed load opcode.
  static Op loadOp(TypeKind Kind) {
    switch (Kind) {
    case TypeKind::Float32:
      return Op::LdF32;
    case TypeKind::Float64:
      return Op::LdF64;
    case TypeKind::Int32:
      return Op::LdI32;
    case TypeKind::Int64:
      return Op::LdI64;
    case TypeKind::UInt32:
      return Op::LdU32;
    case TypeKind::UInt8:
    case TypeKind::Bool:
      return Op::LdU8;
    }
    assert(false && "unknown element type");
    return Op::LdF32;
  }

  static Op storeOp(TypeKind Kind) {
    switch (Kind) {
    case TypeKind::Float32:
      return Op::StF32;
    case TypeKind::Float64:
      return Op::StF64;
    case TypeKind::Int32:
      return Op::StI32;
    case TypeKind::Int64:
      return Op::StI64;
    case TypeKind::UInt32:
      return Op::StU32;
    case TypeKind::UInt8:
    case TypeKind::Bool:
      return Op::StU8;
    }
    assert(false && "unknown element type");
    return Op::StF32;
  }

  RV compileExpr(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::IntImm: {
      uint16_t Dst = newReg();
      emit(Op::ConstI, Dst, 0, 0, exprAs<IntImm>(E)->Value);
      return {Dst, VC::I64};
    }
    case ExprKind::FloatImm: {
      const FloatImm *F = exprAs<FloatImm>(E);
      uint16_t Dst = newReg();
      if (E->type() == Type::float32()) {
        float V = static_cast<float>(F->Value);
        int64_t Bits = 0;
        static_assert(sizeof(V) == 4, "float width");
        __builtin_memcpy(&Bits, &V, sizeof(V));
        emit(Op::ConstF32, Dst, 0, 0, Bits);
        return {Dst, VC::F32};
      }
      int64_t Bits = 0;
      __builtin_memcpy(&Bits, &F->Value, sizeof(F->Value));
      emit(Op::ConstF64, Dst, 0, 0, Bits);
      return {Dst, VC::F64};
    }
    case ExprKind::VarRef:
      return {varReg(exprAs<VarRef>(E)->Name), VC::I64};
    case ExprKind::Load: {
      const Load *L = exprAs<Load>(E);
      uint16_t Buf = bufferIndex(L->BufferName);
      uint16_t Off = compileOffset(L->Indices, L->BufferName);
      TypeKind Kind = Buffers.at(L->BufferName).ElemType.kind();
      uint16_t Dst = newReg();
      emit(loadOp(Kind), Dst, Off, Buf);
      return {Dst, classOfType(Buffers.at(L->BufferName).ElemType)};
    }
    case ExprKind::Binary:
      return compileBinary(exprAs<Binary>(E));
    case ExprKind::Cast:
      return compileCast(exprAs<Cast>(E));
    case ExprKind::Select: {
      const Select *S = exprAs<Select>(E);
      // Branches preserve the walker's lazy select: only the taken arm
      // evaluates (the untaken arm may be out of bounds).
      VC Common = promote(classOf(S->TrueValue), classOf(S->FalseValue));
      uint16_t Cond = toI64(compileExpr(S->Cond));
      uint16_t Dst = newReg();
      size_t ToElse = emit(Op::BrZ, Cond);
      emit(Op::Mov, Dst, convert(compileExpr(S->TrueValue), Common));
      size_t ToEnd = emit(Op::Jmp);
      patchTarget(ToElse);
      emit(Op::Mov, Dst, convert(compileExpr(S->FalseValue), Common));
      patchTarget(ToEnd);
      return {Dst, Common};
    }
    }
    assert(false && "unknown expression kind");
    return {0, VC::I64};
  }

  void pushBinding(const std::string &Name, uint16_t Reg) {
    Scope[Name].push_back(Reg);
  }

  void popBinding(const std::string &Name) {
    auto It = Scope.find(Name);
    assert(It != Scope.end() && !It->second.empty());
    It->second.pop_back();
  }

  void compileFor(const For *F) {
    uint16_t Min = toI64(compileExpr(F->Min));
    uint16_t Ext = toI64(compileExpr(F->Extent));
    uint16_t Var = newReg();
    if (F->Kind == ForKind::Parallel && Options.Parallel) {
      size_t Par = emit(Op::ParFor, Var, Min, Ext);
      pushBinding(F->VarName, Var);
      compileStmt(F->Body);
      popBinding(F->VarName);
      emit(Op::EndPar);
      patchTarget(Par);
      return;
    }
    uint16_t End = newReg();
    emit(Op::AddI, End, Min, Ext);
    emit(Op::Mov, Var, Min);
    size_t Top = here();
    size_t Exit = emit(Op::BrGE, Var, End);
    pushBinding(F->VarName, Var);
    compileStmt(F->Body);
    popBinding(F->VarName);
    emit(Op::IncI, Var);
    emit(Op::Jmp, 0, 0, 0, static_cast<int64_t>(Top));
    patchTarget(Exit);
  }

  void compileStore(const Store *St) {
    uint16_t Buf = bufferIndex(St->BufferName);
    // Walker order: indices first, then the value, then the store event.
    uint16_t Off = compileOffset(St->Indices, St->BufferName);
    RV V = compileExpr(St->Value);
    Type Elem = Buffers.at(St->BufferName).ElemType;
    uint16_t Val;
    switch (Elem.kind()) {
    case TypeKind::Float32:
      Val = convert(V, VC::F32);
      break;
    case TypeKind::Float64:
      Val = convert(V, VC::F64);
      break;
    default:
      Val = toI64(V);
      break;
    }
    emit(storeOp(Elem.kind()), Val, Off, Buf);
  }

  void compileStmt(const StmtPtr &S) {
    switch (S->kind()) {
    case StmtKind::For:
      compileFor(stmtAs<For>(S));
      return;
    case StmtKind::Store:
      compileStore(stmtAs<Store>(S));
      return;
    case StmtKind::LetStmt: {
      const LetStmt *L = stmtAs<LetStmt>(S);
      // Lets are integer scalars, like the walker's asInt() binding.
      uint16_t Val = toI64(compileExpr(L->Value));
      pushBinding(L->Name, Val);
      compileStmt(L->Body);
      popBinding(L->Name);
      return;
    }
    case StmtKind::IfThenElse: {
      const IfThenElse *I = stmtAs<IfThenElse>(S);
      uint16_t Cond = toI64(compileExpr(I->Cond));
      size_t ToElse = emit(Op::BrZ, Cond);
      compileStmt(I->Then);
      if (I->Else) {
        size_t ToEnd = emit(Op::Jmp);
        patchTarget(ToElse);
        compileStmt(I->Else);
        patchTarget(ToEnd);
      } else {
        patchTarget(ToElse);
      }
      return;
    }
    case StmtKind::Block: {
      for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
        compileStmt(Child);
      return;
    }
    }
    assert(false && "unknown statement kind");
  }
};

} // namespace

Program ltp::vm::compile(const StmtPtr &S,
                         const std::map<std::string, BufferRef> &Buffers,
                         const CompileOptions &Options) {
  assert(S && "compiling a null statement");
  return Compiler(Buffers, Options).run(S);
}
