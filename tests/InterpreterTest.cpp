//===- InterpreterTest.cpp - interpreter semantics tests --------------------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// Direct tests of interpreter semantics: expression evaluation, casts,
// lazy select, let bindings, predicates and serial/parallel equivalence,
// plus the tree-walking oracle's memory-trace hook (the reference trace
// of the cache simulator).
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/Simplify.h"
#include "lang/Func.h"
#include "lang/Lower.h"
#include "tests/oracles/TreeWalker.h"

#include <gtest/gtest.h>

using namespace ltp;
using namespace ltp::ir;

namespace {

TEST(InterpreterTest, IntegerArithmeticAndBitwise) {
  Buffer<int32_t> Out({1});
  // Out[0] = ((13 % 5) << nothing) | (6 & 3) ^ 1 computed via IR ops.
  ExprPtr E = Binary::make(
      BinOp::BitXor,
      Binary::make(BinOp::BitOr,
                   Binary::make(BinOp::Mod, IntImm::make(13),
                                IntImm::make(5)),
                   Binary::make(BinOp::BitAnd, IntImm::make(6),
                                IntImm::make(3))),
      IntImm::make(1));
  StmtPtr S = Store::make("Out", {IntImm::make(0)}, E);
  interpret(S, {{"Out", Out.ref()}});
  EXPECT_EQ(Out(0), ((13 % 5) | (6 & 3)) ^ 1);
}

TEST(InterpreterTest, CastRoundsThroughFloat32) {
  Buffer<float> Out({1});
  // (float)((double)1/3): the float32 cast must round to float precision.
  ExprPtr Third = Binary::make(BinOp::Div, FloatImm::make(1.0, Type::float64()),
                               FloatImm::make(3.0, Type::float64()));
  StmtPtr S = Store::make("Out", {IntImm::make(0)},
                          Cast::make(Type::float32(), Third));
  interpret(S, {{"Out", Out.ref()}});
  EXPECT_EQ(Out(0), static_cast<float>(1.0 / 3.0));
}

TEST(InterpreterTest, SelectEvaluatesOnlyTakenArm) {
  // select(i < 4, A[i], A[i + 100]) over i in [0, 4): the untaken arm
  // would be out of bounds (and assert) if evaluated.
  Buffer<float> A({4}), Out({4});
  A.fillRandom(3);
  ExprPtr I = VarRef::make("i");
  ExprPtr Cond = Binary::make(BinOp::LT, I, IntImm::make(4));
  ExprPtr Taken = Load::make("A", {I}, Type::float32());
  ExprPtr Untaken = Load::make(
      "A", {Binary::make(BinOp::Add, I, IntImm::make(100))},
      Type::float32());
  StmtPtr S = For::make(
      "i", IntImm::make(0), IntImm::make(4), ForKind::Serial,
      Store::make("Out", {I}, Select::make(Cond, Taken, Untaken)));
  interpret(S, {{"A", A.ref()}, {"Out", Out.ref()}});
  for (int64_t Idx = 0; Idx != 4; ++Idx)
    EXPECT_EQ(Out(Idx), A(Idx));
}

TEST(InterpreterTest, LetBindingScopes) {
  Buffer<int32_t> Out({3});
  ExprPtr I = VarRef::make("i");
  // let t = i * 10 in Out[i] = t + i.
  StmtPtr Body = LetStmt::make(
      "t", Binary::make(BinOp::Mul, I, IntImm::make(10)),
      Store::make("Out", {I},
                  Binary::make(BinOp::Add, VarRef::make("t"), I)));
  StmtPtr S = For::make("i", IntImm::make(0), IntImm::make(3),
                        ForKind::Serial, Body);
  interpret(S, {{"Out", Out.ref()}});
  for (int64_t Idx = 0; Idx != 3; ++Idx)
    EXPECT_EQ(Out(Idx), Idx * 10 + Idx);
}

TEST(InterpreterTest, HookSeesEveryAccessWithKind) {
  Buffer<float> A({8}), Out({8});
  Var X("x");
  InputBuffer AIn("A", Type::float32(), 1);
  Func O("Out");
  O(X) = AIn(X) + 1.0f;
  O.storeNonTemporal();

  int Loads = 0, Stores = 0, NTStores = 0;
  WalkHook Hook = [&](AccessKind Kind, uint64_t, uint32_t Size) {
    EXPECT_EQ(Size, 4u);
    if (Kind == AccessKind::Load)
      ++Loads;
    else if (Kind == AccessKind::Store)
      ++Stores;
    else
      ++NTStores;
  };
  walkStmt(lowerFunc(O, {8}), {{"A", A.ref()}, {"Out", Out.ref()}}, Hook);
  EXPECT_EQ(Loads, 8);
  EXPECT_EQ(Stores, 0);
  EXPECT_EQ(NTStores, 8);
}

TEST(InterpreterTest, HookAddressesMatchBufferLayout) {
  Buffer<float> Out({4, 2});
  Var X("x"), Y("y");
  Func O("Out");
  O(X, Y) = 1.0f;

  std::vector<uint64_t> Addresses;
  WalkHook Hook = [&](AccessKind, uint64_t Address, uint32_t) {
    Addresses.push_back(Address);
  };
  walkStmt(lowerFunc(O, {4, 2}), {{"Out", Out.ref()}}, Hook);
  ASSERT_EQ(Addresses.size(), 8u);
  uint64_t Base = reinterpret_cast<uint64_t>(Out.data());
  // Default nest: y outer, x inner; contiguous addresses in x.
  EXPECT_EQ(Addresses[0], Base);
  EXPECT_EQ(Addresses[1], Base + 4);
  EXPECT_EQ(Addresses[4], Base + 4 * 4);
}

TEST(InterpreterTest, ParallelMatchesSerial) {
  constexpr int64_t N = 64;
  Buffer<float> A({N}), OutSerial({N}), OutParallel({N});
  A.fillRandom(9);
  Var X("x");
  InputBuffer AIn("A", Type::float32(), 1);
  Func O("Out");
  O(X) = AIn(X) * 3.0f;
  O.split("x", "xo", "xi", 5).parallel("xo");
  StmtPtr S = lowerFunc(O, {N});

  interpret(S, {{"A", A.ref()}, {"Out", OutSerial.ref()}});
  InterpOptions Options;
  Options.RunParallel = true;
  interpret(S, {{"A", A.ref()}, {"Out", OutParallel.ref()}}, Options);
  for (int64_t I = 0; I != N; ++I)
    EXPECT_EQ(OutSerial(I), OutParallel(I));
}

TEST(InterpreterTest, ZeroExtentLoopRunsNothing) {
  Buffer<float> Out({4});
  Out.fill(5.0f);
  StmtPtr S = For::make("i", IntImm::make(0), IntImm::make(0),
                        ForKind::Serial,
                        Store::make("Out", {VarRef::make("i")},
                                    FloatImm::make(0.0f)));
  interpret(S, {{"Out", Out.ref()}});
  EXPECT_EQ(Out(0), 5.0f);
}

TEST(InterpreterTest, PredicateGuardsExecution) {
  Buffer<int32_t> Out({8});
  ExprPtr I = VarRef::make("i");
  StmtPtr Guarded = IfThenElse::make(
      Binary::make(BinOp::GE, I, IntImm::make(4)),
      Store::make("Out", {I}, IntImm::make(1)));
  StmtPtr S = For::make("i", IntImm::make(0), IntImm::make(8),
                        ForKind::Serial, Guarded);
  interpret(S, {{"Out", Out.ref()}});
  for (int64_t Idx = 0; Idx != 8; ++Idx)
    EXPECT_EQ(Out(Idx), Idx >= 4 ? 1 : 0);
}

TEST(InterpreterTest, VMFloat32ArithmeticRunsInFloat) {
  // Out = A * B + C on float32: the VM must round after every operation
  // like compiled float code, not compute in double and round once at
  // the store (the reference walker's behaviour).
  constexpr int64_t N = 256;
  Buffer<float> A({N}), B({N}), C({N}), Out({N});
  A.fillRandom(1);
  B.fillRandom(2);
  C.fillRandom(3);

  ExprPtr I = VarRef::make("i");
  ExprPtr E = Binary::make(
      BinOp::Add,
      Binary::make(BinOp::Mul, Load::make("A", {I}, Type::float32()),
                   Load::make("B", {I}, Type::float32())),
      Load::make("C", {I}, Type::float32()));
  StmtPtr S = For::make("i", IntImm::make(0), IntImm::make(N),
                        ForKind::Serial, Store::make("Out", {I}, E));
  interpret(S, {{"A", A.ref()},
                {"B", B.ref()},
                {"C", C.ref()},
                {"Out", Out.ref()}});
  for (int64_t Idx = 0; Idx != N; ++Idx) {
    // Separate statements force float rounding between the operations,
    // so the expected value cannot be FMA-contracted by the compiler.
    float Product = A(Idx) * B(Idx);
    float Want = Product + C(Idx);
    ASSERT_EQ(Out(Idx), Want) << "element " << Idx;
  }
}

TEST(InterpreterTest, WalkerTraceFollowsEvaluationOrder) {
  // The walker's event stream is the reference trace: index loads before
  // the access they address, value loads left to right before the store
  // event, and only the taken select arm. Uses a data-dependent index
  // (Idx feeds A's subscript) so index-expression loads appear in the
  // trace; the VM must compute the values that trace implies.
  constexpr int64_t N = 32;
  Buffer<int32_t> Idx({N});
  Buffer<float> A({N}), B({N}), Out({N}), OutRef({N});
  A.fillRandom(4);
  B.fillRandom(5);
  for (int64_t I = 0; I != N; ++I)
    Idx(I) = static_cast<int32_t>((I * 7) % N);

  ExprPtr I = VarRef::make("i");
  ExprPtr Indirect = Load::make(
      "A", {Load::make("Idx", {I}, Type::int32())}, Type::float32());
  ExprPtr Direct =
      Binary::make(BinOp::Add, Load::make("B", {I}, Type::float32()),
                   Load::make("A", {I}, Type::float32()));
  ExprPtr Cond = Binary::make(
      BinOp::EQ, Binary::make(BinOp::Mod, I, IntImm::make(2)),
      IntImm::make(0));
  StmtPtr S = For::make(
      "i", IntImm::make(0), IntImm::make(N), ForKind::Serial,
      Store::make("Out", {I}, Select::make(Cond, Indirect, Direct)));

  struct Event {
    AccessKind Kind;
    uint64_t Address;
    bool operator==(const Event &O) const {
      return Kind == O.Kind && Address == O.Address;
    }
  };
  std::vector<Event> Events;
  walkStmt(S,
           {{"Idx", Idx.ref()},
            {"A", A.ref()},
            {"B", B.ref()},
            {"Out", OutRef.ref()}},
           [&](AccessKind Kind, uint64_t Address, uint32_t Size) {
             EXPECT_EQ(Size, 4u);
             Events.push_back({Kind, Address});
           });
  auto At = [](const void *Base, int64_t Element) {
    return reinterpret_cast<uint64_t>(Base) +
           static_cast<uint64_t>(Element) * 4;
  };
  std::vector<Event> Want;
  for (int64_t E = 0; E != N; ++E) {
    if (E % 2 == 0) {
      Want.push_back({AccessKind::Load, At(Idx.data(), E)});
      Want.push_back({AccessKind::Load, At(A.data(), Idx(E))});
    } else {
      Want.push_back({AccessKind::Load, At(B.data(), E)});
      Want.push_back({AccessKind::Load, At(A.data(), E)});
    }
    Want.push_back({AccessKind::Store, At(OutRef.data(), E)});
  }
  ASSERT_EQ(Events.size(), Want.size());
  for (size_t E = 0; E != Want.size(); ++E)
    ASSERT_TRUE(Events[E] == Want[E]) << "event " << E;

  interpret(S, {{"Idx", Idx.ref()},
                {"A", A.ref()},
                {"B", B.ref()},
                {"Out", Out.ref()}});
  for (int64_t E = 0; E != N; ++E) {
    ASSERT_EQ(Out(E), OutRef(E)) << "element " << E;
    ASSERT_EQ(Out(E), E % 2 == 0 ? A(E * 7 % N) : B(E) + A(E));
  }
}

TEST(InterpreterTest, VMAndReferenceAgreeOnCastChains) {
  // Integer truncation casts are bit-exact on both engines: u8/u32/i32
  // wrap-around, bool normalization and float-to-int truncation.
  constexpr int64_t N = 64;
  Buffer<int32_t> OutVM({N}), OutRef({N});
  ExprPtr I = VarRef::make("i");
  ExprPtr Wide = Binary::make(
      BinOp::Mul, Binary::make(BinOp::Sub, I, IntImm::make(40)),
      IntImm::make(1000000007));
  ExprPtr E = Binary::make(
      BinOp::Add,
      Cast::make(Type::int32(),
                 Cast::make(Type::uint8(), Cast::make(Type::uint32(), Wide))),
      Cast::make(Type::int32(),
                 Cast::make(Type::boolean(),
                            Binary::make(BinOp::Mod, I, IntImm::make(3)))));
  StmtPtr S = For::make("i", IntImm::make(0), IntImm::make(N),
                        ForKind::Serial, Store::make("Out", {I}, E));
  interpret(S, {{"Out", OutVM.ref()}});
  walkStmt(S, {{"Out", OutRef.ref()}});
  for (int64_t Idx = 0; Idx != N; ++Idx)
    ASSERT_EQ(OutVM(Idx), OutRef(Idx)) << "element " << Idx;
}

} // namespace
