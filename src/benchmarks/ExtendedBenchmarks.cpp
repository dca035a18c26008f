//===- ExtendedBenchmarks.cpp - kernels beyond the paper's suite ----------===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
// PolyBench kernels not in the paper's Table 4 plus a Jacobi stencil,
// used to exercise parts of the flow the original 12 do not reach:
//
//   atax      y = A^T (A x): two 1-D reductions, one over a transposed
//             view — temporal class with no parallelizable pure loop.
//   bicg      s = r A, q = A p: the same two orientations side by side.
//   mvt       x1 += A^T y1, x2 += A y2: independent 1-D stages.
//   gemver    A-hat = A + u1 v1^T + u2 v2^T, then two matrix-vector
//             products — a 4-stage pipeline mixing NoTransform and
//             temporal stages.
//   jacobi2d  5-point stencil: same index variables with constant
//             offsets, the pattern Figure 2 routes to NoTransform per
//             Kamil et al. [9].
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"

#include <cassert>

using namespace ltp;

namespace {

BenchmarkInstance makeAtax(int64_t N) {
  BenchmarkInstance I;
  I.Name = "atax";
  // tmp = A x;  y = A^T tmp.  A(j, i) stores row i contiguously in j.
  addBuffer<float>(I, "A", {N, N}, 31);
  addBuffer<float>(I, "x", {N}, 32);
  addBuffer<float>(I, "tmp", {N}, 0);
  addBuffer<float>(I, "y", {N}, 0);
  addExpected<float>(I, {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer XIn("x", ir::Type::float32(), 1);
  InputBuffer TmpIn("tmp", ir::Type::float32(), 1);

  RDom J(0, static_cast<int>(N), "jr");
  Func Tmp("tmp");
  Tmp(Iv) = 0.0f;
  Tmp(Iv) += AIn(J, Iv) * XIn(J);

  RDom Ir(0, static_cast<int>(N), "ir");
  Func Y("y");
  Y(Jv) = 0.0f;
  Y(Jv) += AIn(Jv, Ir) * TmpIn(Ir);

  I.Stages = {Tmp, Y};
  I.StageExtents = {{N}, {N}};
  I.OutputName = "y";
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PX = Self.data<float>("x");
    float *PE = Self.expected<float>();
    std::vector<float> Tmp(static_cast<size_t>(N), 0.0f);
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[R * N + C] * PX[C];
      Tmp[static_cast<size_t>(R)] = Acc;
    }
    for (int64_t C = 0; C != N; ++C) {
      float Acc = 0.0f;
      for (int64_t R = 0; R != N; ++R)
        Acc += PA[R * N + C] * Tmp[static_cast<size_t>(R)];
      PE[C] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeBicg(int64_t N) {
  BenchmarkInstance I;
  I.Name = "bicg";
  // s = r A (column sums), q = A p (row sums); output is q, s is a second
  // realized stage whose correctness the q oracle implies only partially,
  // so the oracle checks q and the s stage feeds nothing.
  addBuffer<float>(I, "A", {N, N}, 41);
  addBuffer<float>(I, "r", {N}, 42);
  addBuffer<float>(I, "p", {N}, 43);
  addBuffer<float>(I, "s", {N}, 0);
  addBuffer<float>(I, "q", {N}, 0);
  addExpected<float>(I, {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer RIn("r", ir::Type::float32(), 1);
  InputBuffer PIn("p", ir::Type::float32(), 1);

  RDom Ir(0, static_cast<int>(N), "ir");
  Func S("s");
  S(Jv) = 0.0f;
  S(Jv) += RIn(Ir) * AIn(Jv, Ir);

  RDom Jr(0, static_cast<int>(N), "jr");
  Func Q("q");
  Q(Iv) = 0.0f;
  Q(Iv) += AIn(Jr, Iv) * PIn(Jr);

  I.Stages = {S, Q};
  I.StageExtents = {{N}, {N}};
  I.OutputName = "q";
  I.Work = 4.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PP = Self.data<float>("p");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PP[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeMvt(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mvt";
  addBuffer<float>(I, "A", {N, N}, 51);
  addBuffer<float>(I, "y1", {N}, 52);
  addBuffer<float>(I, "x1in", {N}, 54);
  addBuffer<float>(I, "x1", {N}, 0);
  addExpected<float>(I, {N});

  // x1 = x1in + A y1.
  Var Iv("i");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer Y1In("y1", ir::Type::float32(), 1);
  InputBuffer X1("x1in", ir::Type::float32(), 1);
  RDom J(0, static_cast<int>(N), "jr");
  Func Out("x1");
  Out(Iv) = X1(Iv);
  Out(Iv) += AIn(J, Iv) * Y1In(J);

  I.Stages = {Out};
  I.StageExtents = {{N}};
  I.OutputName = "x1";
  I.Work = 2.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PY = Self.data<float>("y1"),
                *PX = Self.data<float>("x1in");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row) {
      float Acc = PX[Row];
      for (int64_t C = 0; C != N; ++C)
        Acc += PA[Row * N + C] * PY[C];
      PE[Row] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeGemver(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemver";
  const float Alpha = 1.2f, Beta = 1.1f;
  addBuffer<float>(I, "A", {N, N}, 61);
  addBuffer<float>(I, "u1", {N}, 62);
  addBuffer<float>(I, "v1", {N}, 63);
  addBuffer<float>(I, "u2", {N}, 64);
  addBuffer<float>(I, "v2", {N}, 65);
  addBuffer<float>(I, "y", {N}, 66);
  addBuffer<float>(I, "z", {N}, 67);
  addBuffer<float>(I, "Ah", {N, N}, 0);
  addBuffer<float>(I, "x", {N}, 0);
  addBuffer<float>(I, "w", {N}, 0);
  addExpected<float>(I, {N});

  Var Iv("i"), Jv("j");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer U1In("u1", ir::Type::float32(), 1);
  InputBuffer V1In("v1", ir::Type::float32(), 1);
  InputBuffer U2In("u2", ir::Type::float32(), 1);
  InputBuffer V2In("v2", ir::Type::float32(), 1);
  InputBuffer YIn("y", ir::Type::float32(), 1);
  InputBuffer ZIn("z", ir::Type::float32(), 1);
  InputBuffer AhIn("Ah", ir::Type::float32(), 2);
  InputBuffer XIn("x", ir::Type::float32(), 1);

  // Stage 1: rank-2 update; same index variables on both sides, no
  // transposition -> NoTransform (+NTI candidate).
  Func Ah("Ah");
  Ah(Jv, Iv) = AIn(Jv, Iv) + U1In(Iv) * V1In(Jv) + U2In(Iv) * V2In(Jv);

  // Stage 2: x = beta * Ah^T y + z.
  RDom Jr(0, static_cast<int>(N), "jr2");
  Func X("x");
  X(Iv) = ZIn(Iv);
  X(Iv) += Beta * AhIn(Iv, Jr) * YIn(Jr);

  // Stage 3: w = alpha * Ah x.
  RDom Jr3(0, static_cast<int>(N), "jr3");
  Func W("w");
  W(Iv) = 0.0f;
  W(Iv) += Alpha * AhIn(Jr3, Iv) * XIn(Jr3);

  I.Stages = {Ah, X, W};
  I.StageExtents = {{N, N}, {N}, {N}};
  I.OutputName = "w";
  I.Work = 2.0 * static_cast<double>(N) * N * 3.0;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A");
    const float *PU1 = Self.data<float>("u1"), *PV1 = Self.data<float>("v1");
    const float *PU2 = Self.data<float>("u2"), *PV2 = Self.data<float>("v2");
    const float *PY = Self.data<float>("y"), *PZ = Self.data<float>("z");
    std::vector<float> AH(static_cast<size_t>(N * N));
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C = 0; C != N; ++C)
        AH[static_cast<size_t>(R * N + C)] =
            PA[R * N + C] + PU1[R] * PV1[C] + PU2[R] * PV2[C];
    std::vector<float> XV(static_cast<size_t>(N));
    for (int64_t C = 0; C != N; ++C) {
      float Acc = PZ[C];
      for (int64_t R = 0; R != N; ++R)
        Acc += Beta * AH[static_cast<size_t>(R * N + C)] * PY[R];
      XV[static_cast<size_t>(C)] = Acc;
    }
    float *PE = Self.expected<float>();
    for (int64_t R = 0; R != N; ++R) {
      float Acc = 0.0f;
      for (int64_t C = 0; C != N; ++C)
        Acc += Alpha * AH[static_cast<size_t>(R * N + C)] *
               XV[static_cast<size_t>(C)];
      PE[R] = Acc;
    }
  };
  return I;
}

BenchmarkInstance makeJacobi2d(int64_t N) {
  BenchmarkInstance I;
  I.Name = "jacobi2d";
  // One out-of-place 5-point sweep over a padded grid.
  addBuffer<float>(I, "In", {N + 2, N + 2}, 71);
  addBuffer<float>(I, "Out", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var X("x"), Y("y");
  InputBuffer InB("In", ir::Type::float32(), 2);
  Func Out("Out");
  Out(X, Y) = 0.2f * (InB(Expr(X) + 1, Expr(Y) + 1) +
                      InB(Expr(X), Expr(Y) + 1) +
                      InB(Expr(X) + 2, Expr(Y) + 1) +
                      InB(Expr(X) + 1, Expr(Y)) +
                      InB(Expr(X) + 1, Expr(Y) + 2));

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = 5.0 * static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PI = Self.data<float>("In");
    float *PE = Self.expected<float>();
    int64_t W = N + 2;
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] =
            0.2f * (PI[(Y2 + 1) * W + (X2 + 1)] + PI[(Y2 + 1) * W + X2] +
                    PI[(Y2 + 1) * W + (X2 + 2)] + PI[Y2 * W + (X2 + 1)] +
                    PI[(Y2 + 2) * W + (X2 + 1)]);
  };
  return I;
}

} // namespace

const std::vector<BenchmarkDef> &ltp::extendedBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"atax", "y = A^T (A x)", 1024, 4096, makeAtax},
      {"bicg", "s = r A; q = A p", 1024, 4096, makeBicg},
      {"mvt", "x1 = x1 + A y1", 1024, 4096, makeMvt},
      {"gemver", "rank-2 update + two matvecs", 1024, 4096, makeGemver},
      {"jacobi2d", "5-point Jacobi sweep (stencil)", 2048, 4096,
       makeJacobi2d},
  };
  return Defs;
}
