//===- Benchmarks.cpp - the 12 paper benchmarks (Table 4) ----------------===//

#include "benchmarks/Benchmarks.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ltp;

namespace {

/// Why buffer \p Name cannot be allocated; empty when it can. The byte
/// size includes Buffer<T>'s round-up to its 64-byte alignment.
std::string bufferError(const std::string &Name, const BufferRef &Ref) {
  int64_t Elements = 1;
  for (int64_t Extent : Ref.Extents) {
    if (Extent <= 0)
      return strFormat("buffer '%s' has extent %lld", Name.c_str(),
                       static_cast<long long>(Extent));
    if (__builtin_mul_overflow(Elements, Extent, &Elements))
      return strFormat("buffer '%s' element count overflows int64",
                       Name.c_str());
  }
  uint64_t Bytes = 0;
  if (__builtin_mul_overflow(static_cast<uint64_t>(Elements),
                             static_cast<uint64_t>(Ref.ElemType.bytes()),
                             &Bytes) ||
      __builtin_add_overflow(Bytes, uint64_t{63}, &Bytes))
    return strFormat("buffer '%s' byte size overflows 64 bits",
                     Name.c_str());
  return "";
}

/// Allocates one Buffer<T> like \p Shape, fills it from \p Seed, and
/// keeps it alive in \p Instance. Returns null when allocation fails.
template <typename T>
void *allocateAs(BenchmarkInstance &Instance, const BufferRef &Shape,
                 uint32_t Seed) {
  auto Owned = std::make_shared<Buffer<T>>(Shape.Extents, std::nothrow);
  if (!Owned->data())
    return nullptr;
  if (Seed != 0)
    Owned->fillRandom(Seed);
  Instance.Storage.push_back(Owned);
  return Owned->data();
}

/// allocateAs for the element types the suites declare (float32, uint32).
void *allocate(BenchmarkInstance &Instance, const BufferRef &Shape,
               uint32_t Seed) {
  if (Shape.ElemType == ir::Type::float32())
    return allocateAs<float>(Instance, Shape, Seed);
  assert(Shape.ElemType == ir::Type::uint32() &&
         "unsupported benchmark buffer element type");
  return allocateAs<uint32_t>(Instance, Shape, Seed);
}

//===----------------------------------------------------------------------===//
// Temporal-reuse kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeMatmul(int64_t N) {
  BenchmarkInstance I;
  I.Name = "matmul";
  addBuffer<float>(I, "A", {N, N}, 1);
  addBuffer<float>(I, "B", {N, N}, 2);
  addBuffer<float>(I, "C", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = 0.0f;
  C(J, Iv) += AIn(K, Iv) * BIn(J, K);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PB = Self.data<float>("B");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = 0.0f;
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeGemm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "gemm";
  const float Alpha = 1.5f, Beta = 1.2f;
  addBuffer<float>(I, "A", {N, N}, 3);
  addBuffer<float>(I, "B", {N, N}, 4);
  addBuffer<float>(I, "Cin", {N, N}, 5);
  addBuffer<float>(I, "C", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * BIn(J, K);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PB = Self.data<float>("B"),
                *PC = Self.data<float>("Cin");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[K2 * N + Col];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance make3mm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "3mm";
  addBuffer<float>(I, "A", {N, N}, 6);
  addBuffer<float>(I, "B", {N, N}, 7);
  addBuffer<float>(I, "Cm", {N, N}, 8);
  addBuffer<float>(I, "D", {N, N}, 9);
  addBuffer<float>(I, "E", {N, N}, 0);
  addBuffer<float>(I, "F", {N, N}, 0);
  addBuffer<float>(I, "G", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var J("j"), Iv("i");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CmIn("Cm", ir::Type::float32(), 2);
  InputBuffer DIn("D", ir::Type::float32(), 2);
  InputBuffer EIn("E", ir::Type::float32(), 2);
  InputBuffer FIn("F", ir::Type::float32(), 2);

  RDom K1(0, static_cast<int>(N), "k1");
  Func E("E");
  E(J, Iv) = 0.0f;
  E(J, Iv) += AIn(K1, Iv) * BIn(J, K1);

  RDom K2(0, static_cast<int>(N), "k2");
  Func F("F");
  F(J, Iv) = 0.0f;
  F(J, Iv) += CmIn(K2, Iv) * DIn(J, K2);

  RDom K3(0, static_cast<int>(N), "k3");
  Func G("G");
  G(J, Iv) = 0.0f;
  G(J, Iv) += EIn(K3, Iv) * FIn(J, K3);

  I.Stages = {E, F, G};
  I.StageExtents = {{N, N}, {N, N}, {N, N}};
  I.OutputName = "G";
  I.Work = 6.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    std::vector<float> TE(static_cast<size_t>(N * N));
    std::vector<float> TF(static_cast<size_t>(N * N));
    const float *PA = Self.data<float>("A"), *PB = Self.data<float>("B"),
                *PC = Self.data<float>("Cm"), *PD = Self.data<float>("D");
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float AccE = 0.0f, AccF = 0.0f;
        for (int64_t K = 0; K != N; ++K) {
          AccE += PA[R * N + K] * PB[K * N + C2];
          AccF += PC[R * N + K] * PD[K * N + C2];
        }
        TE[static_cast<size_t>(R * N + C2)] = AccE;
        TF[static_cast<size_t>(R * N + C2)] = AccF;
      }
    float *PW = Self.expected<float>();
    for (int64_t R = 0; R != N; ++R)
      for (int64_t C2 = 0; C2 != N; ++C2) {
        float Acc = 0.0f;
        for (int64_t K = 0; K != N; ++K)
          Acc += TE[static_cast<size_t>(R * N + K)] *
                 TF[static_cast<size_t>(K * N + C2)];
        PW[R * N + C2] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeTrmm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "trmm";
  const float Alpha = 1.1f;
  addBuffer<float>(I, "A", {N, N}, 10);
  addBuffer<float>(I, "B", {N, N}, 11);
  addBuffer<float>(I, "Bout", {N, N}, 0);
  addExpected<float>(I, {N, N});

  // Out-of-place triangular matmul: Bout = alpha * (A^T_lower * B + B),
  // with the strictly-lower-triangular part of A (k > i) contributing.
  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  K.where(Expr(K) > Expr(Iv));
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  Func Bout("Bout");
  Bout(J, Iv) = Alpha * BIn(J, Iv);
  Bout(J, Iv) += Alpha * AIn(Iv, K) * BIn(J, K);

  I.Stages = {Bout};
  I.StageExtents = {{N, N}};
  I.OutputName = "Bout";
  I.Work = static_cast<double>(N) * N * N; // ~half the cube, x2 flops
  I.FillExpected = [N, Alpha](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PB = Self.data<float>("B");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = PB[Row * N + Col];
        for (int64_t K2 = Row + 1; K2 < N; ++K2)
          Acc += PA[K2 * N + Row] * PB[K2 * N + Col];
        PE[Row * N + Col] = Alpha * Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyrk(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syrk";
  const float Alpha = 1.3f, Beta = 0.7f;
  addBuffer<float>(I, "A", {N, N}, 12);
  addBuffer<float>(I, "Cin", {N, N}, 13);
  addBuffer<float>(I, "C", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) += Alpha * AIn(K, Iv) * AIn(K, J);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 2.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PC = Self.data<float>("Cin");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeSyr2k(int64_t N) {
  BenchmarkInstance I;
  I.Name = "syr2k";
  const float Alpha = 0.8f, Beta = 1.4f;
  addBuffer<float>(I, "A", {N, N}, 14);
  addBuffer<float>(I, "B", {N, N}, 15);
  addBuffer<float>(I, "Cin", {N, N}, 16);
  addBuffer<float>(I, "C", {N, N}, 0);
  addExpected<float>(I, {N, N});

  Var J("j"), Iv("i");
  RDom K(0, static_cast<int>(N), "k");
  InputBuffer AIn("A", ir::Type::float32(), 2);
  InputBuffer BIn("B", ir::Type::float32(), 2);
  InputBuffer CIn("Cin", ir::Type::float32(), 2);
  Func C("C");
  C(J, Iv) = Beta * CIn(J, Iv);
  C(J, Iv) +=
      Alpha * AIn(K, Iv) * BIn(K, J) + Alpha * BIn(K, Iv) * AIn(K, J);

  I.Stages = {C};
  I.StageExtents = {{N, N}};
  I.OutputName = "C";
  I.Work = 4.0 * static_cast<double>(N) * N * N;
  I.FillExpected = [N, Alpha, Beta](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PB = Self.data<float>("B"),
                *PC = Self.data<float>("Cin");
    float *PE = Self.expected<float>();
    for (int64_t Row = 0; Row != N; ++Row)
      for (int64_t Col = 0; Col != N; ++Col) {
        float Acc = Beta * PC[Row * N + Col];
        for (int64_t K2 = 0; K2 != N; ++K2)
          Acc += Alpha * PA[Row * N + K2] * PB[Col * N + K2] +
                 Alpha * PB[Row * N + K2] * PA[Col * N + K2];
        PE[Row * N + Col] = Acc;
      }
  };
  return I;
}

BenchmarkInstance makeDoitgen(int64_t N) {
  BenchmarkInstance I;
  I.Name = "doitgen";
  // Out(p, q, r) = sum_s A(s, q, r) * C4(p, s).
  addBuffer<float>(I, "A", {N, N, N}, 17);
  addBuffer<float>(I, "C4", {N, N}, 18);
  addBuffer<float>(I, "Out", {N, N, N}, 0);
  addExpected<float>(I, {N, N, N});

  Var P("p"), Q("q"), R("r");
  RDom S(0, static_cast<int>(N), "s");
  InputBuffer AIn("A", ir::Type::float32(), 3);
  InputBuffer C4In("C4", ir::Type::float32(), 2);
  Func Out("Out");
  Out(P, Q, R) = 0.0f;
  Out(P, Q, R) += AIn(S, Q, R) * C4In(P, S);

  I.Stages = {Out};
  I.StageExtents = {{N, N, N}};
  I.OutputName = "Out";
  I.Work = 2.0 * static_cast<double>(N) * N * N * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const float *PA = Self.data<float>("A"), *PC = Self.data<float>("C4");
    float *PE = Self.expected<float>();
    for (int64_t R2 = 0; R2 != N; ++R2)
      for (int64_t Q2 = 0; Q2 != N; ++Q2)
        for (int64_t P2 = 0; P2 != N; ++P2) {
          float Acc = 0.0f;
          for (int64_t S2 = 0; S2 != N; ++S2)
            Acc += PA[(R2 * N + Q2) * N + S2] * PC[S2 * N + P2];
          PE[(R2 * N + Q2) * N + P2] = Acc;
        }
  };
  return I;
}

BenchmarkInstance makeConvLayer(int64_t Size) {
  BenchmarkInstance I;
  I.Name = "convlayer";
  // out(x, y, k, b) = sum_{rx, ry, c} in(x+rx, y+ry, c, b) * w(rx, ry, c, k)
  const int64_t W = Size, H = Size;
  const int64_t Ch = std::min<int64_t>(64, std::max<int64_t>(8, Size / 4));
  const int64_t K = Ch;
  const int64_t B = std::max<int64_t>(1, Size / 64);
  addBuffer<float>(I, "In", {W + 2, H + 2, Ch, B}, 19);
  addBuffer<float>(I, "Wgt", {3, 3, Ch, K}, 20);
  addBuffer<float>(I, "Out", {W, H, K, B}, 0);
  addExpected<float>(I, {W, H, K, B});

  Var X("x"), Y("y"), Kv("ko"), Bv("b");
  RDom R(std::vector<RVar>{RVar("rx", 0, 3), RVar("ry", 0, 3),
                           RVar("rc", 0, static_cast<int>(Ch))});
  InputBuffer InB("In", ir::Type::float32(), 4);
  InputBuffer WgtB("Wgt", ir::Type::float32(), 4);
  Func Out("Out");
  Out(X, Y, Kv, Bv) = 0.0f;
  Out(X, Y, Kv, Bv) += InB(Expr(X) + Expr(R[0]), Expr(Y) + Expr(R[1]),
                           R[2], Bv) *
                       WgtB(R[0], R[1], R[2], Kv);

  I.Stages = {Out};
  I.StageExtents = {{W, H, K, B}};
  I.OutputName = "Out";
  I.Work = 2.0 * 9.0 * static_cast<double>(Ch) * W * H * K * B;
  I.FillExpected = [W, H, Ch, K, B](const BenchmarkInstance &Self) {
    const float *PI = Self.data<float>("In"), *PW = Self.data<float>("Wgt");
    float *PE = Self.expected<float>();
    int64_t IW = W + 2, IH = H + 2;
    for (int64_t B2 = 0; B2 != B; ++B2)
      for (int64_t K2 = 0; K2 != K; ++K2)
        for (int64_t Y2 = 0; Y2 != H; ++Y2)
          for (int64_t X2 = 0; X2 != W; ++X2) {
            float Acc = 0.0f;
            for (int64_t C2 = 0; C2 != Ch; ++C2)
              for (int64_t RY = 0; RY != 3; ++RY)
                for (int64_t RX = 0; RX != 3; ++RX)
                  Acc += PI[((B2 * Ch + C2) * IH + (Y2 + RY)) * IW +
                            (X2 + RX)] *
                         PW[((K2 * Ch + C2) * 3 + RY) * 3 + RX];
            PE[((B2 * K + K2) * H + Y2) * W + X2] = Acc;
          }
  };
  return I;
}

//===----------------------------------------------------------------------===//
// Spatial-reuse and streaming kernels
//===----------------------------------------------------------------------===//

BenchmarkInstance makeTranspose(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tp";
  addBuffer<uint32_t>(I, "A", {N, N}, 21);
  addBuffer<uint32_t>(I, "Out", {N, N}, 0);
  addExpected<uint32_t>(I, {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(Y, X);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const uint32_t *PA = Self.data<uint32_t>("A");
    uint32_t *PE = Self.expected<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2];
  };
  return I;
}

BenchmarkInstance makeTpm(int64_t N) {
  BenchmarkInstance I;
  I.Name = "tpm";
  addBuffer<uint32_t>(I, "A", {N, N}, 22);
  addBuffer<uint32_t>(I, "B", {N, N}, 23);
  addBuffer<uint32_t>(I, "Out", {N, N}, 0);
  addExpected<uint32_t>(I, {N, N});

  // Listing 2: out[y][x] = A[x][y] & B[y][x].
  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  InputBuffer BIn("B", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(Y, X) & BIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const uint32_t *PA = Self.data<uint32_t>("A"),
                   *PB = Self.data<uint32_t>("B");
    uint32_t *PE = Self.expected<uint32_t>();
    for (int64_t Y2 = 0; Y2 != N; ++Y2)
      for (int64_t X2 = 0; X2 != N; ++X2)
        PE[Y2 * N + X2] = PA[X2 * N + Y2] & PB[Y2 * N + X2];
  };
  return I;
}

BenchmarkInstance makeCopy(int64_t N) {
  BenchmarkInstance I;
  I.Name = "copy";
  addBuffer<uint32_t>(I, "A", {N, N}, 24);
  addBuffer<uint32_t>(I, "Out", {N, N}, 0);
  addExpected<uint32_t>(I, {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const uint32_t *PA = Self.data<uint32_t>("A");
    uint32_t *PE = Self.expected<uint32_t>();
    std::copy(PA, PA + N * N, PE);
  };
  return I;
}

BenchmarkInstance makeMask(int64_t N) {
  BenchmarkInstance I;
  I.Name = "mask";
  addBuffer<uint32_t>(I, "A", {N, N}, 25);
  addBuffer<uint32_t>(I, "B", {N, N}, 26);
  addBuffer<uint32_t>(I, "Out", {N, N}, 0);
  addExpected<uint32_t>(I, {N, N});

  Var X("x"), Y("y");
  InputBuffer AIn("A", ir::Type::uint32(), 2);
  InputBuffer BIn("B", ir::Type::uint32(), 2);
  Func Out("Out");
  Out(X, Y) = AIn(X, Y) & BIn(X, Y);

  I.Stages = {Out};
  I.StageExtents = {{N, N}};
  I.OutputName = "Out";
  I.Work = static_cast<double>(N) * N;
  I.FillExpected = [N](const BenchmarkInstance &Self) {
    const uint32_t *PA = Self.data<uint32_t>("A"),
                   *PB = Self.data<uint32_t>("B");
    uint32_t *PE = Self.expected<uint32_t>();
    for (int64_t Idx = 0; Idx != N * N; ++Idx)
      PE[Idx] = PA[Idx] & PB[Idx];
  };
  return I;
}

} // namespace

const std::vector<BenchmarkDef> &ltp::allBenchmarks() {
  static const std::vector<BenchmarkDef> Defs = {
      {"convlayer", "3x3xCxC convolution layer", 96, 256, makeConvLayer},
      {"doitgen", "multiresolution analysis kernel", 128, 256, makeDoitgen},
      {"matmul", "matrix multiplication", 1024, 2048, makeMatmul},
      {"3mm", "three chained matrix multiplications", 768, 2048, make3mm},
      {"gemm", "generalized matrix multiplication", 1024, 2048, makeGemm},
      {"trmm", "triangular matrix multiplication (out-of-place)", 1024,
       2048, makeTrmm},
      {"syrk", "symmetric rank-k update", 1024, 2048, makeSyrk},
      {"syr2k", "symmetric rank-2k update", 768, 2048, makeSyr2k},
      {"tpm", "matrix transposition and masking", 2048, 4096, makeTpm},
      {"tp", "matrix transposition", 2048, 4096, makeTranspose},
      {"copy", "array copy", 2048, 4096, makeCopy},
      {"mask", "array mask", 2048, 4096, makeMask},
  };
  return Defs;
}

BufferRef ltp::shapeRef(ir::Type ElemType, std::vector<int64_t> Extents) {
  BufferRef R;
  R.ElemType = ElemType;
  R.Strides.resize(Extents.size());
  int64_t Stride = 1;
  for (size_t D = 0; D != Extents.size(); ++D) {
    R.Strides[D] = Stride;
    // Wraps on overflow (no UB); shapeError() rejects such shapes.
    (void)__builtin_mul_overflow(Stride, Extents[D], &Stride);
  }
  R.Extents = std::move(Extents);
  return R;
}

std::string ltp::shapeError(const BenchmarkInstance &Instance) {
  for (const auto &[Name, Ref] : Instance.Buffers) {
    std::string Error = bufferError(Name, Ref);
    if (!Error.empty())
      return Error;
  }
  return bufferError("expected output", Instance.ExpectedRef);
}

std::string ltp::materialize(BenchmarkInstance &Instance) {
  assert(Instance.Storage.empty() && "instance is already materialized");
  std::string Error = shapeError(Instance);
  if (!Error.empty())
    return Error;
  auto Fail = [&](const std::string &Name, const BufferRef &Shape) {
    Instance.Storage.clear();
    for (auto &[BufName, Ref] : Instance.Buffers)
      Ref.Data = nullptr;
    Instance.ExpectedRef.Data = nullptr;
    return strFormat("cannot allocate buffer '%s' of %s (%llu bytes)",
                     Name.c_str(), Instance.Name.c_str(),
                     static_cast<unsigned long long>(Shape.numElements()) *
                         Shape.ElemType.bytes());
  };
  for (const BufferDecl &Decl : Instance.Decls) {
    BufferRef &Ref = Instance.Buffers.at(Decl.Name);
    Ref.Data = allocate(Instance, Ref, Decl.Seed);
    if (!Ref.Data)
      return Fail(Decl.Name, Ref);
  }
  Instance.ExpectedRef.Data = allocate(Instance, Instance.ExpectedRef, 0);
  if (!Instance.ExpectedRef.Data)
    return Fail("expected output", Instance.ExpectedRef);
  return "";
}

ErrorOr<BenchmarkInstance> BenchmarkDef::checkedShape(int64_t Size) const {
  if (Size < 1 || Size > INT32_MAX)
    return ErrorOr<BenchmarkInstance>::makeError(
        strFormat("size %lld of %s is outside [1, %d]",
                  static_cast<long long>(Size), Name.c_str(), INT32_MAX));
  BenchmarkInstance Instance = Shape(Size);
  std::string Error = shapeError(Instance);
  if (!Error.empty())
    return ErrorOr<BenchmarkInstance>::makeError(
        strFormat("size %lld of %s: %s", static_cast<long long>(Size),
                  Name.c_str(), Error.c_str()));
  return Instance;
}

BenchmarkInstance BenchmarkDef::Create(int64_t Size) const {
  BenchmarkInstance Instance = Shape(Size);
  std::string Error = materialize(Instance);
  if (!Error.empty()) {
    std::fprintf(stderr, "fatal: %s\n", Error.c_str());
    std::abort();
  }
  return Instance;
}

const BenchmarkDef *ltp::findBenchmark(const std::string &Name) {
  for (const BenchmarkDef &Def : allBenchmarks())
    if (Def.Name == Name)
      return &Def;
  for (const BenchmarkDef &Def : extendedBenchmarks())
    if (Def.Name == Name)
      return &Def;
  return nullptr;
}

bool ltp::verifyOutput(const BenchmarkInstance &Instance) {
  assert(Instance.FillExpected && "benchmark lacks a reference oracle");
  assert(Instance.ExpectedRef.Data && "verifying an unmaterialized shape");
  Instance.FillExpected(Instance);
  auto It = Instance.Buffers.find(Instance.OutputName);
  assert(It != Instance.Buffers.end() && "output buffer missing");
  const BufferRef &Out = It->second;
  const BufferRef &Want = Instance.ExpectedRef;
  assert(Out.numElements() == Want.numElements() &&
         "output/expected shape mismatch");

  if (Out.ElemType == ir::Type::float32()) {
    const float *PO = static_cast<const float *>(Out.Data);
    const float *PW = static_cast<const float *>(Want.Data);
    for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx) {
      double Tolerance = 1e-3 * (1.0 + std::fabs(PW[Idx]));
      if (std::fabs(PO[Idx] - PW[Idx]) > Tolerance)
        return false;
    }
    return true;
  }
  if (Out.ElemType == ir::Type::uint32()) {
    const uint32_t *PO = static_cast<const uint32_t *>(Out.Data);
    const uint32_t *PW = static_cast<const uint32_t *>(Want.Data);
    for (int64_t Idx = 0; Idx != Out.numElements(); ++Idx)
      if (PO[Idx] != PW[Idx])
        return false;
    return true;
  }
  assert(false && "unsupported output element type");
  return false;
}
