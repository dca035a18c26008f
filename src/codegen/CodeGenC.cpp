//===- CodeGenC.cpp - C source generation from lowered IR ----------------===//

#include "codegen/CodeGenC.h"

#include "ir/IRVisitor.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <map>
#include <optional>
#include <set>

using namespace ltp;
using namespace ltp::ir;

namespace {

/// Collects the set of buffers written by a statement (everything else is
/// emitted as a const pointer).
class WrittenBuffers : public IRVisitor {
public:
  std::set<std::string> Names;

protected:
  void visit(const Store *Node) override {
    Names.insert(Node->BufferName);
    IRVisitor::visit(Node);
  }
};

/// True when the tree contains a non-temporal store.
class HasNTStore : public IRVisitor {
public:
  bool Found = false;

protected:
  void visit(const Store *Node) override {
    Found |= Node->NonTemporal;
    IRVisitor::visit(Node);
  }
};

/// Collects every Store node in a subtree (in visit order).
class StoreCollector : public IRVisitor {
public:
  std::vector<const Store *> Stores;

protected:
  void visit(const Store *Node) override {
    Stores.push_back(Node);
    IRVisitor::visit(Node);
  }
};

/// Collects every Load node in a subtree.
class LoadCollector : public IRVisitor {
public:
  std::vector<const Load *> Loads;

protected:
  void visit(const Load *Node) override {
    Loads.push_back(Node);
    IRVisitor::visit(Node);
  }
};

const char *minMaxSuffix(Type T) {
  if (T == Type::float32())
    return "f32";
  if (T == Type::float64())
    return "f64";
  return "i64";
}

//===----------------------------------------------------------------------===//
// Prelude tables
//===----------------------------------------------------------------------===//
//
// Generated kernels include no compiler intrinsics header. Each helper is
// written as the GNU C vector operator or the `__builtin_ia32_*` call that
// GCC's own <immintrin.h> uses for the intrinsic it replaces, so the
// machine code matches the intrinsic spelling while `cc` skips a header
// that costs far more to parse than the kernel does to compile.

/// The level the prelude is written for: the target ISA's, raised to
/// SSE2 on x86-64, where SSE2 is baseline and scalar kernels still stream
/// with MOVNTI. Elsewhere the streaming helpers are plain stores.
codegen::SimdLevel preludeLevel(codegen::TargetISA ISA) {
#if defined(__x86_64__)
  return std::max(ISA.Level, codegen::SimdLevel::SSE2);
#else
  return ISA.Level;
#endif
}

/// Bit per codegen::SimdLevel: the levels a helper definition serves.
enum : unsigned {
  LvScalar = 1u << static_cast<unsigned>(codegen::SimdLevel::Scalar),
  LvSSE2 = 1u << static_cast<unsigned>(codegen::SimdLevel::SSE2),
  LvAVX2 = 1u << static_cast<unsigned>(codegen::SimdLevel::AVX2),
  LvVector = LvSSE2 | LvAVX2,
  LvAll = LvScalar | LvVector,
};

/// A vector type, sized to the prelude level's register width. The
/// register types mirror GCC's __m256/__m256d/__m256i (and __m128*):
/// __may_alias__, since they load from scalar buffers, with `_u`
/// unaligned variants; the integer register has 64-bit lanes like
/// __m256i. ltp_vi32, ltp_vu32, ltp_vi64 and ltp_vu64 are the lane views
/// the helpers cast through, as the intrinsics do.
struct PreludeType {
  const char *Name;
  const char *Elem;
  const char *Attrs;
};

const PreludeType PreludeTypes[] = {
    {"ltp_vf32", "float", ", __may_alias__"},
    {"ltp_vf32_u", "float", ", __may_alias__, __aligned__(1)"},
    {"ltp_vf64", "double", ", __may_alias__"},
    {"ltp_vf64_u", "double", ", __may_alias__, __aligned__(1)"},
    {"ltp_vint", "long long", ", __may_alias__"},
    {"ltp_vint_u", "long long", ", __may_alias__, __aligned__(1)"},
    {"ltp_vi32", "int", ""},
    {"ltp_vu32", "unsigned int", ""},
    {"ltp_vi64", "long long", ""},
    {"ltp_vu64", "unsigned long long", ""},
};

/// One helper definition and the levels it serves. A name may appear
/// once per level; the vector helpers exist only at the levels where
/// CEmitter emits calls to them (vecOpSupported, the AVX2 masked tail).
struct PreludeHelper {
  const char *Name;
  unsigned Levels;
  const char *Text;
};

const PreludeHelper PreludeHelpers[] = {
    // Scalar min/max of the Min/Max IR operators.
    {"ltp_min_i64", LvAll,
     "static inline int64_t ltp_min_i64(int64_t a, int64_t b) "
     "{ return a < b ? a : b; }"},
    {"ltp_max_i64", LvAll,
     "static inline int64_t ltp_max_i64(int64_t a, int64_t b) "
     "{ return a > b ? a : b; }"},
    {"ltp_min_f32", LvAll,
     "static inline float ltp_min_f32(float a, float b) "
     "{ return a < b ? a : b; }"},
    {"ltp_max_f32", LvAll,
     "static inline float ltp_max_f32(float a, float b) "
     "{ return a > b ? a : b; }"},
    {"ltp_min_f64", LvAll,
     "static inline double ltp_min_f64(double a, double b) "
     "{ return a < b ? a : b; }"},
    {"ltp_max_f64", LvAll,
     "static inline double ltp_max_f64(double a, double b) "
     "{ return a > b ? a : b; }"},

    // Non-temporal stores: MOVNTI per element, a fence after the kernel.
    {"ltp_stream_store_u32", LvVector,
     "static inline void ltp_stream_store_u32(void *p, uint32_t v) "
     "{ __builtin_ia32_movnti((int *)p, (int)v); }"},
    {"ltp_stream_store_f32", LvVector,
     "static inline void ltp_stream_store_f32(float *p, float v) {\n"
     "  union { float f; int i; } u;\n"
     "  u.f = v;\n"
     "  __builtin_ia32_movnti((int *)(void *)p, u.i);\n"
     "}"},
    {"ltp_stream_store_f64", LvVector,
     "static inline void ltp_stream_store_f64(double *p, double v) {\n"
     "  union { double f; long long i; } u;\n"
     "  u.f = v;\n"
     "  __builtin_ia32_movnti64((long long *)(void *)p, u.i);\n"
     "}"},
    {"ltp_stream_fence", LvVector,
     "static inline void ltp_stream_fence(void) "
     "{ __builtin_ia32_sfence(); }"},
    {"ltp_stream_store_u32", LvScalar,
     "static inline void ltp_stream_store_u32(void *p, uint32_t v) "
     "{ *(uint32_t *)p = v; }"},
    {"ltp_stream_store_f32", LvScalar,
     "static inline void ltp_stream_store_f32(float *p, float v) "
     "{ *p = v; }"},
    {"ltp_stream_store_f64", LvScalar,
     "static inline void ltp_stream_store_f64(double *p, double v) "
     "{ *p = v; }"},
    {"ltp_stream_fence", LvScalar,
     "static inline void ltp_stream_fence(void) {}"},

    // 16-element (one 64 B line) block flush of a software write-combining
    // buffer; the source is 64 B aligned.
    {"ltp_stream_block_u32", LvAVX2,
     "static inline void ltp_stream_block_u32(uint32_t *dst, "
     "const uint32_t *src) {\n"
     "  for (int i = 0; i != 2; ++i)\n"
     "    __builtin_ia32_movntdq256((ltp_vi64 *)(void *)(dst + 8 * i),\n"
     "        (ltp_vi64)*(const ltp_vint *)(const void *)(src + 8 * i));\n"
     "}"},
    {"ltp_stream_block_f32", LvAVX2,
     "static inline void ltp_stream_block_f32(float *dst, "
     "const float *src) {\n"
     "  for (int i = 0; i != 2; ++i)\n"
     "    __builtin_ia32_movntps256(dst + 8 * i, "
     "*(const ltp_vf32 *)(src + 8 * i));\n"
     "}"},
    {"ltp_stream_block_u32", LvSSE2,
     "static inline void ltp_stream_block_u32(uint32_t *dst, "
     "const uint32_t *src) {\n"
     "  for (int i = 0; i != 4; ++i)\n"
     "    __builtin_ia32_movntdq((ltp_vi64 *)(void *)(dst + 4 * i),\n"
     "        (ltp_vi64)*(const ltp_vint *)(const void *)(src + 4 * i));\n"
     "}"},
    {"ltp_stream_block_f32", LvSSE2,
     "static inline void ltp_stream_block_f32(float *dst, "
     "const float *src) {\n"
     "  for (int i = 0; i != 4; ++i)\n"
     "    __builtin_ia32_movntps(dst + 4 * i, "
     "*(const ltp_vf32 *)(src + 4 * i));\n"
     "}"},
    {"ltp_stream_block_u32", LvScalar,
     "static inline void ltp_stream_block_u32(uint32_t *dst, "
     "const uint32_t *src) {\n"
     "  for (int i = 0; i != 16; ++i)\n"
     "    dst[i] = src[i];\n"
     "}"},
    {"ltp_stream_block_f32", LvScalar,
     "static inline void ltp_stream_block_f32(float *dst, "
     "const float *src) {\n"
     "  for (int i = 0; i != 16; ++i)\n"
     "    dst[i] = src[i];\n"
     "}"},

    // float32 vectors.
    {"ltp_vload_f32", LvVector,
     "static inline ltp_vf32 ltp_vload_f32(const float *p) "
     "{ return *(const ltp_vf32_u *)p; }"},
    {"ltp_vstore_f32", LvVector,
     "static inline void ltp_vstore_f32(float *p, ltp_vf32 v) "
     "{ *(ltp_vf32_u *)p = v; }"},
    {"ltp_vstream_f32", LvAVX2,
     "static inline void ltp_vstream_f32(float *p, ltp_vf32 v) "
     "{ __builtin_ia32_movntps256(p, v); }"},
    {"ltp_vstream_f32", LvSSE2,
     "static inline void ltp_vstream_f32(float *p, ltp_vf32 v) "
     "{ __builtin_ia32_movntps(p, v); }"},
    {"ltp_vset1_f32", LvAVX2,
     "static inline ltp_vf32 ltp_vset1_f32(float x) "
     "{ return (ltp_vf32){x, x, x, x, x, x, x, x}; }"},
    {"ltp_vset1_f32", LvSSE2,
     "static inline ltp_vf32 ltp_vset1_f32(float x) "
     "{ return (ltp_vf32){x, x, x, x}; }"},
    {"ltp_vadd_f32", LvVector,
     "static inline ltp_vf32 ltp_vadd_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return a + b; }"},
    {"ltp_vsub_f32", LvVector,
     "static inline ltp_vf32 ltp_vsub_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return a - b; }"},
    {"ltp_vmul_f32", LvVector,
     "static inline ltp_vf32 ltp_vmul_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return a * b; }"},
    {"ltp_vdiv_f32", LvVector,
     "static inline ltp_vf32 ltp_vdiv_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return a / b; }"},
    {"ltp_vmin_f32", LvAVX2,
     "static inline ltp_vf32 ltp_vmin_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return __builtin_ia32_minps256(a, b); }"},
    {"ltp_vmin_f32", LvSSE2,
     "static inline ltp_vf32 ltp_vmin_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return __builtin_ia32_minps(a, b); }"},
    {"ltp_vmax_f32", LvAVX2,
     "static inline ltp_vf32 ltp_vmax_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return __builtin_ia32_maxps256(a, b); }"},
    {"ltp_vmax_f32", LvSSE2,
     "static inline ltp_vf32 ltp_vmax_f32(ltp_vf32 a, ltp_vf32 b) "
     "{ return __builtin_ia32_maxps(a, b); }"},
    {"ltp_vfma_f32", LvAVX2,
     "static inline ltp_vf32 ltp_vfma_f32(ltp_vf32 a, ltp_vf32 b, "
     "ltp_vf32 c) { return __builtin_ia32_vfmaddps256(a, b, c); }"},
    {"ltp_vfma_f32", LvSSE2,
     "static inline ltp_vf32 ltp_vfma_f32(ltp_vf32 a, ltp_vf32 b, "
     "ltp_vf32 c) { return a * b + c; }"},
    {"ltp_maskload_f32", LvAVX2,
     "static inline ltp_vf32 ltp_maskload_f32(const float *p, ltp_vint m) "
     "{ return __builtin_ia32_maskloadps256((const ltp_vf32 *)p, "
     "(ltp_vi32)m); }"},
    {"ltp_maskstore_f32", LvAVX2,
     "static inline void ltp_maskstore_f32(float *p, ltp_vint m, "
     "ltp_vf32 v) { __builtin_ia32_maskstoreps256((ltp_vf32 *)p, "
     "(ltp_vi32)m, v); }"},

    // float64 vectors.
    {"ltp_vload_f64", LvVector,
     "static inline ltp_vf64 ltp_vload_f64(const double *p) "
     "{ return *(const ltp_vf64_u *)p; }"},
    {"ltp_vstore_f64", LvVector,
     "static inline void ltp_vstore_f64(double *p, ltp_vf64 v) "
     "{ *(ltp_vf64_u *)p = v; }"},
    {"ltp_vstream_f64", LvAVX2,
     "static inline void ltp_vstream_f64(double *p, ltp_vf64 v) "
     "{ __builtin_ia32_movntpd256(p, v); }"},
    {"ltp_vstream_f64", LvSSE2,
     "static inline void ltp_vstream_f64(double *p, ltp_vf64 v) "
     "{ __builtin_ia32_movntpd(p, v); }"},
    {"ltp_vset1_f64", LvAVX2,
     "static inline ltp_vf64 ltp_vset1_f64(double x) "
     "{ return (ltp_vf64){x, x, x, x}; }"},
    {"ltp_vset1_f64", LvSSE2,
     "static inline ltp_vf64 ltp_vset1_f64(double x) "
     "{ return (ltp_vf64){x, x}; }"},
    {"ltp_vadd_f64", LvVector,
     "static inline ltp_vf64 ltp_vadd_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return a + b; }"},
    {"ltp_vsub_f64", LvVector,
     "static inline ltp_vf64 ltp_vsub_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return a - b; }"},
    {"ltp_vmul_f64", LvVector,
     "static inline ltp_vf64 ltp_vmul_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return a * b; }"},
    {"ltp_vdiv_f64", LvVector,
     "static inline ltp_vf64 ltp_vdiv_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return a / b; }"},
    {"ltp_vmin_f64", LvAVX2,
     "static inline ltp_vf64 ltp_vmin_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return __builtin_ia32_minpd256(a, b); }"},
    {"ltp_vmin_f64", LvSSE2,
     "static inline ltp_vf64 ltp_vmin_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return __builtin_ia32_minpd(a, b); }"},
    {"ltp_vmax_f64", LvAVX2,
     "static inline ltp_vf64 ltp_vmax_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return __builtin_ia32_maxpd256(a, b); }"},
    {"ltp_vmax_f64", LvSSE2,
     "static inline ltp_vf64 ltp_vmax_f64(ltp_vf64 a, ltp_vf64 b) "
     "{ return __builtin_ia32_maxpd(a, b); }"},
    {"ltp_vfma_f64", LvAVX2,
     "static inline ltp_vf64 ltp_vfma_f64(ltp_vf64 a, ltp_vf64 b, "
     "ltp_vf64 c) { return __builtin_ia32_vfmaddpd256(a, b, c); }"},
    {"ltp_vfma_f64", LvSSE2,
     "static inline ltp_vf64 ltp_vfma_f64(ltp_vf64 a, ltp_vf64 b, "
     "ltp_vf64 c) { return a * b + c; }"},
    {"ltp_maskload_f64", LvAVX2,
     "static inline ltp_vf64 ltp_maskload_f64(const double *p, ltp_vint m) "
     "{ return __builtin_ia32_maskloadpd256((const ltp_vf64 *)p, "
     "(ltp_vi64)m); }"},
    {"ltp_maskstore_f64", LvAVX2,
     "static inline void ltp_maskstore_f64(double *p, ltp_vint m, "
     "ltp_vf64 v) { __builtin_ia32_maskstorepd256((ltp_vf64 *)p, "
     "(ltp_vi64)m, v); }"},

    // int32/uint32 vectors (shared; void pointers bind both element
    // types). Operators go through the lane views GCC's header uses.
    {"ltp_vload_i32", LvVector,
     "static inline ltp_vint ltp_vload_i32(const void *p) "
     "{ return *(const ltp_vint_u *)p; }"},
    {"ltp_vstore_i32", LvVector,
     "static inline void ltp_vstore_i32(void *p, ltp_vint v) "
     "{ *(ltp_vint_u *)p = v; }"},
    {"ltp_vstream_i32", LvAVX2,
     "static inline void ltp_vstream_i32(void *p, ltp_vint v) "
     "{ __builtin_ia32_movntdq256((ltp_vi64 *)p, (ltp_vi64)v); }"},
    {"ltp_vstream_i32", LvSSE2,
     "static inline void ltp_vstream_i32(void *p, ltp_vint v) "
     "{ __builtin_ia32_movntdq((ltp_vi64 *)p, (ltp_vi64)v); }"},
    {"ltp_vset1_i32", LvAVX2,
     "static inline ltp_vint ltp_vset1_i32(uint32_t x) {\n"
     "  int v = (int)x;\n"
     "  return (ltp_vint)(ltp_vi32){v, v, v, v, v, v, v, v};\n"
     "}"},
    {"ltp_vset1_i32", LvSSE2,
     "static inline ltp_vint ltp_vset1_i32(uint32_t x) {\n"
     "  int v = (int)x;\n"
     "  return (ltp_vint)(ltp_vi32){v, v, v, v};\n"
     "}"},
    {"ltp_vadd_i32", LvVector,
     "static inline ltp_vint ltp_vadd_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu32)a + (ltp_vu32)b); }"},
    {"ltp_vsub_i32", LvVector,
     "static inline ltp_vint ltp_vsub_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu32)a - (ltp_vu32)b); }"},
    {"ltp_vmul_i32", LvAVX2,
     "static inline ltp_vint ltp_vmul_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu32)a * (ltp_vu32)b); }"},
    {"ltp_vmin_i32", LvAVX2,
     "static inline ltp_vint ltp_vmin_i32(ltp_vint a, ltp_vint b) {\n"
     "  return (ltp_vint)__builtin_ia32_pminsd256((ltp_vi32)a, (ltp_vi32)b);\n"
     "}"},
    {"ltp_vmax_i32", LvAVX2,
     "static inline ltp_vint ltp_vmax_i32(ltp_vint a, ltp_vint b) {\n"
     "  return (ltp_vint)__builtin_ia32_pmaxsd256((ltp_vi32)a, (ltp_vi32)b);\n"
     "}"},
    {"ltp_vmin_u32", LvAVX2,
     "static inline ltp_vint ltp_vmin_u32(ltp_vint a, ltp_vint b) {\n"
     "  return (ltp_vint)__builtin_ia32_pminud256((ltp_vi32)a, (ltp_vi32)b);\n"
     "}"},
    {"ltp_vmax_u32", LvAVX2,
     "static inline ltp_vint ltp_vmax_u32(ltp_vint a, ltp_vint b) {\n"
     "  return (ltp_vint)__builtin_ia32_pmaxud256((ltp_vi32)a, (ltp_vi32)b);\n"
     "}"},
    {"ltp_vand_i32", LvVector,
     "static inline ltp_vint ltp_vand_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu64)a & (ltp_vu64)b); }"},
    {"ltp_vor_i32", LvVector,
     "static inline ltp_vint ltp_vor_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu64)a | (ltp_vu64)b); }"},
    {"ltp_vxor_i32", LvVector,
     "static inline ltp_vint ltp_vxor_i32(ltp_vint a, ltp_vint b) "
     "{ return (ltp_vint)((ltp_vu64)a ^ (ltp_vu64)b); }"},
    {"ltp_maskload_i32", LvAVX2,
     "static inline ltp_vint ltp_maskload_i32(const void *p, ltp_vint m) {\n"
     "  return (ltp_vint)__builtin_ia32_maskloadd256((const ltp_vi32 *)p,\n"
     "                                               (ltp_vi32)m);\n"
     "}"},
    {"ltp_maskstore_i32", LvAVX2,
     "static inline void ltp_maskstore_i32(void *p, ltp_vint m, "
     "ltp_vint v) {\n"
     "  __builtin_ia32_maskstored256((ltp_vi32 *)p, (ltp_vi32)m, "
     "(ltp_vi32)v);\n"
     "}"},

    // Horizontal sums of a vector reduction's partial-sum accumulator, and
    // the masked tail's lane clear (lanes past the tail add zero).
    {"ltp_hsum_f32", LvAVX2,
     "static inline float ltp_hsum_f32(ltp_vf32 v) "
     "{ return ((v[0] + v[4]) + (v[1] + v[5])) + "
     "((v[2] + v[6]) + (v[3] + v[7])); }"},
    {"ltp_hsum_f32", LvSSE2,
     "static inline float ltp_hsum_f32(ltp_vf32 v) "
     "{ return (v[0] + v[2]) + (v[1] + v[3]); }"},
    {"ltp_hsum_f64", LvAVX2,
     "static inline double ltp_hsum_f64(ltp_vf64 v) "
     "{ return (v[0] + v[2]) + (v[1] + v[3]); }"},
    {"ltp_hsum_f64", LvSSE2,
     "static inline double ltp_hsum_f64(ltp_vf64 v) "
     "{ return v[0] + v[1]; }"},
    {"ltp_hsum_i32", LvAVX2,
     "static inline uint32_t ltp_hsum_i32(ltp_vint v) {\n"
     "  ltp_vu32 u = (ltp_vu32)v;\n"
     "  return ((u[0] + u[4]) + (u[1] + u[5])) + "
     "((u[2] + u[6]) + (u[3] + u[7]));\n"
     "}"},
    {"ltp_hsum_i32", LvSSE2,
     "static inline uint32_t ltp_hsum_i32(ltp_vint v) {\n"
     "  ltp_vu32 u = (ltp_vu32)v;\n"
     "  return (u[0] + u[2]) + (u[1] + u[3]);\n"
     "}"},
    {"ltp_vmaskz_f32", LvAVX2,
     "static inline ltp_vf32 ltp_vmaskz_f32(ltp_vf32 v, ltp_vint m) "
     "{ return (ltp_vf32)((ltp_vint)v & m); }"},
    {"ltp_vmaskz_f64", LvAVX2,
     "static inline ltp_vf64 ltp_vmaskz_f64(ltp_vf64 v, ltp_vint m) "
     "{ return (ltp_vf64)((ltp_vint)v & m); }"},
    {"ltp_vmaskz_i32", LvAVX2,
     "static inline ltp_vint ltp_vmaskz_i32(ltp_vint v, ltp_vint m) "
     "{ return v & m; }"},

    // Lane masks for an N-element masked tail (N in [1, lanes)).
    {"ltp_tailmask_32", LvAVX2,
     "static inline ltp_vint ltp_tailmask_32(int64_t rem) {\n"
     "  int r = (int)rem;\n"
     "  return (ltp_vint)((ltp_vi32){r, r, r, r, r, r, r, r} >\n"
     "                    (ltp_vi32){0, 1, 2, 3, 4, 5, 6, 7});\n"
     "}"},
    {"ltp_tailmask_64", LvAVX2,
     "static inline ltp_vint ltp_tailmask_64(int64_t rem) {\n"
     "  return (ltp_vint)((ltp_vi64){rem, rem, rem, rem} >\n"
     "                    (ltp_vi64){0, 1, 2, 3});\n"
     "}"},
};

/// Every `ltp_`-prefixed identifier in \p Text.
std::set<std::string> ltpIdentifiers(const std::string &Text) {
  auto IsIdentChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  std::set<std::string> Ids;
  for (size_t I = 0; I != Text.size();) {
    if (!IsIdentChar(Text[I])) {
      ++I;
      continue;
    }
    size_t End = I;
    while (End != Text.size() && IsIdentChar(Text[End]))
      ++End;
    if (Text.compare(I, 4, "ltp_") == 0)
      Ids.insert(Text.substr(I, End - I));
    I = End;
  }
  return Ids;
}

class CEmitter {
public:
  CEmitter(const std::vector<BufferBinding> &Signature,
           const CodeGenOptions &Options, std::string KernelName)
      : Signature(Signature), Options(Options),
        KernelName(std::move(KernelName)) {
    for (size_t I = 0; I != Signature.size(); ++I) {
      assert(!BufferIndex.contains(Signature[I].Name) &&
             "duplicate buffer in kernel signature");
      BufferIndex[Signature[I].Name] = I;
    }
  }

  std::string run(const StmtPtr &S) {
    WrittenBuffers Written;
    Written.visitStmt(S);
    WrittenNames = std::move(Written.Names);
    HasNTStore NT;
    NT.visitStmt(S);
    bool UsesStreaming = NT.Found && Options.EnableNonTemporal;

    std::string Body;
    emitStmt(S, 1, Body);

    std::string Code = OutlinedFunctions;
    Code += strFormat(
        "void %s(void *const *bufs, const ltp_jit_runtime *rt) {\n",
        KernelName.c_str());
    Code += bufferDecls(1, "bufs");
    Code += "  (void)rt;\n";
    Code += Body;
    if (UsesStreaming)
      Code += "  ltp_stream_fence();\n";
    Code += "}\n";
    return prelude(Code) + Code;
  }

private:
  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  std::string emitExpr(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::IntImm: {
      int64_t V = exprAs<IntImm>(E)->Value;
      if (V > INT32_MAX || V < INT32_MIN)
        return strFormat("%lldLL", static_cast<long long>(V));
      return std::to_string(V);
    }
    case ExprKind::FloatImm: {
      double V = exprAs<FloatImm>(E)->Value;
      std::string Text = E->type() == Type::float32()
                             ? strFormat("%.9g", V)
                             : strFormat("%.17g", V);
      // Keep the literal a floating constant even for integral values.
      if (Text.find_first_of(".eE") == std::string::npos &&
          Text.find_first_of("ni") == std::string::npos) // inf/nan
        Text += ".0";
      if (E->type() == Type::float32())
        Text += "f";
      return Text;
    }
    case ExprKind::VarRef:
      return exprAs<VarRef>(E)->Name;
    case ExprKind::Load: {
      const Load *L = exprAs<Load>(E);
      std::string Elem = L->BufferName + "[" +
                         linearIndex(L->BufferName, L->Indices) + "]";
      return Elem == AccumulatorElem ? "ltp_sacc" : Elem;
    }
    case ExprKind::Binary: {
      const Binary *B = exprAs<Binary>(E);
      if (B->Op == BinOp::Min || B->Op == BinOp::Max) {
        const char *Fn = B->Op == BinOp::Min ? "ltp_min_" : "ltp_max_";
        return std::string(Fn) + minMaxSuffix(B->A->type()) + "(" +
               emitExpr(B->A) + ", " + emitExpr(B->B) + ")";
      }
      return "(" + emitExpr(B->A) + " " + binOpSpelling(B->Op) + " " +
             emitExpr(B->B) + ")";
    }
    case ExprKind::Cast:
      return "(" + E->type().cName() + ")(" +
             emitExpr(exprAs<Cast>(E)->Value) + ")";
    case ExprKind::Select: {
      const Select *S = exprAs<Select>(E);
      return "(" + emitExpr(S->Cond) + " ? " + emitExpr(S->TrueValue) +
             " : " + emitExpr(S->FalseValue) + ")";
    }
    }
    assert(false && "unknown expression kind");
    return "";
  }

  /// Emits the flattened element index for a buffer access.
  std::string linearIndex(const std::string &BufferName,
                          const std::vector<ExprPtr> &Indices) {
    auto It = BufferIndex.find(BufferName);
    assert(It != BufferIndex.end() &&
           "access to a buffer missing from the kernel signature");
    const BufferBinding &Binding = Signature[It->second];
    assert(Indices.size() == Binding.Extents.size() &&
           "access rank does not match buffer rank");
    std::string Out;
    for (size_t D = 0; D != Indices.size(); ++D) {
      std::string Term = "(int64_t)(" + emitExpr(Indices[D]) + ")";
      if (Binding.Strides[D] != 1)
        Term += strFormat(" * %lldLL",
                          static_cast<long long>(Binding.Strides[D]));
      if (!Out.empty())
        Out += " + ";
      Out += Term;
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void emitStmt(const StmtPtr &S, int Indent, std::string &Out) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (S->kind()) {
    case StmtKind::For: {
      const For *F = stmtAs<For>(S);
      assert(F->VarName != "bufs" && F->VarName != "rt" &&
             F->VarName.rfind("ltp_", 0) != 0 &&
             "loop variable name collides with a reserved codegen "
             "identifier");
      if (F->Kind == ForKind::Parallel) {
        emitParallelFor(F, Indent, Out);
        return;
      }
      if (F->Kind == ForKind::UnrollJammed &&
          tryEmitJammedLoop(F, Indent, Out))
        return;
      if (F->Kind == ForKind::Vectorized) {
        if (tryEmitSimdLoop(F, Indent, Out))
          return;
        if (tryEmitStreamingVectorLoop(F, Indent, Out))
          return;
        if (tryEmitScalarReduction(F, Indent, Out))
          return;
      }
      // An UnrollJammed loop whose jam form does not match is emitted as
      // the plain loop: an unroll pragma without the jam only grows the
      // body (a guarded one ran at half speed).
      if (F->Kind == ForKind::Vectorized && storesAdvanceAlong(F))
        Out += Pad + "#pragma GCC ivdep\n";
      else if (F->Kind == ForKind::Unrolled)
        Out += Pad + "#pragma GCC unroll 16\n";
      Out += Pad + loopHeader(F);
      ScopeVars.push_back(F->VarName);
      emitStmt(F->Body, Indent + 1, Out);
      ScopeVars.pop_back();
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::Store: {
      const Store *St = stmtAs<Store>(S);
      auto It = BufferIndex.find(St->BufferName);
      assert(It != BufferIndex.end() &&
             "store to a buffer missing from the kernel signature");
      const BufferBinding &Binding = Signature[It->second];
      std::string Index = linearIndex(St->BufferName, St->Indices);
      std::string Value = "(" + Binding.ElemType.cName() + ")(" +
                          emitExpr(St->Value) + ")";
      if (St->NonTemporal && Options.EnableNonTemporal) {
        const char *Fn = nullptr;
        if (Binding.ElemType == Type::float32())
          Fn = "ltp_stream_store_f32";
        else if (Binding.ElemType == Type::float64())
          Fn = "ltp_stream_store_f64";
        else if (Binding.ElemType == Type::uint32() ||
                 Binding.ElemType == Type::int32())
          Fn = "ltp_stream_store_u32";
        if (Fn) {
          Out += Pad +
                 strFormat("%s(&%s[%s], %s);\n", Fn,
                           St->BufferName.c_str(), Index.c_str(),
                           Value.c_str());
          return;
        }
        // Element types without a streaming variant fall through to a
        // regular store.
      }
      Out += Pad + St->BufferName + "[" + Index + "] = " + Value + ";\n";
      return;
    }
    case StmtKind::LetStmt: {
      const LetStmt *L = stmtAs<LetStmt>(S);
      Out += Pad + "{\n";
      Out += Pad + "  int64_t " + L->Name + " = " + emitExpr(L->Value) +
             ";\n";
      ScopeVars.push_back(L->Name);
      emitStmt(L->Body, Indent + 1, Out);
      ScopeVars.pop_back();
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::IfThenElse: {
      const IfThenElse *I = stmtAs<IfThenElse>(S);
      Out += Pad + "if (" + emitExpr(I->Cond) + ") {\n";
      emitStmt(I->Then, Indent + 1, Out);
      if (I->Else) {
        Out += Pad + "} else {\n";
        emitStmt(I->Else, Indent + 1, Out);
      }
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::Block: {
      for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
        emitStmt(Child, Indent, Out);
      return;
    }
    }
    assert(false && "unknown statement kind");
  }

  /// Emits a non-temporal vectorized store loop via software
  /// write-combining: the value stream is computed into a 64-byte-aligned
  /// cache-resident block (vectorized by the host compiler), which is
  /// then flushed with whole-vector streaming stores — the
  /// (v)movntps/(v)movntdq path of the paper's Section 4. Applies when
  /// the loop body is a single non-temporal store that walks dimension 0
  /// contiguously; destination alignment is verified at runtime with a
  /// scalar-streaming fallback. Returns false when the pattern does not
  /// match (the caller emits the generic loop).
  bool tryEmitStreamingVectorLoop(const For *F, int Indent,
                                  std::string &Out) {
    if (!Options.EnableNonTemporal)
      return false;
    const Store *St = stmtDynAs<Store>(F->Body);
    if (!St || !St->NonTemporal)
      return false;
    auto It = BufferIndex.find(St->BufferName);
    assert(It != BufferIndex.end() && "store to unknown buffer");
    const BufferBinding &Binding = Signature[It->second];
    if (Binding.ElemType.bytes() != 4)
      return false; // block helpers cover 4-byte elements
    assert(Binding.Strides[0] == 1 && "dimension 0 must be contiguous");

    // Dimension 0 must be `loop_var + invariant`; other dimensions must
    // not involve the loop variable.
    if (!indexIsVarPlusInvariant(St->Indices[0], F->VarName))
      return false;
    for (size_t D = 1; D != St->Indices.size(); ++D)
      if (exprContainsVar(St->Indices[D], F->VarName))
        return false;

    const char *CType = Binding.ElemType == Type::float32() ? "float"
                                                            : "uint32_t";
    const char *BlockFn = Binding.ElemType == Type::float32()
                              ? "ltp_stream_block_f32"
                              : "ltp_stream_block_u32";
    const char *ScalarFn = Binding.ElemType == Type::float32()
                               ? "ltp_stream_store_f32"
                               : "ltp_stream_store_u32";

    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    std::string P2 = Pad + "  ";
    std::string P3 = Pad + "    ";
    const std::string &V = F->VarName;

    // The destination pointer at the loop start: indices with the loop
    // variable bound to the loop minimum.
    Out += Pad + "{\n";
    Out += P2 + "const int64_t ltp_min = " + emitExpr(F->Min) + ";\n";
    Out += P2 + "const int64_t ltp_ext = " + emitExpr(F->Extent) + ";\n";
    Out += P2 + strFormat("%s *ltp_base;\n", CType);
    Out += P2 + "{\n";
    Out += P3 + strFormat("const int64_t %s = ltp_min;\n", V.c_str());
    Out += P3 + strFormat("ltp_base = &%s[", St->BufferName.c_str()) +
           linearIndex(St->BufferName, St->Indices) + "];\n";
    Out += P2 + "}\n";
    // The alignment test picks the block loop's bound rather than guarding
    // the loop: when the destination's alignment is known at compile time
    // a guarded loop leaves a dead epilogue GCC warns about.
    // A block is one 64 B line (16 four-byte elements), so a 16-wide
    // vectorized tile, the spatial optimizer's usual one, fills it.
    Out += P2 + "const int64_t ltp_full = ((uintptr_t)ltp_base & 63) == 0 "
                "? ltp_ext / 16 * 16 : 0;\n";
    Out += P2 + "int64_t ltp_done = 0;\n";
    Out += P2 + "for (; ltp_done < ltp_full; ltp_done += 16) {\n";
    Out += P3 + strFormat("_Alignas(64) %s ltp_wc[16];\n", CType);
    Out += P3 + "#pragma GCC ivdep\n";
    Out += P3 + "for (int64_t ltp_t = 0; ltp_t != 16; ++ltp_t) {\n";
    Out += P3 + strFormat("  const int64_t %s = ltp_min + ltp_done + "
                          "ltp_t;\n",
                          V.c_str());
    Out += P3 + strFormat("  (void)%s;\n", V.c_str());
    Out += P3 + strFormat("  ltp_wc[ltp_t] = (%s)(", CType) +
           emitExpr(St->Value) + ");\n";
    Out += P3 + "}\n";
    Out += P3 + strFormat("%s(ltp_base + ltp_done, ltp_wc);\n", BlockFn);
    Out += P2 + "}\n";
    // Scalar-streaming epilogue (also the unaligned fallback).
    Out += P2 + "for (; ltp_done < ltp_ext; ++ltp_done) {\n";
    Out += P3 + strFormat("const int64_t %s = ltp_min + ltp_done;\n",
                          V.c_str());
    Out += P3 + strFormat("%s(&%s[", ScalarFn, St->BufferName.c_str()) +
           linearIndex(St->BufferName, St->Indices) + "], (" + CType +
           ")(" + emitExpr(St->Value) + "));\n";
    Out += P2 + "}\n";
    Out += Pad + "}\n";
    return true;
  }

  /// True when every store under \p F moves along F's variable. A store
  /// that stays put is a reduction the loop carries, which `ivdep` would
  /// tell the host compiler to ignore.
  bool storesAdvanceAlong(const For *F) {
    StoreCollector SC;
    SC.visitStmt(F->Body);
    for (const Store *St : SC.Stores) {
      auto C = accessCoeff(St->BufferName, St->Indices, F->VarName);
      if (!C || *C == 0)
        return false;
    }
    return true;
  }

  /// True when \p E references \p Name anywhere.
  static bool exprContainsVar(const ExprPtr &E, const std::string &Name) {
    class Finder : public IRVisitor {
    public:
      explicit Finder(const std::string &Name) : Name(Name) {}
      bool Found = false;

    protected:
      void visit(const VarRef *Node) override {
        Found |= Node->Name == Name;
      }

    private:
      const std::string &Name;
    };
    Finder F(Name);
    F.visitExpr(E);
    return F.Found;
  }

  /// True when \p E is `Name + invariant` (unit coefficient): VarRef, or
  /// Add with exactly one side being the bare VarRef and the other side
  /// invariant in \p Name.
  static bool indexIsVarPlusInvariant(const ExprPtr &E,
                                      const std::string &Name) {
    if (const VarRef *V = exprDynAs<VarRef>(E))
      return V->Name == Name;
    const Binary *B = exprDynAs<Binary>(E);
    if (!B || B->Op != BinOp::Add)
      return false;
    const VarRef *LHS = exprDynAs<VarRef>(B->A);
    const VarRef *RHS = exprDynAs<VarRef>(B->B);
    if (LHS && LHS->Name == Name && !exprContainsVar(B->B, Name))
      return true;
    if (RHS && RHS->Name == Name && !exprContainsVar(B->A, Name))
      return true;
    return false;
  }

  //===--------------------------------------------------------------------===//
  // Explicit SIMD
  //===--------------------------------------------------------------------===//

  /// Per-region context of explicit vector emission.
  struct VecCtx {
    std::string Var; ///< the vectorized loop variable
    Type VT;         ///< element type carried by the vector registers
    int Lanes = 1;
    bool Masked = false; ///< inside the masked tail (loads/stores masked)
  };

  static const char *vecSuffix(Type VT) {
    if (VT == Type::float32())
      return "f32";
    if (VT == Type::float64())
      return "f64";
    return "i32"; // Int32 and UInt32 share the integer vector type.
  }

  static bool vecTypeOK(Type VT) {
    return VT == Type::float32() || VT == Type::float64() ||
           VT == Type::int32() || VT == Type::uint32();
  }

  /// Coefficient of \p Var in \p E when E is affine in Var (terms not
  /// involving Var may be arbitrary); nullopt when Var occurs in a
  /// non-affine position.
  static std::optional<int64_t> affineCoeff(const ExprPtr &E,
                                            const std::string &Var) {
    switch (E->kind()) {
    case ExprKind::IntImm:
    case ExprKind::FloatImm:
      return 0;
    case ExprKind::VarRef:
      return exprAs<VarRef>(E)->Name == Var ? 1 : 0;
    case ExprKind::Binary: {
      const Binary *B = exprAs<Binary>(E);
      if (B->Op == BinOp::Add || B->Op == BinOp::Sub) {
        auto A = affineCoeff(B->A, Var);
        auto C = affineCoeff(B->B, Var);
        if (!A || !C)
          return std::nullopt;
        return B->Op == BinOp::Add ? *A + *C : *A - *C;
      }
      if (B->Op == BinOp::Mul) {
        if (const IntImm *CA = exprDynAs<IntImm>(B->A)) {
          auto C = affineCoeff(B->B, Var);
          return C ? std::optional<int64_t>(CA->Value * *C) : std::nullopt;
        }
        if (const IntImm *CB = exprDynAs<IntImm>(B->B)) {
          auto C = affineCoeff(B->A, Var);
          return C ? std::optional<int64_t>(CB->Value * *C) : std::nullopt;
        }
      }
      break;
    }
    default:
      break;
    }
    return exprContainsVar(E, Var) ? std::nullopt
                                   : std::optional<int64_t>(0);
  }

  /// Coefficient of \p Var in the flattened (stride-weighted) element
  /// index of an access: 0 = invariant (broadcast), 1 = unit stride.
  std::optional<int64_t> accessCoeff(const std::string &BufferName,
                                     const std::vector<ExprPtr> &Indices,
                                     const std::string &Var) {
    auto It = BufferIndex.find(BufferName);
    assert(It != BufferIndex.end() && "access to unknown buffer");
    const BufferBinding &B = Signature[It->second];
    int64_t Total = 0;
    for (size_t D = 0; D != Indices.size(); ++D) {
      auto C = affineCoeff(Indices[D], Var);
      if (!C)
        return std::nullopt;
      Total += *C * B.Strides[D];
    }
    return Total;
  }

  /// True when \p Op has a vector form for \p VT at the selected ISA.
  bool vecOpSupported(BinOp Op, Type VT) const {
    bool Flt = VT.isFloat();
    bool AVX2 = Options.ISA.Level == codegen::SimdLevel::AVX2;
    switch (Op) {
    case BinOp::Add:
    case BinOp::Sub:
      return true;
    case BinOp::Mul: // integer mullo and min/max need AVX2 (SSE4.1+)
    case BinOp::Min:
    case BinOp::Max:
      return Flt || AVX2;
    case BinOp::Div:
      return Flt;
    case BinOp::BitAnd:
    case BinOp::BitOr:
    case BinOp::BitXor:
      return !Flt;
    default:
      return false;
    }
  }

  std::string vecOpFn(BinOp Op, Type VT) const {
    const char *Sfx = vecSuffix(VT);
    switch (Op) {
    case BinOp::Add:
      return std::string("ltp_vadd_") + Sfx;
    case BinOp::Sub:
      return std::string("ltp_vsub_") + Sfx;
    case BinOp::Mul:
      return std::string("ltp_vmul_") + Sfx;
    case BinOp::Div:
      return std::string("ltp_vdiv_") + Sfx;
    case BinOp::Min:
      return VT == Type::uint32() ? "ltp_vmin_u32"
                                  : std::string("ltp_vmin_") + Sfx;
    case BinOp::Max:
      return VT == Type::uint32() ? "ltp_vmax_u32"
                                  : std::string("ltp_vmax_") + Sfx;
    case BinOp::BitAnd:
      return std::string("ltp_vand_") + Sfx;
    case BinOp::BitOr:
      return std::string("ltp_vor_") + Sfx;
    case BinOp::BitXor:
      return std::string("ltp_vxor_") + Sfx;
    default:
      assert(false && "operator without a vector form");
      return "";
    }
  }

  /// True when \p E can be evaluated as a vector of Ctx.Lanes elements
  /// along Ctx.Var: invariant subtrees broadcast; loads must be unit
  /// stride; operators must have a vector form.
  bool checkVecExpr(const ExprPtr &E, const VecCtx &Ctx) {
    if (!exprContainsVar(E, Ctx.Var))
      return E->type() == Ctx.VT; // broadcast of a scalar subtree
    switch (E->kind()) {
    case ExprKind::Load: {
      const Load *L = exprAs<Load>(E);
      if (L->type() != Ctx.VT)
        return false;
      auto C = accessCoeff(L->BufferName, L->Indices, Ctx.Var);
      return C && *C == 1;
    }
    case ExprKind::Binary: {
      const Binary *B = exprAs<Binary>(E);
      if (E->type() != Ctx.VT || !vecOpSupported(B->Op, Ctx.VT))
        return false;
      return checkVecExpr(B->A, Ctx) && checkVecExpr(B->B, Ctx);
    }
    default:
      return false; // Cast/Select/Mod etc. fall back to the pragma path.
    }
  }

  /// Structural check of a vectorized loop body: stores must be unit
  /// stride in the vector variable with vectorizable values; inner
  /// control flow (serial loops, guards, lets) must be invariant in it.
  bool checkVecStmt(const StmtPtr &S, const VecCtx &Ctx,
                    std::vector<const Store *> &Stores) {
    switch (S->kind()) {
    case StmtKind::Store: {
      const Store *St = stmtAs<Store>(S);
      auto It = BufferIndex.find(St->BufferName);
      assert(It != BufferIndex.end() && "store to unknown buffer");
      if (Signature[It->second].ElemType != Ctx.VT)
        return false;
      // Streaming stores need the dedicated aligned paths.
      if (St->NonTemporal && Options.EnableNonTemporal)
        return false;
      auto C = accessCoeff(St->BufferName, St->Indices, Ctx.Var);
      if (!C || *C != 1)
        return false;
      if (St->Value->type() != Ctx.VT || !checkVecExpr(St->Value, Ctx))
        return false;
      Stores.push_back(St);
      return true;
    }
    case StmtKind::For: {
      const For *F = stmtAs<For>(S);
      if (F->Kind != ForKind::Serial && F->Kind != ForKind::Unrolled)
        return false;
      if (exprContainsVar(F->Min, Ctx.Var) ||
          exprContainsVar(F->Extent, Ctx.Var))
        return false;
      return checkVecStmt(F->Body, Ctx, Stores);
    }
    case StmtKind::IfThenElse: {
      const IfThenElse *I = stmtAs<IfThenElse>(S);
      if (exprContainsVar(I->Cond, Ctx.Var))
        return false;
      if (!checkVecStmt(I->Then, Ctx, Stores))
        return false;
      return !I->Else || checkVecStmt(I->Else, Ctx, Stores);
    }
    case StmtKind::LetStmt: {
      const LetStmt *L = stmtAs<LetStmt>(S);
      if (exprContainsVar(L->Value, Ctx.Var))
        return false;
      return checkVecStmt(L->Body, Ctx, Stores);
    }
    case StmtKind::Block: {
      for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
        if (!checkVecStmt(Child, Ctx, Stores))
          return false;
      return true;
    }
    }
    return false;
  }

  /// Emits \p E as a vector value of Ctx.Lanes lanes.
  std::string emitVecExpr(const ExprPtr &E, const VecCtx &Ctx) {
    const char *Sfx = vecSuffix(Ctx.VT);
    if (!exprContainsVar(E, Ctx.Var))
      return std::string("ltp_vset1_") + Sfx + "(" + emitExpr(E) + ")";
    switch (E->kind()) {
    case ExprKind::Load: {
      const Load *L = exprAs<Load>(E);
      std::string Addr = "&" + L->BufferName + "[" +
                         linearIndex(L->BufferName, L->Indices) + "]";
      if (Ctx.Masked)
        return std::string("ltp_maskload_") + Sfx + "(" + Addr +
               ", ltp_mask)";
      return std::string("ltp_vload_") + Sfx + "(" + Addr + ")";
    }
    case ExprKind::Binary: {
      const Binary *B = exprAs<Binary>(E);
      // Fold a*b+c into a fused multiply-add for float types.
      if (Ctx.VT.isFloat() && B->Op == BinOp::Add) {
        const Binary *MA = exprDynAs<Binary>(B->A);
        const Binary *MB = exprDynAs<Binary>(B->B);
        if (MA && MA->Op == BinOp::Mul)
          return std::string("ltp_vfma_") + Sfx + "(" +
                 emitVecExpr(MA->A, Ctx) + ", " + emitVecExpr(MA->B, Ctx) +
                 ", " + emitVecExpr(B->B, Ctx) + ")";
        if (MB && MB->Op == BinOp::Mul)
          return std::string("ltp_vfma_") + Sfx + "(" +
                 emitVecExpr(MB->A, Ctx) + ", " + emitVecExpr(MB->B, Ctx) +
                 ", " + emitVecExpr(B->A, Ctx) + ")";
      }
      return vecOpFn(B->Op, Ctx.VT) + "(" + emitVecExpr(B->A, Ctx) + ", " +
             emitVecExpr(B->B, Ctx) + ")";
    }
    default:
      assert(false && "expression rejected by checkVecExpr");
      return "";
    }
  }

  /// Emits one statement of a vectorized loop body: stores become vector
  /// (or masked) stores, control flow stays scalar.
  void emitVecStmt(const StmtPtr &S, const VecCtx &Ctx, int Indent,
                   std::string &Out) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    switch (S->kind()) {
    case StmtKind::Store: {
      const Store *St = stmtAs<Store>(S);
      const char *Sfx = vecSuffix(Ctx.VT);
      std::string Addr = "&" + St->BufferName + "[" +
                         linearIndex(St->BufferName, St->Indices) + "]";
      if (Ctx.Masked)
        Out += Pad + "ltp_maskstore_" + Sfx + "(" + Addr + ", ltp_mask, " +
               emitVecExpr(St->Value, Ctx) + ");\n";
      else
        Out += Pad + "ltp_vstore_" + Sfx + "(" + Addr + ", " +
               emitVecExpr(St->Value, Ctx) + ");\n";
      return;
    }
    case StmtKind::For: {
      const For *F = stmtAs<For>(S);
      Out += Pad + loopHeader(F);
      emitVecStmt(F->Body, Ctx, Indent + 1, Out);
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::IfThenElse: {
      const IfThenElse *I = stmtAs<IfThenElse>(S);
      Out += Pad + "if (" + emitExpr(I->Cond) + ") {\n";
      emitVecStmt(I->Then, Ctx, Indent + 1, Out);
      if (I->Else) {
        Out += Pad + "} else {\n";
        emitVecStmt(I->Else, Ctx, Indent + 1, Out);
      }
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::LetStmt: {
      const LetStmt *L = stmtAs<LetStmt>(S);
      Out += Pad + "{\n";
      Out += Pad + "  const int64_t " + L->Name + " = " +
             emitExpr(L->Value) + ";\n";
      emitVecStmt(L->Body, Ctx, Indent + 1, Out);
      Out += Pad + "}\n";
      return;
    }
    case StmtKind::Block: {
      for (const StmtPtr &Child : stmtAs<Block>(S)->Stmts)
        emitVecStmt(Child, Ctx, Indent, Out);
      return;
    }
    }
    assert(false && "statement rejected by checkVecStmt");
  }

  /// Builds the vector context for a vectorized loop from the element
  /// type of the stores in its body; Lanes == 1 means "not profitable".
  VecCtx makeVecCtx(const For *F) {
    VecCtx Ctx;
    Ctx.Var = F->VarName;
    StoreCollector SC;
    SC.visitStmt(F->Body);
    if (SC.Stores.empty())
      return Ctx;
    auto It = BufferIndex.find(SC.Stores.front()->BufferName);
    assert(It != BufferIndex.end() && "store to unknown buffer");
    Ctx.VT = Signature[It->second].ElemType;
    if (!vecTypeOK(Ctx.VT))
      return Ctx;
    Ctx.Lanes = Options.ISA.lanes(Ctx.VT);
    return Ctx;
  }

  /// Explicit SIMD emission of a vectorized loop: a full-width main loop
  /// plus a masked (AVX2) or scalar epilogue for the non-divisible tail.
  /// A single direct non-temporal store becomes whole-vector streaming
  /// stores when the destination is aligned. Returns false when the body
  /// does not match (the caller falls back to write-combining / pragma).
  bool tryEmitSimdLoop(const For *F, int Indent, std::string &Out) {
    if (!Options.ExplicitSIMD)
      return false;
    VecCtx Ctx = makeVecCtx(F);
    if (Ctx.Lanes <= 1)
      return false;

    // Direct streaming path: the body is exactly one non-temporal store.
    if (const Store *St = stmtDynAs<Store>(F->Body))
      if (St->NonTemporal && Options.EnableNonTemporal)
        return tryEmitSimdStream(F, St, Ctx, Indent, Out);

    std::vector<const Store *> Stores;
    if (!checkVecStmt(F->Body, Ctx, Stores) || Stores.empty()) {
      const Store *St = stmtDynAs<Store>(F->Body);
      ExprPtr Rest = St ? vecReductionRest(St, Ctx) : nullptr;
      if (!Rest)
        return false;
      emitVecReduction(F, St, Rest, Ctx, "", 1, Indent, Out);
      return true;
    }

    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    std::string P2 = Pad + "  ";
    const std::string &V = F->VarName;
    Out += Pad + strFormat("{ /* simd %s x%d (%s) */\n", vecSuffix(Ctx.VT),
                           Ctx.Lanes, Options.ISA.name());
    Out += P2 + "const int64_t ltp_vmin = " + emitExpr(F->Min) + ";\n";
    Out += P2 + "const int64_t ltp_vend = ltp_vmin + (" +
           emitExpr(F->Extent) + ");\n";
    Out += P2 + strFormat("int64_t %s = ltp_vmin;\n", V.c_str());
    // -O3 alone does not unroll explicit vector loops; ask for it so short
    // vector bodies amortize the loop overhead like the autovectorizer's
    // unrolled epilogue-free main loops do.
    Out += P2 + "#pragma GCC unroll 4\n";
    Out += P2 + strFormat("for (; %s + %d <= ltp_vend; %s += %d) {\n",
                          V.c_str(), Ctx.Lanes, V.c_str(), Ctx.Lanes);
    ScopeVars.push_back(V);
    emitVecStmt(F->Body, Ctx, Indent + 2, Out);
    Out += P2 + "}\n";
    if (Options.ISA.Level == codegen::SimdLevel::AVX2) {
      // Masked tail: lanes < rem load/store through a lane mask; masked
      // lanes read as zero, which is safe for the supported operators.
      const char *MaskFn =
          Ctx.VT == Type::float64() ? "ltp_tailmask_64" : "ltp_tailmask_32";
      Out += P2 + strFormat("if (%s < ltp_vend) {\n", V.c_str());
      Out += P2 + strFormat("  const ltp_vint ltp_mask = %s(ltp_vend - %s);"
                            "\n",
                            MaskFn, V.c_str());
      VecCtx Masked = Ctx;
      Masked.Masked = true;
      emitVecStmt(F->Body, Masked, Indent + 2, Out);
      Out += P2 + "}\n";
    } else {
      Out += P2 + strFormat("for (; %s < ltp_vend; ++%s) {\n", V.c_str(),
                            V.c_str());
      emitStmt(F->Body, Indent + 2, Out);
      Out += P2 + "}\n";
    }
    ScopeVars.pop_back();
    Out += Pad + "}\n";
    return true;
  }

  /// The rest term of a store `Buf[idx] = Buf[idx] <op> rest` (either
  /// operand order, \p B its value) when rest reads nothing of Buf; null
  /// otherwise.
  ExprPtr accumulatedTerm(const Store *St, const Binary *B) {
    const std::string StoreIdx = linearIndex(St->BufferName, St->Indices);
    auto IsSelf = [&](const ExprPtr &E) {
      const Load *L = exprDynAs<Load>(E);
      return L && L->BufferName == St->BufferName &&
             linearIndex(L->BufferName, L->Indices) == StoreIdx;
    };
    ExprPtr Rest = IsSelf(B->A) ? B->B : IsSelf(B->B) ? B->A : nullptr;
    if (!Rest)
      return nullptr;
    LoadCollector RC;
    RC.visitExpr(Rest);
    for (const Load *L : RC.Loads)
      if (L->BufferName == St->BufferName)
        return nullptr;
    return Rest;
  }

  /// The rest term of an accumulation `Buf[idx] = Buf[idx] + rest` whose
  /// address \p Var does not move: a reduction along Var into one
  /// element. Null otherwise, and for non-temporal stores.
  ExprPtr accumulationRest(const Store *St, const std::string &Var) {
    if (St->NonTemporal && Options.EnableNonTemporal)
      return nullptr;
    auto C = accessCoeff(St->BufferName, St->Indices, Var);
    const Binary *B = exprDynAs<Binary>(St->Value);
    if (!C || *C != 0 || !B || B->Op != BinOp::Add)
      return nullptr;
    return accumulatedTerm(St, B);
  }

  /// accumulationRest along the vector loop, when the element type matches
  /// the vector context and the rest term vectorizes.
  ExprPtr vecReductionRest(const Store *St, const VecCtx &Ctx) {
    auto It = BufferIndex.find(St->BufferName);
    assert(It != BufferIndex.end() && "store to unknown buffer");
    if (Signature[It->second].ElemType != Ctx.VT)
      return nullptr;
    ExprPtr Rest = accumulationRest(St, Ctx.Var);
    return Rest && checkVecExpr(Rest, Ctx) ? Rest : nullptr;
  }

  /// \p Acc plus the vector value of \p Rest. Each addend of an addition
  /// tree accumulates on its own, a product as one fused multiply-add.
  std::string emitVecAccumulate(const std::string &Acc, const ExprPtr &Rest,
                                const VecCtx &Ctx) {
    const char *Sfx = vecSuffix(Ctx.VT);
    if (const Binary *B = exprDynAs<Binary>(Rest);
        B && exprContainsVar(Rest, Ctx.Var)) {
      if (B->Op == BinOp::Add)
        return emitVecAccumulate(emitVecAccumulate(Acc, B->A, Ctx), B->B,
                                 Ctx);
      if (B->Op == BinOp::Mul && Ctx.VT.isFloat())
        return std::string("ltp_vfma_") + Sfx + "(" + emitVecExpr(B->A, Ctx) +
               ", " + emitVecExpr(B->B, Ctx) + ", " + Acc + ")";
    }
    return std::string("ltp_vadd_") + Sfx + "(" + Acc + ", " +
           emitVecExpr(Rest, Ctx) + ")";
  }

  /// The vector reduction form of \p Vec, whose single store \p St adds
  /// \p Rest into an element that stays fixed along it: one partial-sum
  /// vector per copy, a full-width main loop, a masked tail on AVX2, and
  /// one horizontal add into each element; SSE2 finishes with a scalar
  /// tail instead. \p Copies > 1 are jam copies, each binding \p JamVar
  /// to ltp_uj_min + copy around its statements.
  void emitVecReduction(const For *Vec, const Store *St, const ExprPtr &Rest,
                        const VecCtx &Ctx, const std::string &JamVar,
                        int64_t Copies, int Indent, std::string &Out) {
    const char *Sfx = vecSuffix(Ctx.VT);
    const std::string &V = Vec->VarName;
    const bool MaskedTail = Options.ISA.Level == codegen::SimdLevel::AVX2;
    auto Pad = [](int I) {
      return std::string(static_cast<size_t>(I) * 2, ' ');
    };
    auto PerCopy = [&](int Ind, auto EmitOne) {
      for (int64_t Copy = 0; Copy != Copies; ++Copy) {
        std::string Acc =
            strFormat("ltp_racc_%lld", static_cast<long long>(Copy));
        if (JamVar.empty()) {
          EmitOne(Acc, Ind);
          continue;
        }
        Out += Pad(Ind) + "{\n";
        Out += Pad(Ind + 1) +
               strFormat("const int64_t %s = ltp_uj_min + %lld;\n",
                         JamVar.c_str(), static_cast<long long>(Copy));
        EmitOne(Acc, Ind + 1);
        Out += Pad(Ind) + "}\n";
      }
    };

    Out += Pad(Indent) + strFormat("{ /* simd reduction %s x%d (%s) */\n",
                                   Sfx, Ctx.Lanes, Options.ISA.name());
    const int Ind = Indent + 1;
    Out += Pad(Ind) + "const int64_t ltp_vmin = " + emitExpr(Vec->Min) +
           ";\n";
    Out += Pad(Ind) + "const int64_t ltp_vend = ltp_vmin + (" +
           emitExpr(Vec->Extent) + ");\n";
    Out += Pad(Ind) + strFormat("int64_t %s = ltp_vmin;\n", V.c_str());
    for (int64_t Copy = 0; Copy != Copies; ++Copy)
      Out += Pad(Ind) + strFormat("%s ltp_racc_%lld = ltp_vset1_%s(0);\n",
                                  vecCType(Ctx.VT),
                                  static_cast<long long>(Copy), Sfx);
    ScopeVars.push_back(V);
    Out += Pad(Ind) + strFormat("for (; %s + %d <= ltp_vend; %s += %d) {\n",
                                V.c_str(), Ctx.Lanes, V.c_str(), Ctx.Lanes);
    PerCopy(Ind + 1, [&](const std::string &Acc, int I2) {
      Out += Pad(I2) + Acc + " = " + emitVecAccumulate(Acc, Rest, Ctx) +
             ";\n";
    });
    Out += Pad(Ind) + "}\n";
    if (MaskedTail) {
      // Masked lanes load zero, but the rest term need not map zero to
      // zero (a broadcast addend does not): clear them before adding.
      VecCtx Masked = Ctx;
      Masked.Masked = true;
      Out += Pad(Ind) + strFormat("if (%s < ltp_vend) {\n", V.c_str());
      Out += Pad(Ind + 1) +
             strFormat("const ltp_vint ltp_mask = %s(ltp_vend - %s);\n",
                       Ctx.VT == Type::float64() ? "ltp_tailmask_64"
                                                 : "ltp_tailmask_32",
                       V.c_str());
      PerCopy(Ind + 1, [&](const std::string &Acc, int I2) {
        Out += Pad(I2) + Acc + " = ltp_vadd_" + Sfx + "(" + Acc +
               ", ltp_vmaskz_" + Sfx + "(" + emitVecExpr(Rest, Masked) +
               ", ltp_mask));\n";
      });
      Out += Pad(Ind) + "}\n";
    }
    const std::string CType =
        Signature[BufferIndex.at(St->BufferName)].ElemType.cName();
    PerCopy(Ind, [&](const std::string &Acc, int I2) {
      std::string Elem = St->BufferName + "[" +
                         linearIndex(St->BufferName, St->Indices) + "]";
      Out += Pad(I2) + Elem + " = (" + CType + ")(" + Elem + " + ltp_hsum_" +
             Sfx + "(" + Acc + "));\n";
    });
    if (!MaskedTail) {
      Out += Pad(Ind) + strFormat("for (; %s < ltp_vend; ++%s) {\n",
                                  V.c_str(), V.c_str());
      PerCopy(Ind + 1, [&](const std::string &, int I2) {
        emitStmt(Vec->Body, I2, Out);
      });
      Out += Pad(Ind) + "}\n";
    }
    ScopeVars.pop_back();
    Out += Pad(Indent) + "}\n";
  }

  /// A vectorized loop the explicit SIMD paths did not take, whose single
  /// store stays put along it (a reduction): a serial loop accumulating
  /// in a scalar, with the element loaded before and stored after it. It
  /// keeps the sequential order, and carries no `ivdep`, which would
  /// license the host compiler to vectorize across the reduction.
  bool tryEmitScalarReduction(const For *F, int Indent, std::string &Out) {
    const Store *St = stmtDynAs<Store>(F->Body);
    if (!St || (St->NonTemporal && Options.EnableNonTemporal))
      return false;
    auto C = accessCoeff(St->BufferName, St->Indices, F->VarName);
    if (!C || *C != 0)
      return false;
    // Every read of the element must be the accumulator itself.
    const std::string Elem =
        St->BufferName + "[" + linearIndex(St->BufferName, St->Indices) + "]";
    LoadCollector LC;
    LC.visitExpr(St->Value);
    for (const Load *L : LC.Loads)
      if (L->BufferName == St->BufferName &&
          L->BufferName + "[" + linearIndex(L->BufferName, L->Indices) +
                  "]" !=
              Elem)
        return false;

    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    const std::string CType =
        Signature[BufferIndex.at(St->BufferName)].ElemType.cName();
    Out += Pad + "{ /* reduction, scalar accumulator */\n";
    Out += Pad + "  " + CType + " ltp_sacc = " + Elem + ";\n";
    Out += Pad + "  " + loopHeader(F);
    ScopeVars.push_back(F->VarName);
    AccumulatorElem = Elem;
    Out += Pad + "    ltp_sacc = (" + CType + ")(" + emitExpr(St->Value) +
           ");\n";
    AccumulatorElem.clear();
    ScopeVars.pop_back();
    Out += Pad + "  }\n";
    Out += Pad + "  " + Elem + " = ltp_sacc;\n";
    Out += Pad + "}\n";
    return true;
  }

  /// `for (int64_t v = min, v_end = (min) + (extent); v < v_end; ++v) {`
  std::string loopHeader(const For *F) {
    std::string Min = emitExpr(F->Min);
    return strFormat("for (int64_t %s = %s, %s_end = (%s) + (%s); "
                     "%s < %s_end; ++%s) {\n",
                     F->VarName.c_str(), Min.c_str(), F->VarName.c_str(),
                     Min.c_str(), emitExpr(F->Extent).c_str(),
                     F->VarName.c_str(), F->VarName.c_str(),
                     F->VarName.c_str());
  }

  /// Whole-vector streaming stores for `for v: Buf[...] = value` when the
  /// value is vectorizable: aligned main loop with ltp_vstream, scalar
  /// streaming stores for the tail and the unaligned fallback.
  bool tryEmitSimdStream(const For *F, const Store *St, const VecCtx &Ctx,
                         int Indent, std::string &Out) {
    auto C = accessCoeff(St->BufferName, St->Indices, Ctx.Var);
    if (!C || *C != 1)
      return false;
    if (St->Value->type() != Ctx.VT || !checkVecExpr(St->Value, Ctx))
      return false;
    auto It = BufferIndex.find(St->BufferName);
    const BufferBinding &Binding = Signature[It->second];

    const char *Sfx = vecSuffix(Ctx.VT);
    const char *ScalarFn = Ctx.VT == Type::float32()
                               ? "ltp_stream_store_f32"
                           : Ctx.VT == Type::float64()
                               ? "ltp_stream_store_f64"
                               : "ltp_stream_store_u32";

    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    std::string P2 = Pad + "  ";
    std::string P3 = Pad + "    ";
    const std::string &V = F->VarName;
    std::string CType = Binding.ElemType.cName();
    Out += Pad + strFormat("{ /* simd stream %s x%d (%s) */\n", Sfx,
                           Ctx.Lanes, Options.ISA.name());
    Out += P2 + "const int64_t ltp_vmin = " + emitExpr(F->Min) + ";\n";
    Out += P2 + "const int64_t ltp_vend = ltp_vmin + (" +
           emitExpr(F->Extent) + ");\n";
    Out += P2 + CType + " *ltp_dst0;\n";
    Out += P2 + "{\n";
    Out += P3 + strFormat("const int64_t %s = ltp_vmin;\n", V.c_str());
    Out += P3 + strFormat("(void)%s;\n", V.c_str());
    Out += P3 + strFormat("ltp_dst0 = &%s[", St->BufferName.c_str()) +
           linearIndex(St->BufferName, St->Indices) + "];\n";
    Out += P2 + "}\n";
    // As in the write-combining path, alignment picks the vector bound.
    Out += P2 + strFormat("const int64_t ltp_vfull = ((uintptr_t)ltp_dst0 "
                          "& %d) == 0\n",
                          Options.ISA.vectorBytes() - 1);
    Out += P3 + strFormat("? ltp_vmin + (ltp_vend - ltp_vmin) / %d * %d\n",
                          Ctx.Lanes, Ctx.Lanes);
    Out += P3 + ": ltp_vmin;\n";
    Out += P2 + strFormat("int64_t %s = ltp_vmin;\n", V.c_str());
    Out += P2 + "#pragma GCC unroll 4\n";
    Out += P2 + strFormat("for (; %s < ltp_vfull; %s += %d)\n", V.c_str(),
                          V.c_str(), Ctx.Lanes);
    Out += P2 + strFormat("  ltp_vstream_%s(&%s[", Sfx,
                          St->BufferName.c_str()) +
           linearIndex(St->BufferName, St->Indices) + "], " +
           emitVecExpr(St->Value, Ctx) + ");\n";
    Out += P2 + strFormat("for (; %s < ltp_vend; ++%s)\n", V.c_str(),
                          V.c_str());
    Out += P2 + strFormat("  %s(&%s[", ScalarFn, St->BufferName.c_str()) +
           linearIndex(St->BufferName, St->Indices) + "], (" + CType +
           ")(" + emitExpr(St->Value) + "));\n";
    Out += Pad + "}\n";
    return true;
  }

  /// Prelude register type of a vector of \p VT (sized by the ISA).
  static const char *vecCType(Type VT) {
    if (VT == Type::float32())
      return "ltp_vf32";
    if (VT == Type::float64())
      return "ltp_vf64";
    return "ltp_vint";
  }

  /// The frame every jammed form shares: the jam base and extent, then
  /// \p Body at the indent it is passed, with the jam variable in scope.
  /// A `min(U, rest)` extent (\p NeedGuard) runs \p Body on full tiles
  /// only; a partial tile runs the original nest serially.
  template <typename BodyFn>
  void emitJamFrame(const For *UJ, int64_t U, bool NeedGuard,
                    const char *Form, int Indent, std::string &Out,
                    BodyFn Body) {
    const std::string &UV = UJ->VarName;
    auto Pad = [](int I) {
      return std::string(static_cast<size_t>(I) * 2, ' ');
    };
    Out += Pad(Indent) + strFormat("{ /* unroll_jam %s x%lld%s */\n",
                                   UV.c_str(), static_cast<long long>(U),
                                   Form);
    Out += Pad(Indent + 1) + "const int64_t ltp_uj_min = " +
           emitExpr(UJ->Min) + ";\n";
    Out += Pad(Indent + 1) + "const int64_t ltp_uj_ext = " +
           emitExpr(UJ->Extent) + ";\n";
    if (NeedGuard)
      Out += Pad(Indent + 1) + strFormat("if (ltp_uj_ext == %lld) {\n",
                                         static_cast<long long>(U));
    else
      Out += Pad(Indent + 1) + "(void)ltp_uj_ext;\n";
    ScopeVars.push_back(UV);
    Body(NeedGuard ? Indent + 2 : Indent + 1);
    ScopeVars.pop_back();
    if (NeedGuard) {
      Out += Pad(Indent + 1) + "} else {\n";
      Out += Pad(Indent + 2) +
             strFormat("for (int64_t %s = ltp_uj_min, %s_end = ltp_uj_min "
                       "+ ltp_uj_ext; %s < %s_end; ++%s) {\n",
                       UV.c_str(), UV.c_str(), UV.c_str(), UV.c_str(),
                       UV.c_str());
      ScopeVars.push_back(UV);
      emitStmt(UJ->Body, Indent + 3, Out);
      ScopeVars.pop_back();
      Out += Pad(Indent + 2) + "}\n";
      Out += Pad(Indent + 1) + "}\n";
    }
    Out += Pad(Indent) + "}\n";
  }

  /// The register-accumulator form of a jammed loop. When the (single)
  /// store of the vectorized body is an accumulation (value combines a
  /// self-reference load with a rest term) and its address is invariant
  /// in a suffix of the intervening loops, the vector loop is
  /// interchanged with that suffix: per jam copy the accumulator vector
  /// is loaded once, updated in registers across the whole reduction,
  /// and stored once. This is the register tiling that `-fno-loop-
  /// unroll-and-jam` keeps the host compiler from doing on its own —
  /// on matmul-shaped kernels it removes the accumulator load/store
  /// from the innermost loop entirely.
  bool tryEmitJammedAccumulator(const For *UJ,
                                const std::vector<const For *> &Mid,
                                const For *Vec, const VecCtx &Ctx,
                                int64_t U, bool NeedGuard, int Indent,
                                std::string &Out) {
    const std::string &UV = UJ->VarName;
    const Store *St = stmtDynAs<Store>(Vec->Body);
    if (!St)
      return false;

    // The value must be `self <op> rest` (or `rest <op> self`) with a
    // commutative operator that has a vector form.
    const Binary *B = exprDynAs<Binary>(St->Value);
    if (!B || !vecOpSupported(B->Op, Ctx.VT))
      return false;
    if (B->Op != BinOp::Add && B->Op != BinOp::Mul &&
        B->Op != BinOp::Min && B->Op != BinOp::Max)
      return false;
    // The rest term must not read the written buffer (the jam legality
    // pass only guarantees self-references match the store address).
    ExprPtr Rest = accumulatedTerm(St, B);
    if (!Rest)
      return false;

    // Longest suffix of the intervening loops the accumulator address
    // and the vector bounds are invariant in; those interchange inward.
    size_t FirstInner = Mid.size();
    while (FirstInner > 0) {
      const std::string &MV = Mid[FirstInner - 1]->VarName;
      bool Invariant = !exprContainsVar(Vec->Min, MV) &&
                       !exprContainsVar(Vec->Extent, MV);
      for (const ExprPtr &Idx : St->Indices)
        if (exprContainsVar(Idx, MV))
          Invariant = false;
      if (!Invariant)
        break;
      --FirstInner;
    }
    if (FirstInner == Mid.size())
      return false; // nothing to hoist across

    const char *Sfx = vecSuffix(Ctx.VT);
    auto Pad = [](int I) {
      return std::string(static_cast<size_t>(I) * 2, ' ');
    };
    auto PerCopy = [&](int Ind, std::string &Dst, auto EmitOne) {
      for (int64_t Copy = 0; Copy != U; ++Copy) {
        Dst += Pad(Ind) + "{\n";
        Dst += Pad(Ind + 1) +
               strFormat("const int64_t %s = ltp_uj_min + %lld;\n",
                         UV.c_str(), static_cast<long long>(Copy));
        EmitOne(Copy, Ind + 1);
        Dst += Pad(Ind) + "}\n";
      }
    };

    emitJamFrame(UJ, U, NeedGuard, ", register accumulators", Indent, Out,
                 [&](int Ind) {
      // Loops the accumulator address depends on stay outside.
      for (size_t M = 0; M != FirstInner; ++M) {
        Out += Pad(Ind) + loopHeader(Mid[M]);
        ScopeVars.push_back(Mid[M]->VarName);
        ++Ind;
      }

      const std::string &V = Vec->VarName;
      Out += Pad(Ind) + "{\n";
      ++Ind;
      Out += Pad(Ind) + "const int64_t ltp_vmin = " + emitExpr(Vec->Min) +
             ";\n";
      Out += Pad(Ind) + "const int64_t ltp_vend = ltp_vmin + (" +
             emitExpr(Vec->Extent) + ");\n";
      Out += Pad(Ind) + strFormat("int64_t %s = ltp_vmin;\n", V.c_str());
      ScopeVars.push_back(V);
      Out += Pad(Ind) +
             strFormat("for (; %s + %d <= ltp_vend; %s += %d) {\n",
                       V.c_str(), Ctx.Lanes, V.c_str(), Ctx.Lanes);

      // Load the accumulators.
      for (int64_t Copy = 0; Copy != U; ++Copy)
        Out += Pad(Ind + 1) + strFormat("%s ltp_acc_%lld;\n",
                                        vecCType(Ctx.VT),
                                        static_cast<long long>(Copy));
      PerCopy(Ind + 1, Out, [&](int64_t Copy, int I2) {
        Out += Pad(I2) +
               strFormat("ltp_acc_%lld = ltp_vload_%s(&%s[",
                         static_cast<long long>(Copy), Sfx,
                         St->BufferName.c_str()) +
               linearIndex(St->BufferName, St->Indices) + "]);\n";
      });

      // The interchanged reduction loops, combining in registers.
      int RedInd = Ind + 1;
      for (size_t M = FirstInner; M != Mid.size(); ++M) {
        Out += Pad(RedInd) + loopHeader(Mid[M]);
        ScopeVars.push_back(Mid[M]->VarName);
        ++RedInd;
      }
      PerCopy(RedInd, Out, [&](int64_t Copy, int I2) {
        std::string Acc = strFormat("ltp_acc_%lld",
                                    static_cast<long long>(Copy));
        const Binary *RM = exprDynAs<Binary>(Rest);
        if (Ctx.VT.isFloat() && B->Op == BinOp::Add && RM &&
            RM->Op == BinOp::Mul)
          Out += Pad(I2) + Acc + " = ltp_vfma_" + Sfx + "(" +
                 emitVecExpr(RM->A, Ctx) + ", " + emitVecExpr(RM->B, Ctx) +
                 ", " + Acc + ");\n";
        else
          Out += Pad(I2) + Acc + " = " + vecOpFn(B->Op, Ctx.VT) + "(" + Acc +
                 ", " + emitVecExpr(Rest, Ctx) + ");\n";
      });
      for (size_t M = FirstInner; M != Mid.size(); ++M) {
        ScopeVars.pop_back();
        --RedInd;
        Out += Pad(RedInd) + "}\n";
      }

      // Store the accumulators.
      PerCopy(Ind + 1, Out, [&](int64_t Copy, int I2) {
        Out += Pad(I2) +
               strFormat("ltp_vstore_%s(&%s[", Sfx,
                         St->BufferName.c_str()) +
               linearIndex(St->BufferName, St->Indices) +
               strFormat("], ltp_acc_%lld);\n",
                         static_cast<long long>(Copy));
      });
      Out += Pad(Ind) + "}\n";

      // Scalar tail: the original (un-interchanged) nest per element.
      Out += Pad(Ind) + strFormat("for (; %s < ltp_vend; ++%s) {\n",
                                  V.c_str(), V.c_str());
      int TailInd = Ind + 1;
      for (size_t M = FirstInner; M != Mid.size(); ++M) {
        Out += Pad(TailInd) + loopHeader(Mid[M]);
        ScopeVars.push_back(Mid[M]->VarName);
        ++TailInd;
      }
      PerCopy(TailInd, Out, [&](int64_t /*Copy*/, int I2) {
        emitStmt(Vec->Body, I2, Out);
      });
      for (size_t M = FirstInner; M != Mid.size(); ++M) {
        ScopeVars.pop_back();
        --TailInd;
        Out += Pad(TailInd) + "}\n";
      }
      Out += Pad(Ind) + "}\n";
      ScopeVars.pop_back(); // V
      --Ind;
      Out += Pad(Ind) + "}\n";

      for (size_t M = 0; M != FirstInner; ++M) {
        ScopeVars.pop_back();
        --Ind;
        Out += Pad(Ind) + "}\n";
      }
    });
    return true;
  }

  /// Register tiling: emits an UnrollJammed loop whose body nests (through
  /// serial loops) down to a vectorized loop as U unrolled copies *inside*
  /// that vector loop, so each copy's accumulator can be register-promoted
  /// across the intervening (reduction) loops. When the vector loop is a
  /// reduction into one element, each copy keeps its own partial-sum
  /// vector instead (emitVecReduction). Falls back (returns false) unless
  /// the jam is provably legal: every store advances with the jam
  /// variable, and loads from a written buffer are self-references.
  bool tryEmitJammedLoop(const For *UJ, int Indent, std::string &Out) {
    if (!Options.ExplicitSIMD)
      return false;
    const std::string &UV = UJ->VarName;

    // Chain: UJ -> zero or more serial loops -> the vectorized loop.
    std::vector<const For *> Mid;
    const For *Vec = nullptr;
    for (StmtPtr Cur = UJ->Body;;) {
      const For *F = stmtDynAs<For>(Cur);
      if (!F)
        return false;
      if (F->Kind == ForKind::Vectorized) {
        Vec = F;
        break;
      }
      if (F->Kind != ForKind::Serial && F->Kind != ForKind::Unrolled)
        return false;
      if (exprContainsVar(F->Min, UV) || exprContainsVar(F->Extent, UV))
        return false;
      Mid.push_back(F);
      Cur = F->Body;
    }
    if (exprContainsVar(Vec->Min, UV) || exprContainsVar(Vec->Extent, UV))
      return false;

    VecCtx Ctx = makeVecCtx(Vec);
    if (Ctx.Lanes <= 1)
      return false;

    // The unroll factor: a constant extent, or the min(factor, rest)
    // guard the splitter emits — then a runtime full-tile check.
    int64_t U = 0;
    bool NeedGuard = false;
    if (const IntImm *I = exprDynAs<IntImm>(UJ->Extent)) {
      U = I->Value;
    } else if (const Binary *B = exprDynAs<Binary>(UJ->Extent);
               B && B->Op == BinOp::Min) {
      const IntImm *I = exprDynAs<IntImm>(B->A);
      if (!I)
        I = exprDynAs<IntImm>(B->B);
      if (I) {
        U = I->Value;
        NeedGuard = true;
      }
    }
    if (U < 2 || U > 8)
      return false;

    auto Pad = [](int I) {
      return std::string(static_cast<size_t>(I) * 2, ' ');
    };
    std::vector<const Store *> Stores;
    if (!checkVecStmt(Vec->Body, Ctx, Stores) || Stores.empty()) {
      // A reduction along the vector loop: one partial-sum vector per
      // copy, each copy accumulating into its own element.
      const Store *St = stmtDynAs<Store>(Vec->Body);
      ExprPtr Rest = St ? vecReductionRest(St, Ctx) : nullptr;
      auto CJ = St ? accessCoeff(St->BufferName, St->Indices, UV)
                   : std::nullopt;
      if (!Rest || !CJ || *CJ == 0)
        return false;
      emitJamFrame(UJ, U, NeedGuard, ", vector reduction accumulators",
                   Indent, Out, [&](int Ind) {
        for (const For *M : Mid) {
          Out += Pad(Ind) + loopHeader(M);
          ScopeVars.push_back(M->VarName);
          ++Ind;
        }
        emitVecReduction(Vec, St, Rest, Ctx, UV, U, Ind, Out);
        for (size_t M = 0; M != Mid.size(); ++M) {
          ScopeVars.pop_back();
          --Ind;
          Out += Pad(Ind) + "}\n";
        }
      });
      return true;
    }

    // Jam legality. Each unrolled copy must write distinct addresses …
    std::map<std::string, std::string> StoreIndexByBuffer;
    for (const Store *St : Stores) {
      auto CJ = accessCoeff(St->BufferName, St->Indices, UV);
      if (!CJ || *CJ == 0)
        return false;
      std::string Idx = linearIndex(St->BufferName, St->Indices);
      auto [It, Inserted] =
          StoreIndexByBuffer.emplace(St->BufferName, Idx);
      if (!Inserted && It->second != Idx)
        return false;
    }
    // … and reads of a written buffer must be self-references (the
    // accumulation pattern), or the interchange would break a dependence.
    LoadCollector LC;
    LC.visitStmt(Vec->Body);
    for (const Load *L : LC.Loads) {
      auto It = StoreIndexByBuffer.find(L->BufferName);
      if (It == StoreIndexByBuffer.end())
        continue;
      if (linearIndex(L->BufferName, L->Indices) != It->second)
        return false;
    }

    // Prefer the register-accumulator form (accumulators hoisted out of
    // the reduction loops); fall back to re-emitting the body per copy.
    if (Stores.size() == 1 &&
        tryEmitJammedAccumulator(UJ, Mid, Vec, Ctx, U, NeedGuard, Indent,
                                 Out))
      return true;

    emitJamFrame(UJ, U, NeedGuard, "", Indent, Out, [&](int Ind) {
      // Single instances of the intervening loops, jam copies innermost.
      for (const For *M : Mid) {
        Out += Pad(Ind) + loopHeader(M);
        ScopeVars.push_back(M->VarName);
        ++Ind;
      }
      const std::string &V = Vec->VarName;
      Out += Pad(Ind) + "{\n";
      ++Ind;
      Out += Pad(Ind) + "const int64_t ltp_vmin = " + emitExpr(Vec->Min) +
             ";\n";
      Out += Pad(Ind) + "const int64_t ltp_vend = ltp_vmin + (" +
             emitExpr(Vec->Extent) + ");\n";
      Out += Pad(Ind) + strFormat("int64_t %s = ltp_vmin;\n", V.c_str());
      Out += Pad(Ind) +
             strFormat("for (; %s + %d <= ltp_vend; %s += %d) {\n",
                       V.c_str(), Ctx.Lanes, V.c_str(), Ctx.Lanes);
      for (int64_t Copy = 0; Copy != U; ++Copy) {
        Out += Pad(Ind + 1) + "{\n";
        Out += Pad(Ind + 2) +
               strFormat("const int64_t %s = ltp_uj_min + %lld;\n",
                         UV.c_str(), static_cast<long long>(Copy));
        emitVecStmt(Vec->Body, Ctx, Ind + 2, Out);
        Out += Pad(Ind + 1) + "}\n";
      }
      Out += Pad(Ind) + "}\n";
      Out += Pad(Ind) + strFormat("for (; %s < ltp_vend; ++%s) {\n",
                                  V.c_str(), V.c_str());
      for (int64_t Copy = 0; Copy != U; ++Copy) {
        Out += Pad(Ind + 1) + "{\n";
        Out += Pad(Ind + 2) +
               strFormat("const int64_t %s = ltp_uj_min + %lld;\n",
                         UV.c_str(), static_cast<long long>(Copy));
        emitStmt(Vec->Body, Ind + 2, Out);
        Out += Pad(Ind + 1) + "}\n";
      }
      Out += Pad(Ind) + "}\n";
      --Ind;
      Out += Pad(Ind) + "}\n";
      for (size_t M = 0; M != Mid.size(); ++M) {
        ScopeVars.pop_back();
        --Ind;
        Out += Pad(Ind) + "}\n";
      }
    });
    return true;
  }

  /// Outlines a parallel loop body into a closure-taking function and
  /// emits the dispatch through the runtime's parallel_for hook.
  void emitParallelFor(const For *F, int Indent, std::string &Out) {
    int Id = ClosureCounter++;
    std::string ClosureType = strFormat("ltp_closure_%d", Id);
    std::string BodyFn = strFormat("ltp_par_body_%d", Id);

    // Snapshot the variables in scope: they are captured by value.
    std::vector<std::string> Captured = ScopeVars;

    // Generate the body function (depth-first: nested parallel loops
    // append their own definitions first).
    std::string BodyCode;
    ScopeVars.push_back(F->VarName);
    emitStmt(F->Body, 1, BodyCode);
    ScopeVars.pop_back();

    std::string Def;
    Def += "typedef struct {\n";
    Def += "  void *const *bufs;\n";
    Def += "  const ltp_jit_runtime *rt;\n";
    for (const std::string &Var : Captured)
      Def += "  int64_t " + Var + ";\n";
    Def += "} " + ClosureType + ";\n\n";
    Def += strFormat("static void %s(int64_t %s, void *ltp_opaque) {\n",
                     BodyFn.c_str(), F->VarName.c_str());
    Def += "  const " + ClosureType + " *ltp_cl = (const " + ClosureType +
           " *)ltp_opaque;\n";
    Def += "  void *const *bufs = ltp_cl->bufs;\n";
    Def += "  const ltp_jit_runtime *rt = ltp_cl->rt;\n";
    Def += "  (void)rt;\n";
    Def += bufferDecls(1, "bufs");
    for (const std::string &Var : Captured)
      Def += "  int64_t " + Var + " = ltp_cl->" + Var + ";\n";
    for (const std::string &Var : Captured)
      Def += "  (void)" + Var + ";\n";
    Def += BodyCode;
    Def += "}\n\n";
    OutlinedFunctions += Def;

    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    Out += Pad + "{\n";
    Out += Pad + "  " + ClosureType + " ltp_cl = {bufs, rt";
    for (const std::string &Var : Captured)
      Out += ", " + Var;
    Out += "};\n";
    Out += Pad +
           strFormat("  rt->parallel_for(rt, %s, %s, %s, &ltp_cl);\n",
                     emitExpr(F->Min).c_str(), emitExpr(F->Extent).c_str(),
                     BodyFn.c_str());
    Out += Pad + "}\n";
  }

  //===--------------------------------------------------------------------===//
  // Boilerplate
  //===--------------------------------------------------------------------===//

  /// Declares the typed buffer pointers from the untyped argument array.
  std::string bufferDecls(int Indent, const std::string &ArgName) {
    std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    std::string Out;
    for (size_t I = 0; I != Signature.size(); ++I) {
      const BufferBinding &B = Signature[I];
      bool Written = WrittenNames.contains(B.Name);
      std::string CType = B.ElemType.cName();
      if (Written)
        Out += Pad +
               strFormat("%s *restrict %s = (%s *)__builtin_assume_aligned("
                         "%s[%zu], 64);\n",
                         CType.c_str(), B.Name.c_str(), CType.c_str(),
                         ArgName.c_str(), I);
      else
        Out += Pad +
               strFormat("const %s *restrict %s = (const %s *)"
                         "__builtin_assume_aligned(%s[%zu], 64);\n",
                         CType.c_str(), B.Name.c_str(), CType.c_str(),
                         ArgName.c_str(), I);
      Out += Pad + strFormat("(void)%s;\n", B.Name.c_str());
    }
    return Out;
  }

  /// The fixed head of every translation unit, then the prelude: the
  /// helpers \p Code calls, at the prelude level, and the vector types
  /// they and the code name. Helpers never call each other, so one pass
  /// over the table finds them all.
  std::string prelude(const std::string &Code) const {
    const codegen::SimdLevel Level = preludeLevel(Options.ISA);
    const unsigned LevelBit = 1u << static_cast<unsigned>(Level);
    std::set<std::string> Used = ltpIdentifiers(Code);
    std::string Helpers;
    for (const PreludeHelper &H : PreludeHelpers) {
      if (!(H.Levels & LevelBit) || !Used.contains(H.Name))
        continue;
      Helpers += H.Text;
      Helpers += '\n';
      Used.merge(ltpIdentifiers(H.Text));
    }
    std::string Types;
    for (const PreludeType &T : PreludeTypes)
      if (Used.contains(T.Name))
        Types += strFormat("typedef %s %s __attribute__((__vector_size__(%d)"
                           "%s));\n",
                           T.Elem, T.Name,
                           codegen::TargetISA(Level).vectorBytes(), T.Attrs);

    std::string Out = "/* Generated by ltp codegen; do not edit. */\n"
                      "#include <stdint.h>\n"
                      "#include <stddef.h>\n\n"
                      "typedef struct ltp_jit_runtime {\n"
                      "  void (*parallel_for)(const struct ltp_jit_runtime "
                      "*rt,\n"
                      "                       int64_t min, int64_t extent,\n"
                      "                       void (*body)(int64_t idx, "
                      "void *closure),\n"
                      "                       void *closure);\n"
                      "} ltp_jit_runtime;\n\n";
    if (!Types.empty() || !Helpers.empty())
      Out += strFormat("/* Prelude (%s). */\n", Options.ISA.name()) + Types +
             Helpers + "\n";
    return Out;
  }

  const std::vector<BufferBinding> &Signature;
  CodeGenOptions Options;
  std::string KernelName;
  std::map<std::string, size_t> BufferIndex;
  std::set<std::string> WrittenNames;
  std::vector<std::string> ScopeVars;
  std::string OutlinedFunctions;
  int ClosureCounter = 0;
  /// While tryEmitScalarReduction emits its loop body: the element the
  /// scalar accumulator `ltp_sacc` stands for.
  std::string AccumulatorElem;
};

} // namespace

std::string ltp::generateC(const StmtPtr &S,
                           const std::vector<BufferBinding> &Signature,
                           const std::string &KernelName,
                           const CodeGenOptions &Options) {
  assert(S && "generating code for a null statement");
  CEmitter Emitter(Signature, Options, KernelName);
  return Emitter.run(S);
}
