//===- VM.cpp - threaded-dispatch executor for compiled bytecode ---------===//

#include "interp/VM.h"

#include "interp/Interpreter.h"
#include "runtime/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace ltp;
using namespace ltp::vm;

namespace {

/// One register. Which member is live is determined statically by the
/// typed opcodes that write and read it; `Mov` copies the whole union.
union VMValue {
  int64_t I;
  double D;
  float F;
};

#if defined(__GNUC__) || defined(__clang__)
#define LTP_VM_THREADED 1
#else
#define LTP_VM_THREADED 0
#endif

/// Executes instructions from \p Pc until Halt (program end) or EndPar
/// (end of a ParFor body frame). \p R must hold `P.NumRegs` registers.
void exec(const Program &P, VMValue *R, size_t Pc) {
  const Inst *Insts = P.Insts.data();
  const BufferDesc *Bufs = P.Buffers.data();
  const Inst *In;

#if LTP_VM_THREADED
  // Threaded dispatch: the label table is generated from the same X-macro
  // as the opcode enum, so the indexes line up by construction.
  static const void *const Labels[] = {
#define LTP_VM_LABEL(Name) &&L_##Name,
      LTP_VM_OPCODES(LTP_VM_LABEL)
#undef LTP_VM_LABEL
  };
#define CASE(Name) L_##Name:
#define NEXT                                                                 \
  do {                                                                       \
    In = &Insts[Pc++];                                                       \
    goto *Labels[static_cast<size_t>(In->Code)];                             \
  } while (0)
  NEXT;
#else
#define CASE(Name) case Op::Name:
#define NEXT break
  for (;;) {
    In = &Insts[Pc++];
    switch (In->Code) {
#endif

  CASE(ConstI) { R[In->A].I = In->Imm; }
  NEXT;
  CASE(ConstF32) {
    uint32_t Bits = static_cast<uint32_t>(In->Imm);
    std::memcpy(&R[In->A].F, &Bits, sizeof(Bits));
  }
  NEXT;
  CASE(ConstF64) { std::memcpy(&R[In->A].D, &In->Imm, sizeof(In->Imm)); }
  NEXT;
  CASE(Mov) { R[In->A] = R[In->B]; }
  NEXT;

  CASE(AddI) { R[In->A].I = R[In->B].I + R[In->C].I; }
  NEXT;
  CASE(SubI) { R[In->A].I = R[In->B].I - R[In->C].I; }
  NEXT;
  CASE(MulI) { R[In->A].I = R[In->B].I * R[In->C].I; }
  NEXT;
  CASE(DivI) {
    assert(R[In->C].I != 0 && "integer division by zero");
    R[In->A].I = R[In->B].I / R[In->C].I;
  }
  NEXT;
  CASE(ModI) {
    assert(R[In->C].I != 0 && "integer modulo by zero");
    R[In->A].I = R[In->B].I % R[In->C].I;
  }
  NEXT;
  CASE(MinI) { R[In->A].I = std::min(R[In->B].I, R[In->C].I); }
  NEXT;
  CASE(MaxI) { R[In->A].I = std::max(R[In->B].I, R[In->C].I); }
  NEXT;
  CASE(BitAndI) { R[In->A].I = R[In->B].I & R[In->C].I; }
  NEXT;
  CASE(BitOrI) { R[In->A].I = R[In->B].I | R[In->C].I; }
  NEXT;
  CASE(BitXorI) { R[In->A].I = R[In->B].I ^ R[In->C].I; }
  NEXT;
  CASE(LTI) { R[In->A].I = R[In->B].I < R[In->C].I; }
  NEXT;
  CASE(LEI) { R[In->A].I = R[In->B].I <= R[In->C].I; }
  NEXT;
  CASE(GTI) { R[In->A].I = R[In->B].I > R[In->C].I; }
  NEXT;
  CASE(GEI) { R[In->A].I = R[In->B].I >= R[In->C].I; }
  NEXT;
  CASE(EQI) { R[In->A].I = R[In->B].I == R[In->C].I; }
  NEXT;
  CASE(NEI) { R[In->A].I = R[In->B].I != R[In->C].I; }
  NEXT;
  CASE(AndL) { R[In->A].I = (R[In->B].I != 0) && (R[In->C].I != 0); }
  NEXT;
  CASE(OrL) { R[In->A].I = (R[In->B].I != 0) || (R[In->C].I != 0); }
  NEXT;

  CASE(AddF32) { R[In->A].F = R[In->B].F + R[In->C].F; }
  NEXT;
  CASE(SubF32) { R[In->A].F = R[In->B].F - R[In->C].F; }
  NEXT;
  CASE(MulF32) { R[In->A].F = R[In->B].F * R[In->C].F; }
  NEXT;
  CASE(DivF32) { R[In->A].F = R[In->B].F / R[In->C].F; }
  NEXT;
  CASE(MinF32) { R[In->A].F = std::min(R[In->B].F, R[In->C].F); }
  NEXT;
  CASE(MaxF32) { R[In->A].F = std::max(R[In->B].F, R[In->C].F); }
  NEXT;
  CASE(LTF32) { R[In->A].I = R[In->B].F < R[In->C].F; }
  NEXT;
  CASE(LEF32) { R[In->A].I = R[In->B].F <= R[In->C].F; }
  NEXT;
  CASE(GTF32) { R[In->A].I = R[In->B].F > R[In->C].F; }
  NEXT;
  CASE(GEF32) { R[In->A].I = R[In->B].F >= R[In->C].F; }
  NEXT;
  CASE(EQF32) { R[In->A].I = R[In->B].F == R[In->C].F; }
  NEXT;
  CASE(NEF32) { R[In->A].I = R[In->B].F != R[In->C].F; }
  NEXT;

  CASE(AddF64) { R[In->A].D = R[In->B].D + R[In->C].D; }
  NEXT;
  CASE(SubF64) { R[In->A].D = R[In->B].D - R[In->C].D; }
  NEXT;
  CASE(MulF64) { R[In->A].D = R[In->B].D * R[In->C].D; }
  NEXT;
  CASE(DivF64) { R[In->A].D = R[In->B].D / R[In->C].D; }
  NEXT;
  CASE(MinF64) { R[In->A].D = std::min(R[In->B].D, R[In->C].D); }
  NEXT;
  CASE(MaxF64) { R[In->A].D = std::max(R[In->B].D, R[In->C].D); }
  NEXT;
  CASE(LTF64) { R[In->A].I = R[In->B].D < R[In->C].D; }
  NEXT;
  CASE(LEF64) { R[In->A].I = R[In->B].D <= R[In->C].D; }
  NEXT;
  CASE(GTF64) { R[In->A].I = R[In->B].D > R[In->C].D; }
  NEXT;
  CASE(GEF64) { R[In->A].I = R[In->B].D >= R[In->C].D; }
  NEXT;
  CASE(EQF64) { R[In->A].I = R[In->B].D == R[In->C].D; }
  NEXT;
  CASE(NEF64) { R[In->A].I = R[In->B].D != R[In->C].D; }
  NEXT;

  CASE(I64ToF32) { R[In->A].F = static_cast<float>(R[In->B].I); }
  NEXT;
  CASE(I64ToF64) { R[In->A].D = static_cast<double>(R[In->B].I); }
  NEXT;
  CASE(F32ToF64) { R[In->A].D = static_cast<double>(R[In->B].F); }
  NEXT;
  CASE(F64ToF32) { R[In->A].F = static_cast<float>(R[In->B].D); }
  NEXT;
  CASE(F32ToI64) { R[In->A].I = static_cast<int64_t>(R[In->B].F); }
  NEXT;
  CASE(F64ToI64) { R[In->A].I = static_cast<int64_t>(R[In->B].D); }
  NEXT;
  CASE(TruncI32) { R[In->A].I = static_cast<int32_t>(R[In->B].I); }
  NEXT;
  CASE(TruncU32) { R[In->A].I = static_cast<uint32_t>(R[In->B].I); }
  NEXT;
  CASE(TruncU8) { R[In->A].I = static_cast<uint8_t>(R[In->B].I); }
  NEXT;
  CASE(BoolI) { R[In->A].I = R[In->B].I != 0; }
  NEXT;

  CASE(MulImm) { R[In->A].I = R[In->B].I * In->Imm; }
  NEXT;
  CASE(MAddImm) { R[In->A].I = R[In->B].I + R[In->C].I * In->Imm; }
  NEXT;

  CASE(Jmp) { Pc = static_cast<size_t>(In->Imm); }
  NEXT;
  CASE(BrZ) {
    if (R[In->A].I == 0)
      Pc = static_cast<size_t>(In->Imm);
  }
  NEXT;
  CASE(BrGE) {
    if (R[In->A].I >= R[In->B].I)
      Pc = static_cast<size_t>(In->Imm);
  }
  NEXT;
  CASE(IncI) { ++R[In->A].I; }
  NEXT;
  CASE(ParFor) {
    const int64_t Min = R[In->B].I;
    const int64_t Extent = R[In->C].I;
    const size_t BodyPc = Pc; // first body instruction
    const uint16_t Var = In->A;
    const size_t Continue = static_cast<size_t>(In->Imm);
    if (Extent > 0) {
      // Each iteration runs the body on a private copy of the frame, so
      // scalars written inside never race. Nested ParFor bodies degrade
      // to inline serial execution inside the pool.
      ThreadPool::global().parallelFor(
          Min, Extent, [&P, R, BodyPc, Var](int64_t I) {
            std::vector<VMValue> Frame(R, R + P.NumRegs);
            Frame[Var].I = I;
            exec(P, Frame.data(), BodyPc);
          });
    }
    Pc = Continue;
  }
  NEXT;
  CASE(EndPar) { return; }
  CASE(Halt) { return; }

#define LTP_VM_LD(Name, CT, Field)                                           \
  CASE(Name) {                                                               \
    const BufferDesc &Bd = Bufs[In->C];                                      \
    const int64_t Off = R[In->B].I;                                          \
    assert(Off >= 0 && Off < Bd.NumElements &&                               \
           "buffer offset out of bounds");                                   \
    R[In->A].Field = static_cast<const CT *>(Bd.Data)[Off];                  \
  }                                                                          \
  NEXT

#define LTP_VM_ST(Name, CT, Value)                                           \
  CASE(Name) {                                                               \
    const BufferDesc &Bd = Bufs[In->C];                                      \
    const int64_t Off = R[In->B].I;                                          \
    assert(Off >= 0 && Off < Bd.NumElements &&                               \
           "buffer offset out of bounds");                                   \
    static_cast<CT *>(Bd.Data)[Off] = (Value);                               \
  }                                                                          \
  NEXT

  LTP_VM_LD(LdF32, float, F);
  LTP_VM_LD(LdF64, double, D);
  LTP_VM_LD(LdI32, int32_t, I);
  LTP_VM_LD(LdI64, int64_t, I);
  LTP_VM_LD(LdU32, uint32_t, I);
  LTP_VM_LD(LdU8, uint8_t, I);
  LTP_VM_ST(StF32, float, R[In->A].F);
  LTP_VM_ST(StF64, double, R[In->A].D);
  LTP_VM_ST(StI32, int32_t, static_cast<int32_t>(R[In->A].I));
  LTP_VM_ST(StI64, int64_t, R[In->A].I);
  LTP_VM_ST(StU32, uint32_t, static_cast<uint32_t>(R[In->A].I));
  LTP_VM_ST(StU8, uint8_t, static_cast<uint8_t>(R[In->A].I));

#undef LTP_VM_LD
#undef LTP_VM_ST

#if !LTP_VM_THREADED
    }
  }
#endif
#undef CASE
#undef NEXT
}

} // namespace

void ltp::vm::run(const Program &P) {
  assert(!P.Insts.empty() && "running an empty program");
  std::vector<VMValue> Frame(P.NumRegs);
  exec(P, Frame.data(), 0);
}

void ltp::interpret(const ir::StmtPtr &S,
                    const std::map<std::string, BufferRef> &Buffers,
                    const InterpOptions &Options) {
  assert(S && "interpreting a null statement");
  CompileOptions CO;
  CO.Parallel = Options.RunParallel;
  run(compile(S, Buffers, CO));
}
