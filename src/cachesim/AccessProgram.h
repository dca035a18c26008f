//===- AccessProgram.h - compiled access streams ----------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's trace engine. `compileAccessProgram` lowers a loop
/// nest once into a compact *access program* whose replay feeds a
/// `MemoryHierarchy` the exact address trace an execution of the nest
/// would produce, without executing it:
///
///   * `Loop` / `Let` nodes bind integer slots evaluated by a tiny
///     stack machine (`ScalarFn`) — enough for the `min(factor, n - o*f)`
///     tail extents and triangular bounds the scheduler produces;
///   * `Guard` nodes pick a branch with a `ScalarFn` condition: the
///     `IfThenElse` of an `rdom.where` predicate, or a `Select` whose arms
///     load;
///   * `Accesses` nodes carry the per-iteration trace of one Store
///     statement in evaluation order — value loads depth-first and
///     left-to-right, then the store itself. An address is an affine
///     byte-address function (base + Σ coef·slot) when every index is
///     affine, else a per-element `ScalarFn` (the div/mod indices of
///     `fuse`).
///
/// The load-free contract: every loop bound, let value, guard, Select
/// condition choosing between loading arms, and index is an integer
/// expression over loop variables, lets and constants. Such a trace never
/// depends on buffer contents, so the program never reads or writes a
/// buffer; only the buffers' base addresses are baked in. A program that
/// breaks the contract (an index or bound read from a buffer) is refused
/// with an error naming the offending expression. Lowering never puts a
/// load in an index, bound or guard, so no built-in kernel and no
/// schedule text is refused.
///
/// Unit-stride batching: for an innermost loop whose body is a single
/// affine `Accesses` node, iterations whose accesses all stay within
/// their current cache lines are *pure repeats* — each is an L1 hit on a
/// resident line whose successor is also resident (so the next-line
/// prefetcher's probe is a no-op), and the L2 streamer is not consulted
/// (it only trains on L1 misses). A repeat's only state effect is the
/// recency refresh of its own resident line: each repeated access
/// advances the L1 clock by one and re-touches its line, so after the
/// window only the *final* iteration's touches survive, occupying the
/// last `DemandOps` clock ticks in program order. The executor therefore
/// issues one iteration element-wise, proves residency with
/// side-effect-free probes, and retires the rest of the same-line window
/// in O(1) via `MemoryHierarchy::retireRepeatHits` (bulk clock advance +
/// one replayed touch per demand line — bit-identical LRU/PLRU state to
/// the element-wise run; skipping the touches is NOT sound, a stale
/// LastUse flips later victim choices) / `retireRepeatNonTemporal` —
/// giving O(accesses / line-elements) simulation for streaming kernels
/// with stats identical to the element-wise run. A loop with a
/// per-element address runs element-wise.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_ACCESSPROGRAM_H
#define LTP_CACHESIM_ACCESSPROGRAM_H

#include "cachesim/Hierarchy.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ltp {

/// Affine function of the loop/let slots: Const + Σ Coef·Slots[i].
struct AffineFn {
  struct Term {
    int Slot;
    int64_t Coef;
  };
  int64_t Const = 0;
  std::vector<Term> Terms;

  int64_t eval(const std::vector<int64_t> &Slots) const {
    int64_t V = Const;
    for (const Term &T : Terms)
      V += T.Coef * Slots[T.Slot];
    return V;
  }

  /// Coefficient of \p Slot (0 when absent) — the per-iteration address
  /// stride of the loop bound to that slot.
  int64_t coefOf(int Slot) const {
    for (const Term &T : Terms)
      if (T.Slot == Slot)
        return T.Coef;
    return 0;
  }
};

/// Integer scalar function of the slots as a postfix program; evaluates
/// bounds, lets, guards and non-affine addresses with the walker's
/// semantics (truncating division, eager And/Or, value-truncating casts,
/// a Select that evaluates only its taken arm).
struct ScalarFn {
  enum class Op : uint8_t {
    PushConst,
    PushSlot,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    BitAnd,
    BitOr,
    BitXor,
    LT,
    LE,
    GT,
    GE,
    EQ,
    NE,
    And,
    Or,
    CastInt32,
    CastUInt32,
    CastUInt8,
    CastBool,
    JumpIfZero, ///< pops a value; jumps to instruction Imm when it is 0
    Jump,       ///< jumps to instruction Imm
  };
  struct Inst {
    Op Code;
    int64_t Imm = 0; // constant, slot index or jump target
  };
  std::vector<Inst> Insts;

  /// Evaluates with \p Scratch as the operand stack (reused to avoid
  /// per-call allocation).
  int64_t eval(const std::vector<int64_t> &Slots,
               std::vector<int64_t> &Scratch) const;
};

/// One traced access: kind, absolute byte address and width. The address
/// is `AddressBytes` when `Affine`, else the per-element `Address`.
struct AccessOp {
  AccessKind Kind;
  bool Affine = true;
  AffineFn AddressBytes;
  ScalarFn Address;
  uint32_t SizeBytes;
};

/// A node of the compiled program.
struct ProgramNode {
  enum class Kind {
    Loop,     ///< counted loop binding Slot over [Min, Min+Extent)
    Let,      ///< scalar binding of Slot
    Guard,    ///< Body when Cond is non-zero, else Else
    Accesses, ///< straight-line access sequence of one Store statement
  };

  Kind NodeKind;

  // Loop / Let / Guard.
  int Slot = -1;
  ScalarFn Min;
  ScalarFn Extent; // Loop only
  ScalarFn Value;  // Let only
  ScalarFn Cond;   // Guard only
  std::vector<ProgramNode> Body;
  std::vector<ProgramNode> Else; // Guard only
  /// Loop only: the body is one Accesses node with affine addresses, so
  /// the executor retires same-line windows in O(1).
  bool Batched = false;

  // Accesses.
  std::vector<AccessOp> Ops;
};

/// A compiled access program; executable any number of times against
/// fresh hierarchies.
class AccessProgram {
public:
  /// Replays the program's trace into \p Hierarchy. Returns the number
  /// of element accesses issued.
  uint64_t run(MemoryHierarchy &Hierarchy) const;

private:
  friend ErrorOr<AccessProgram>
  compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                       const std::map<std::string, BufferRef> &Buffers);

  std::vector<ProgramNode> Roots;
  int NumSlots = 0;
};

/// Compiles the statement sequence \p Stmts (e.g. the lowered stages of
/// one pipeline, in execution order) against the base addresses of
/// \p Buffers. Fails when the trace would depend on buffer contents (see
/// the load-free contract above) or a statement references an unbound
/// buffer.
ErrorOr<AccessProgram>
compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                     const std::map<std::string, BufferRef> &Buffers);

} // namespace ltp

#endif // LTP_CACHESIM_ACCESSPROGRAM_H
