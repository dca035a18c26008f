//===- AccessProgram.h - compiled affine access streams ---------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator fast path. Instead of tree-walking the lowered IR and
/// paying a `std::function` hook per memory access, `compileAccessProgram`
/// lowers an affine loop nest once into a compact *access program*:
///
///   * `Loop` / `Let` nodes bind integer slots evaluated by a tiny
///     stack machine (`ScalarFn`) — enough for the `min(factor, n - o*f)`
///     tail extents and triangular bounds the scheduler produces;
///   * `Accesses` nodes carry the per-iteration trace of one Store
///     statement as affine byte-address functions (base + Σ coef·slot),
///     in exactly the interpreter's evaluation order: value loads
///     depth-first and left-to-right, then the store itself;
///   * `Escape` nodes hold subtrees the compiler cannot prove affine
///     (predicated statements, `fuse` div/mod indices, loads in index
///     expressions); the executor runs them through `interpret()` (its
///     default engine, the bytecode VM) with the surrounding loop
///     variables seeded, so the trace is byte-for-byte the one the
///     interpreter would produce.
///
/// The affine-only contract: a statement is compiled iff its store and
/// load indices, loop bounds and let values are integer expressions over
/// loop variables, lets and constants — no buffer loads feeding
/// addresses or bounds. Escapes are escalated to the enclosing loop so
/// an escape is entered at most once per program run, never once per
/// iteration. If any escaped subtree's *trace* could observe values the
/// fast path did not materialize (the fast path never writes buffer
/// elements), compilation fails as a whole and the caller falls back to
/// the interpreter; `simulate()` stays bit-identical either way.
///
/// Unit-stride batching: for an innermost loop whose body is a single
/// `Accesses` node, iterations whose accesses all stay within their
/// current cache lines are *pure repeats* — each is an L1 hit on a
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
/// with stats identical to the element-wise run.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_CACHESIM_ACCESSPROGRAM_H
#define LTP_CACHESIM_ACCESSPROGRAM_H

#include "cachesim/Hierarchy.h"
#include "interp/Interpreter.h"
#include "ir/Stmt.h"
#include "runtime/Buffer.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
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
/// loop bounds and let values with the interpreter's semantics
/// (truncating division, eager And/Or, value-truncating casts).
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
  };
  struct Inst {
    Op Code;
    int64_t Imm = 0; // constant or slot index
  };
  std::vector<Inst> Insts;

  /// Evaluates with \p Scratch as the operand stack (reused to avoid
  /// per-call allocation).
  int64_t eval(const std::vector<int64_t> &Slots,
               std::vector<int64_t> &Scratch) const;
};

/// One traced access: kind, absolute byte-address function and width.
struct AccessOp {
  AccessKind Kind;
  AffineFn AddressBytes;
  uint32_t SizeBytes;
};

/// A node of the compiled program.
struct ProgramNode {
  enum class Kind {
    Loop,     ///< counted loop binding Slot over [Min, Min+Extent)
    Let,      ///< scalar binding of Slot
    Accesses, ///< straight-line access sequence of one Store statement
    Escape,   ///< interpreter fallback for a non-affine subtree
  };

  Kind NodeKind;

  // Loop / Let.
  int Slot = -1;
  ScalarFn Min;
  ScalarFn Extent; // Loop only
  ScalarFn Value;  // Let only
  std::vector<ProgramNode> Body;

  // Accesses.
  std::vector<AccessOp> Ops;
  std::vector<std::string> StoreBuffers; ///< analysis only

  // Escape.
  ir::StmtPtr EscapeStmt;
  /// Loop/let bindings visible at the escape site, innermost-first.
  std::vector<std::pair<std::string, int>> EscapeBindings;
};

/// A compiled access program; executable any number of times against
/// fresh hierarchies.
class AccessProgram {
public:
  /// Replays the program's trace into \p Hierarchy. \p Buffers is only
  /// consulted by escape nodes (the affine trace was resolved to
  /// absolute addresses at compile time, so it must be the same binding
  /// set the program was compiled against). Returns the number of
  /// element accesses issued — the same count the interpreter hook
  /// would have seen.
  uint64_t run(MemoryHierarchy &Hierarchy,
               const std::map<std::string, BufferRef> &Buffers) const;

  /// Number of subtrees that fall back to the interpreter (0 == fully
  /// compiled).
  size_t escapeCount() const { return Escapes; }

private:
  friend std::optional<AccessProgram>
  compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                       const std::map<std::string, BufferRef> &Buffers);

  std::vector<ProgramNode> Roots;
  int NumSlots = 0;
  size_t Escapes = 0;
};

/// Compiles the statement sequence \p Stmts (e.g. the lowered stages of
/// one pipeline, in execution order) against \p Buffers. Returns nullopt
/// when no program with a bit-identical trace can be built — most
/// importantly when an escaped subtree's control flow or addressing
/// could read values that only compiled stores would have written (the
/// fast path does not materialize buffer contents).
std::optional<AccessProgram>
compileAccessProgram(const std::vector<ir::StmtPtr> &Stmts,
                     const std::map<std::string, BufferRef> &Buffers);

} // namespace ltp

#endif // LTP_CACHESIM_ACCESSPROGRAM_H
