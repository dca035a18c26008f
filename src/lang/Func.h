//===- Func.h - Halide-like function definitions and schedules --*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `Func` abstraction separates an algorithm definition from its
/// optimization schedule, mirroring the Halide front end the paper targets.
/// A Func has one pure definition plus any number of update definitions
/// (reductions over an RDom); each stage carries an independent schedule of
/// split/fuse/reorder/parallel/vectorize/unroll directives plus the
/// `store_nontemporal` directive this project adds (Section 4 of the
/// paper).
///
/// Example (matrix multiplication, Listing 3 of the paper):
/// \code
///   Var j("j"), i("i");
///   RDom k(0, 2048, "k");
///   Func C("C");
///   C(j, i) = 0.0f;
///   C(j, i) += A(k, i) * B(j, k);
///   C.update()
///       .split("j", "j_o", "j_i", 512)
///       .split("i", "i_o", "i_i", 32)
///       .reorder({"j_i", "i_i", "j_o", "i_o"})
///       .vectorize("j_i", 8)
///       .parallel("i_o");
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LTP_LANG_FUNC_H
#define LTP_LANG_FUNC_H

#include "lang/Expr.h"
#include "lang/RDom.h"
#include "lang/Var.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

namespace ltp {

/// Name wrapper implicitly constructible from Var, RVar and strings so
/// scheduling calls read naturally with either objects or plain names.
class VarName {
public:
  VarName(const Var &V) : Name(V.name()) {}
  VarName(const RVar &V) : Name(V.name()) {}
  VarName(const char *Name) : Name(Name) {}
  VarName(std::string Name) : Name(std::move(Name)) {}

  const std::string &str() const { return Name; }

private:
  std::string Name;
};

/// split(Old) -> (Outer, Inner) with the given factor; the tail is guarded
/// with a min() on the inner extent when the factor does not divide the
/// bound.
struct SplitDirective {
  std::string Old;
  std::string Outer;
  std::string Inner;
  int64_t Factor;
};

/// fuse(Outer, Inner) -> Fused covering the product iteration space. Both
/// extents must be compile-time constants and the loops adjacent.
struct FuseDirective {
  std::string Outer;
  std::string Inner;
  std::string Fused;
};

/// reorder(...): permutes the named loops across the positions they occupy
/// at the point the directive applies; names are innermost first (Halide
/// convention).
struct ReorderDirective {
  std::vector<std::string> InnermostFirst;
};

/// Marks the named loop parallel / vectorized / unrolled.
struct MarkDirective {
  enum class Kind { Parallel, Vectorize, Unroll } Mark;
  std::string Name;
};

/// unroll_jam(Name, Factor): register tiling. Splits \p Name into
/// Name_ujo/Name_uji in place and marks the inner loop UnrollJammed: the
/// code generator unrolls the Factor copies and fuses ("jams") them inside
/// the loops the body nests below it, so each copy's accumulator stays in
/// a (vector) register across inner reduction loops.
struct UnrollJamDirective {
  std::string Name;
  int64_t Factor;
};

using ScheduleDirective =
    std::variant<SplitDirective, FuseDirective, ReorderDirective,
                 MarkDirective, UnrollJamDirective>;

/// Ordered schedule of one stage (pure or update definition). Directives
/// apply strictly in declaration order, mutating the stage's loop list the
/// way Halide's scheduling calls do.
struct StageSchedule {
  std::vector<ScheduleDirective> Directives;
};

/// One reduction variable of an update definition with its bounds.
struct ReductionVarInfo {
  std::string Name;
  Expr Min;
  Expr Extent;
};

/// One stage: output indices, right-hand side, reduction domain (empty for
/// the pure stage), domain predicates and the stage's schedule.
struct Definition {
  std::vector<Expr> Indices;
  Expr Value;
  std::vector<ReductionVarInfo> RVars;
  std::vector<Expr> Predicates;
  StageSchedule Schedule;
};

class Func;

/// Scheduling handle for one stage of a Func. All methods return *this for
/// chaining.
class Stage {
public:
  /// Splits loop \p Old into \p Outer (stride Factor) and \p Inner.
  Stage &split(VarName Old, VarName Outer, VarName Inner, int64_t Factor);

  /// Two-dimensional tiling shorthand: splits \p X and \p Y and orders the
  /// intra-tile loops innermost.
  Stage &tile(VarName X, VarName Y, VarName XOuter, VarName YOuter,
              VarName XInner, VarName YInner, int64_t XFactor,
              int64_t YFactor);

  /// Fuses adjacent loops \p Outer and \p Inner into \p Fused.
  Stage &fuse(VarName Outer, VarName Inner, VarName Fused);

  /// Sets the final loop order, innermost first.
  Stage &reorder(std::vector<VarName> InnermostFirst);

  /// Runs loop \p Name across the thread pool. The static legality
  /// verifier rejects parallel marks on dependence-carrying loops (e.g. a
  /// reduction's accumulator loop) before lowering.
  Stage &parallel(VarName Name);

  /// Marks loop \p Name for SIMD execution. The two-argument form splits
  /// off an inner loop of \p Width first, matching Halide.
  Stage &vectorize(VarName Name);
  Stage &vectorize(VarName Name, int Width);

  /// Fully unrolls loop \p Name.
  Stage &unroll(VarName Name);

  /// Register tiling: splits \p Name by \p Factor in place and marks the
  /// inner loop for unroll-and-jam (see UnrollJamDirective).
  Stage &unrollJam(VarName Name, int64_t Factor);

  /// The stage's accumulated schedule.
  const StageSchedule &schedule() const;

private:
  friend class Func;
  friend class FuncRef;
  Stage(std::shared_ptr<struct FuncContents> Contents, int StageIndex)
      : Contents(std::move(Contents)), StageIndex(StageIndex) {}

  Definition &definition();

  std::shared_ptr<struct FuncContents> Contents;
  int StageIndex; // -1 = pure definition, >= 0 = update index.
};

/// Result of calling a Func with index arguments. Assignment operators
/// create definitions; reading converts to a Load expression.
class FuncRef {
public:
  /// Creates the pure definition (first use) or an update (later uses).
  Stage operator=(Expr Value);
  /// `g(x) = f(x);` must define g, not copy-assign the reference handle
  /// (the implicitly generated copy assignment would otherwise win
  /// overload resolution against the Expr form).
  Stage operator=(const FuncRef &Other) {
    return *this = static_cast<Expr>(Other);
  }
  /// Sugar for `f(...) = f(...) op Value`; always an update definition.
  Stage operator+=(Expr Value);
  Stage operator-=(Expr Value);
  Stage operator*=(Expr Value);

  /// Reading reference: loads from the Func's realized buffer.
  operator Expr() const;

private:
  friend class Func;
  FuncRef(std::shared_ptr<struct FuncContents> Contents,
          std::vector<Expr> Indices)
      : Contents(std::move(Contents)), Indices(std::move(Indices)) {}

  Stage defineUpdate(Expr Value);

  std::shared_ptr<struct FuncContents> Contents;
  std::vector<Expr> Indices;
};

/// A pipeline stage: an algorithm definition plus its schedule.
class Func {
public:
  explicit Func(std::string Name);

  const std::string &name() const;

  /// Element type; fixed by the first definition.
  ir::Type type() const;

  /// Pure argument names, dimension 0 (contiguous) first.
  const std::vector<std::string> &args() const;

  /// Index the function. Inside definitions, arguments may be arbitrary
  /// integer expressions (e.g. `in(x + rx, y + ry)` is a read).
  template <typename... Args> FuncRef operator()(Args... Indices) {
    return FuncRef(Contents, {Expr(Indices)...});
  }
  FuncRef operator()(std::vector<Expr> Indices);

  /// True once the pure definition exists.
  bool defined() const;

  /// The pure definition.
  const Definition &pureDefinition() const;

  /// Number of update definitions.
  int numUpdates() const;

  /// The stage the optimizer schedules: the last update for reductions,
  /// -1 (the pure stage) otherwise.
  int computeStageIndex() const;

  /// The \p Index'th update definition.
  const Definition &updateDefinition(int Index) const;

  /// Scheduling handle for the pure stage.
  Stage pureStage();

  /// Scheduling handle for update \p Index (default: first update).
  Stage update(int Index = 0);

  /// Convenience scheduling forwarders for the pure stage.
  Stage split(VarName Old, VarName Outer, VarName Inner, int64_t Factor);
  Stage reorder(std::vector<VarName> InnermostFirst);
  Stage parallel(VarName Name);
  Stage vectorize(VarName Name);
  Stage vectorize(VarName Name, int Width);

  /// The new scheduling directive (Section 4): mark every store of this
  /// Func as non-temporal so code generation emits streaming stores.
  Func &storeNonTemporal();

  /// True when storeNonTemporal() was applied.
  bool isStoreNonTemporal() const;

  /// Removes all scheduling directives from every stage (used by schedule
  /// search to re-schedule the same algorithm repeatedly).
  void clearSchedules();

  /// Inlines \p Producer into this Func (Halide's compute-inline): every
  /// load of the producer in this Func's definitions is replaced by the
  /// producer's pure value with its arguments substituted by the load's
  /// index expressions. The producer must have a pure definition only (no
  /// updates). After inlining, the producer needs no realized buffer for
  /// this consumer, and the classifier sees the composed statement —
  /// which can change the classification (e.g. a shifted producer turns
  /// the consumer into a stencil).
  void inlineCalls(const Func &Producer);

  /// Internal shared state (used by lowering).
  const std::shared_ptr<struct FuncContents> &contents() const {
    return Contents;
  }

private:
  std::shared_ptr<struct FuncContents> Contents;
};

/// An external input: a named, typed n-dimensional buffer parameter.
class InputBuffer {
public:
  InputBuffer(std::string Name, ir::Type ElemType, int Rank)
      : Name(std::move(Name)), ElemType(ElemType), Rank(Rank) {}

  const std::string &name() const { return Name; }
  ir::Type type() const { return ElemType; }
  int rank() const { return Rank; }

  /// Reads the input at the given index expressions.
  template <typename... Args> Expr operator()(Args... Indices) const {
    std::vector<Expr> Idx = {Expr(Indices)...};
    return load(Idx);
  }
  Expr load(const std::vector<Expr> &Indices) const;

private:
  std::string Name;
  ir::Type ElemType;
  int Rank;
};

} // namespace ltp

#endif // LTP_LANG_FUNC_H
