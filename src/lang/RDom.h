//===- RDom.h - reduction domains -------------------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction domains for update definitions. A one-dimensional RDom is a
/// single reduction variable (matmul's `k`); multi-dimensional RDoms cover
/// convolution windows (`rx, ry, rc`). Bounds are expressions so that
/// triangular iteration spaces (trmm, syrk) can reference pure variables;
/// an optional `where` predicate restricts the domain further.
///
/// Reduction variables are resolved by name when an update definition is
/// created: the RDom registers its variables in a per-thread registry
/// that the definition scanner consults (see Func.cpp). An RDom and the
/// update definitions that use it must therefore be created on the same
/// thread, and `where` predicates added before the update definition that
/// uses them.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_LANG_RDOM_H
#define LTP_LANG_RDOM_H

#include "lang/Expr.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace ltp {

/// One reduction variable: a name plus min/extent expressions.
class RVar {
public:
  RVar() = default;
  RVar(std::string Name, Expr Min, Expr Extent)
      : Name(std::move(Name)), MinExpr(std::move(Min)),
        ExtentExpr(std::move(Extent)) {}

  const std::string &name() const { return Name; }
  const Expr &minExpr() const { return MinExpr; }
  const Expr &extentExpr() const { return ExtentExpr; }

  /// Implicit conversion for use inside index expressions.
  operator Expr() const {
    return Expr(ir::VarRef::make(Name, ir::Type::int32()));
  }

private:
  std::string Name;
  Expr MinExpr;
  Expr ExtentExpr;
};

/// Shared state of one reduction domain; referenced by the registry that
/// resolves reduction variables at definition time.
struct RDomState {
  std::vector<RVar> Vars;
  std::vector<Expr> Predicates;
};

/// Registers \p State's variables so update definitions can resolve them
/// by name. Re-registering a name replaces the previous binding (fresh
/// RDoms commonly reuse short names like "k" across independent kernels).
void registerRDom(const std::shared_ptr<RDomState> &State);

/// Looks up the reduction-variable binding for \p Name; returns the owning
/// state and sets \p DimIndex, or nullptr when \p Name is not a reduction
/// variable.
std::shared_ptr<RDomState> lookupRVar(const std::string &Name,
                                      size_t &DimIndex);

/// A (possibly multi-dimensional) reduction domain.
class RDom {
public:
  /// One-dimensional domain [Min, Min+Extent).
  RDom(Expr Min, Expr Extent, std::string Name = "r")
      : State(std::make_shared<RDomState>()) {
    State->Vars.emplace_back(std::move(Name), std::move(Min),
                             std::move(Extent));
    registerRDom(State);
  }

  /// Multi-dimensional domain from explicit RVars (dimension 0 varies
  /// fastest, i.e. becomes the innermost reduction loop by default).
  explicit RDom(std::vector<RVar> Vars)
      : State(std::make_shared<RDomState>()) {
    assert(!Vars.empty() && "RDom requires at least one variable");
    State->Vars = std::move(Vars);
    registerRDom(State);
  }

  /// Restricts the domain to points satisfying \p Predicate. Must be
  /// called before the update definition that uses this domain.
  void where(Expr Predicate) {
    assert(Predicate.defined() && "where predicate must be defined");
    assert(Predicate.type().isBool() && "where predicate must be boolean");
    State->Predicates.push_back(std::move(Predicate));
  }

  size_t dims() const { return State->Vars.size(); }
  const RVar &operator[](size_t D) const {
    assert(D < State->Vars.size() && "RDom dimension out of range");
    return State->Vars[D];
  }

  /// Dimension 0 shorthand, matching Halide's use of a 1-D RDom directly
  /// inside expressions.
  operator Expr() const {
    assert(State->Vars.size() == 1 &&
           "implicit conversion requires a 1-D RDom");
    return static_cast<Expr>(State->Vars[0]);
  }

  const std::vector<RVar> &vars() const { return State->Vars; }
  const std::vector<Expr> &predicates() const { return State->Predicates; }

private:
  std::shared_ptr<RDomState> State;
};

} // namespace ltp

#endif // LTP_LANG_RDOM_H
