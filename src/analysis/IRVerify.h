//===- IRVerify.h - structural IR verification ------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness checks for lowered loop-nest IR, run after
/// lowering and after mutating passes as a cheap invariant net: every
/// variable reference must be bound by an enclosing For or LetStmt, loop
/// names must be unique along any nest path, vectorized loops must have a
/// constant extent within the backend's limit, and every buffer must be
/// accessed at a consistent rank (and, when a buffer universe is given,
/// must be part of it).
///
//===----------------------------------------------------------------------===//

#ifndef LTP_ANALYSIS_IRVERIFY_H
#define LTP_ANALYSIS_IRVERIFY_H

#include "ir/Stmt.h"

#include <cstdint>
#include <set>
#include <string>

namespace ltp {
namespace analysis {

struct IRVerifyOptions {
  /// Upper limit for the constant extent of a Vectorized loop. The
  /// optimizer never emits a larger vectorize and the legality verifier
  /// rejects one from schedule text, so lowering never trips it.
  static constexpr int64_t MaxVectorExtent = 4096;
  /// When set, every loaded or stored buffer must be a member.
  const std::set<std::string> *KnownBuffers = nullptr;
};

/// Checks \p S for structural well-formedness. Returns an empty string on
/// success, else the first violation found.
std::string verifyIR(const ir::StmtPtr &S, const IRVerifyOptions &Options = {});

/// Aborts with a diagnostic naming \p Context when \p S is malformed.
void assertIRWellFormed(const ir::StmtPtr &S, const char *Context,
                        const IRVerifyOptions &Options = {});

} // namespace analysis
} // namespace ltp

#endif // LTP_ANALYSIS_IRVERIFY_H
