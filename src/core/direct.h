// DIRECT package evaluation (Section 3.2 of the paper).
//
// Three steps: (1) translate the PaQL query into an ILP, (2) compute the
// base relation and eliminate excluded variables, (3) hand the whole ILP to
// the solver. DIRECT is exact but inherits the solver's failure modes on
// large or combinatorially hard inputs — the SolverLimits budgets reproduce
// those failures (see ilp/solver_limits.h).
#ifndef PAQL_CORE_DIRECT_H_
#define PAQL_CORE_DIRECT_H_

#include "core/package.h"
#include "engine/exec_context.h"
#include "paql/ast.h"

namespace paql::core {

/// Evaluates package queries by solving one ILP over the full base relation.
/// DIRECT has no strategy-specific knobs, so it takes the shared execution
/// context as is: `limits` budgets the single whole-problem solve, and
/// `cancel` is polled before handing the ILP to the solver.
class DirectEvaluator {
 public:
  explicit DirectEvaluator(const relation::ColumnSource& table,
                           engine::ExecContext options = {});

  /// Parse-compile-and-evaluate convenience entry point.
  Result<EvalResult> Evaluate(const lang::PackageQuery& query) const;

  /// Evaluate a precompiled query (reuse across dataset fractions).
  Result<EvalResult> Evaluate(const translate::CompiledQuery& query) const;

  const relation::ColumnSource& table() const { return *table_; }

 private:
  const relation::ColumnSource* table_;
  engine::ExecContext options_;
};

}  // namespace paql::core

#endif  // PAQL_CORE_DIRECT_H_
