#include "core/ratio_objective.h"

#include <cmath>
#include <vector>

#include "common/stopwatch.h"
#include "common/str_util.h"
#include "translate/compile_expr.h"
#include "translate/compiled_query.h"

namespace paql::core {

using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

RatioObjectiveEvaluator::RatioObjectiveEvaluator(const ColumnSource& table,
                                                 RatioObjectiveOptions options)
    : table_(&table), options_(std::move(options)) {}

Result<EvalResult> RatioObjectiveEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  Stopwatch total;
  if (!query.objective.has_value() || query.objective->expr == nullptr ||
      query.objective->expr->kind != lang::GlobalKind::kAgg ||
      query.objective->expr->agg->func != relation::AggFunc::kAvg) {
    return Status::InvalidArgument(
        "RatioObjectiveEvaluator requires a bare AVG objective; use "
        "DirectEvaluator for linear objectives");
  }
  bool maximize =
      query.objective->sense == lang::ObjectiveSense::kMaximize;
  const lang::AggCall& avg = *query.objective->expr->agg;
  if (avg.is_count_star || avg.arg == nullptr) {
    return Status::InvalidArgument("AVG requires a scalar argument");
  }

  // Compile the constraint-only query (the parametric objective is patched
  // into the model each iteration).
  lang::PackageQuery constraints_only = query.Clone();
  constraints_only.objective.reset();
  PAQL_ASSIGN_OR_RETURN(
      CompiledQuery cq,
      CompiledQuery::Compile(constraints_only, table_->schema()));

  // Numerator value and denominator membership per tuple.
  PAQL_ASSIGN_OR_RETURN(translate::RowFn value,
                        translate::CompileScalar(*avg.arg, table_->schema()));
  translate::RowPred filter;
  if (avg.filter) {
    PAQL_ASSIGN_OR_RETURN(filter,
                          translate::CompileBool(*avg.filter,
                                                 table_->schema()));
  }

  EvalResult result;
  Stopwatch translate_watch;
  std::vector<RowId> rows =
      cq.ComputeBaseRowsVectorized(*table_, options_.EffectiveThreads());
  CompiledQuery::BuildOptions build;
  build.threads = options_.EffectiveThreads();
  PAQL_ASSIGN_OR_RETURN(lp::Model model, cq.BuildModel(*table_, rows, build));

  std::vector<double> numerator(rows.size(), 0.0);
  std::vector<double> denominator(rows.size(), 0.0);
  for (size_t k = 0; k < rows.size(); ++k) {
    RowId r = rows[k];
    if (filter && !filter(*table_, r)) continue;
    double v = value(*table_, r);
    if (std::isnan(v)) continue;  // SQL AVG skips NULLs
    numerator[k] = v;
    denominator[k] = 1.0;
  }

  // Implicit constraint: the (filtered) denominator must be positive, or
  // AVG is undefined.
  {
    lp::RowDef row;
    row.name = "AVG denominator >= 1";
    for (size_t k = 0; k < rows.size(); ++k) {
      if (denominator[k] != 0.0) {
        row.vars.push_back(static_cast<int>(k));
        row.coefs.push_back(1.0);
      }
    }
    if (row.vars.empty()) {
      return Status::Infeasible(
          "no candidate tuple can contribute to the AVG objective "
          "(all filtered out or NULL)");
    }
    row.lo = 1.0;
    PAQL_RETURN_IF_ERROR(model.AddRow(std::move(row)));
  }
  model.set_sense(maximize ? lp::Sense::kMaximize : lp::Sense::kMinimize);
  result.stats.translate_seconds = translate_watch.ElapsedSeconds();

  // Dinkelbach iterations: solve with objective (numerator - lambda *
  // denominator); update lambda to the incumbent's ratio; stop when the
  // parametric optimum reaches zero.
  double lambda = 0.0;
  std::vector<double> best_x;
  // Dinkelbach iterations re-solve the same model with re-weighted
  // objective coefficients: the previous root basis stays primal feasible,
  // so each iteration warm-starts from it.
  ilp::IlpWarmStart warm;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.Cancelled()) {
      return Status::ResourceExhausted("evaluation cancelled");
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      model.set_obj_coef(static_cast<int>(k),
                         numerator[k] - lambda * denominator[k]);
    }
    auto sol = ilp::SolveIlp(model, options_.limits,
                             options_.EffectiveBranchAndBound(), &warm);
    if (!sol.ok()) {
      if (sol.status().IsInfeasible()) {
        return Status::Infeasible(
            "no package with a non-empty AVG denominator satisfies the "
            "constraints");
      }
      return sol.status();
    }
    result.stats.Accumulate(sol->stats);
    double p = 0, q = 0;
    for (size_t k = 0; k < rows.size(); ++k) {
      p += numerator[k] * sol->x[k];
      q += denominator[k] * sol->x[k];
    }
    PAQL_CHECK_MSG(q >= 1.0 - 1e-6, "denominator row violated");
    best_x = std::move(sol->x);
    double f = p - lambda * q;  // parametric optimum at current lambda
    if (std::abs(f) <= options_.tolerance * (1.0 + std::abs(lambda))) {
      break;  // lambda is the optimal ratio
    }
    lambda = p / q;
  }

  for (size_t k = 0; k < rows.size(); ++k) {
    int64_t mult = static_cast<int64_t>(std::llround(best_x[k]));
    if (mult > 0) {
      result.package.rows.push_back(rows[k]);
      result.package.multiplicity.push_back(mult);
    }
  }
  result.package.Normalize();
  // Objective: the achieved AVG ratio.
  double p = 0, q = 0;
  for (size_t i = 0; i < result.package.rows.size(); ++i) {
    RowId r = result.package.rows[i];
    double mult = static_cast<double>(result.package.multiplicity[i]);
    if (filter && !filter(*table_, r)) continue;
    double v = value(*table_, r);
    if (std::isnan(v)) continue;
    p += v * mult;
    q += mult;
  }
  result.objective = q > 0 ? p / q : 0.0;
  result.stats.wall_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace paql::core
