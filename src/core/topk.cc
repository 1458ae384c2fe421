#include "core/topk.h"

#include <cmath>

#include "common/stopwatch.h"
#include "common/str_util.h"

namespace paql::core {

using relation::RowId;
using relation::Table;
using translate::CompiledQuery;

Result<std::vector<EvalResult>> EnumerateTopPackages(
    const Table& table, const lang::PackageQuery& query,
    const TopKOptions& options) {
  PAQL_ASSIGN_OR_RETURN(
      CompiledQuery cq, CompiledQuery::Compile(query, table.schema()));
  return EnumerateTopPackages(table, cq, options);
}

Result<std::vector<EvalResult>> EnumerateTopPackages(
    const Table& table, const CompiledQuery& query,
    const TopKOptions& options) {
  if (query.per_tuple_ub() != 1.0) {
    return Status::Unsupported(
        "top-k enumeration requires REPEAT 0 (binary multiplicities); "
        "exclusion cuts are not valid for repeated tuples");
  }
  if (!query.has_objective()) {
    return Status::Unsupported(
        "top-k enumeration requires an objective clause to rank packages");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.min_difference < 1) {
    return Status::InvalidArgument("min_difference must be at least 1");
  }

  std::vector<RowId> candidates =
      query.ComputeBaseRowsVectorized(table, options.EffectiveThreads());
  translate::CompiledQuery::BuildOptions build;
  build.threads = options.EffectiveThreads();
  PAQL_ASSIGN_OR_RETURN(lp::Model model,
                        query.BuildModel(table, candidates, build));

  std::vector<EvalResult> results;
  for (size_t round = 0; round < options.k; ++round) {
    if (options.Cancelled()) {
      return Status::ResourceExhausted("enumeration cancelled");
    }
    Stopwatch watch;
    auto solution = ilp::SolveIlp(model, options.limits,
                                  options.EffectiveBranchAndBound());
    if (!solution.ok()) {
      if (solution.status().IsInfeasible()) break;  // space ran dry
      return solution.status();
    }
    EvalResult result;
    result.stats.Accumulate(solution->stats);
    result.stats.wall_seconds = watch.ElapsedSeconds();
    std::vector<int> support;  // candidate indices with x = 1
    for (size_t k = 0; k < candidates.size(); ++k) {
      int64_t mult = std::llround(solution->x[k]);
      if (mult > 0) {
        result.package.rows.push_back(candidates[k]);
        result.package.multiplicity.push_back(mult);
        support.push_back(static_cast<int>(k));
      }
    }
    result.objective = query.ObjectiveValue(table, result.package.rows,
                                            result.package.multiplicity);
    results.push_back(std::move(result));

    // Exclusion cut around this support S:
    //   sum_{i in S}(1 - x_i) + sum_{i not in S} x_i >= d
    //   <=>  sum_{i not in S} x_i - sum_{i in S} x_i >= d - |S|.
    lp::RowDef cut;
    cut.vars.reserve(candidates.size());
    cut.coefs.reserve(candidates.size());
    size_t s = 0;  // walks `support` (sorted by construction)
    for (size_t k = 0; k < candidates.size(); ++k) {
      bool in_support = s < support.size() &&
                        support[s] == static_cast<int>(k);
      if (in_support) ++s;
      cut.vars.push_back(static_cast<int>(k));
      cut.coefs.push_back(in_support ? -1.0 : 1.0);
    }
    cut.lo = static_cast<double>(options.min_difference) -
             static_cast<double>(support.size());
    cut.name = StrCat("exclude_package_", round);
    PAQL_RETURN_IF_ERROR(model.AddRow(std::move(cut)));
  }

  if (results.empty()) {
    return Status::Infeasible("no feasible package exists");
  }
  return results;
}

}  // namespace paql::core
