// Reference check for the batch coefficient pipeline: every coefficient
// CompiledQuery::BuildModel emits must equal LinearExpr::Coeff evaluated on
// its row alone. The per-row reference comes from the scalar public API —
// LeafActivities and ObjectiveValue of a one-row package with multiplicity
// 1, whose `0 + c * 1.0` is exactly `c` — so the check needs no access to
// the compiled leaves.
#ifndef PAQL_TESTS_COEFF_REFERENCE_UTIL_H_
#define PAQL_TESTS_COEFF_REFERENCE_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lp/model.h"
#include "relation/column_source.h"
#include "translate/compiled_query.h"

namespace paql::translate {

/// Expects `model`, built by `cq` over `rows` of `table`, to carry the
/// scalar per-row coefficients bit for bit: the objective coefficient of
/// every tuple variable, and the tuple-variable coefficients of every
/// constraint row against a leaf of the same name. Big-M indicator columns
/// and the "OR choice" rows over them are structure, not coefficients.
inline void ExpectModelMatchesScalarCoeffs(
    const CompiledQuery& cq, const relation::ColumnSource& table,
    const std::vector<relation::RowId>& rows, const lp::Model& model,
    const std::string& context = "") {
  const size_t n = rows.size();
  ASSERT_GE(static_cast<size_t>(model.num_vars()), n) << context;
  // The objective constant rides along in ObjectiveValue; adding it to the
  // model side as well keeps the comparison one exact IEEE sum per side.
  const double constant = cq.ObjectiveValue(table, {}, {});
  std::vector<std::vector<double>> leaf_coeffs(cq.num_leaf_constraints(),
                                               std::vector<double>(n, 0.0));
  for (size_t k = 0; k < n; ++k) {
    std::vector<double> acts = cq.LeafActivities(table, {rows[k]}, {1});
    for (size_t li = 0; li < acts.size(); ++li) leaf_coeffs[li][k] = acts[li];
    EXPECT_EQ(model.obj()[k] + constant,
              cq.ObjectiveValue(table, {rows[k]}, {1}))
        << "objective of variable " << k << "; " << context;
  }
  for (const lp::RowDef& row : model.rows()) {
    if (row.name == "OR choice") continue;
    std::vector<double> dense(n, 0.0);
    for (size_t j = 0; j < row.vars.size(); ++j) {
      const size_t var = static_cast<size_t>(row.vars[j]);
      if (var < n) dense[var] = row.coefs[j];
    }
    bool matched = false;
    for (size_t li = 0; li < leaf_coeffs.size() && !matched; ++li) {
      matched = cq.leaf_name(li) == row.name && leaf_coeffs[li] == dense;
    }
    EXPECT_TRUE(matched) << "row '" << row.name
                         << "' matches no leaf's scalar coefficients; "
                         << context;
  }
}

}  // namespace paql::translate

#endif  // PAQL_TESTS_COEFF_REFERENCE_UTIL_H_
