#include <gtest/gtest.h>

#include <cmath>

#include "ilp/branch_and_bound.h"
#include "ilp/cuts.h"
#include "lp/lp_format.h"
#include "paql/parser.h"
#include "tests/coeff_reference_util.h"
#include "translate/compiled_query.h"

namespace paql::translate {
namespace {

using lang::ParsePackageQuery;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::Table;
using relation::Value;

Table MakeRecipes() {
  Table t{Schema({{"id", DataType::kInt64},
                  {"kcal", DataType::kDouble},
                  {"fat", DataType::kDouble},
                  {"carbs", DataType::kDouble},
                  {"gluten", DataType::kString}})};
  // id, kcal, fat, carbs, gluten
  auto add = [&](int id, double kcal, double fat, double carbs,
                 const char* g) {
    ASSERT_TRUE(
        t.AppendRow({Value(id), Value(kcal), Value(fat), Value(carbs),
                     Value(g)}).ok());
  };
  add(1, 0.6, 2.0, 10, "free");
  add(2, 0.9, 1.0, 0, "free");
  add(3, 1.1, 3.0, 5, "full");
  add(4, 0.8, 0.5, -2, "free");
  add(5, 0.7, 4.0, 7, "free");
  return t;
}

CompiledQuery MustCompile(const std::string& text, const Table& table) {
  auto q = ParsePackageQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  auto cq = CompiledQuery::Compile(*q, table.schema());
  EXPECT_TRUE(cq.ok()) << cq.status();
  return std::move(*cq);
}

TEST(CompileExprTest, ScalarArithmetic) {
  Table t = MakeRecipes();
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM T R WHERE kcal * 2 + fat - 1 > 0");
  ASSERT_TRUE(q.ok());
  auto pred = CompileBool(*q->where, t.schema());
  ASSERT_TRUE(pred.ok()) << pred.status();
  // Row 0: 0.6*2 + 2 - 1 = 2.2 > 0 -> true. Row 3: 0.8*2 + 0.5 - 1 = 1.1.
  EXPECT_TRUE((*pred)(t, 0));
  EXPECT_TRUE((*pred)(t, 3));
}

TEST(CompileExprTest, NullPoisonsComparisons) {
  Table t{Schema({{"x", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  auto q = ParsePackageQuery("SELECT PACKAGE(R) AS P FROM T R WHERE x >= 0");
  ASSERT_TRUE(q.ok());
  auto pred = CompileBool(*q->where, t.schema());
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE((*pred)(t, 0));  // NULL >= 0 is not true
}

TEST(CompileExprTest, IsNullOnColumns) {
  Table t{Schema({{"x", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  auto q =
      ParsePackageQuery("SELECT PACKAGE(R) AS P FROM T R WHERE x IS NULL");
  ASSERT_TRUE(q.ok());
  auto pred = CompileBool(*q->where, t.schema());
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE((*pred)(t, 0));
  EXPECT_FALSE((*pred)(t, 1));
}

TEST(CompiledQueryTest, BaseRelationFiltering) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free'", t);
  auto rows = cq.ComputeBaseRows(t);
  EXPECT_EQ(rows, (std::vector<RowId>{0, 1, 3, 4}));
}

TEST(CompiledQueryTest, RepeatBecomesUpperBound) {
  Table t = MakeRecipes();
  CompiledQuery cq0 = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 "
      "SUCH THAT COUNT(P.*) = 2",
      t);
  EXPECT_DOUBLE_EQ(cq0.per_tuple_ub(), 1.0);
  CompiledQuery cq2 = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 2 "
      "SUCH THAT COUNT(P.*) = 2",
      t);
  EXPECT_DOUBLE_EQ(cq2.per_tuple_ub(), 3.0);
  CompiledQuery unbounded = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT COUNT(P.*) = 2", t);
  EXPECT_TRUE(std::isinf(unbounded.per_tuple_ub()));
}

TEST(CompiledQueryTest, MealPlannerEndToEnd) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      WHERE R.gluten = 'free'
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
      MINIMIZE SUM(P.fat))",
                                  t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->num_vars(), 4);  // gluten-free tuples only
  EXPECT_EQ(model->num_rows(), 2);  // COUNT row + SUM range row
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Feasible triples from {0.6, 0.9, 0.8, 0.7} summing to [2.0, 2.5]:
  // best fat: rows {2(id2),4(id4),5(id5)} -> kcal 0.9+0.8+0.7=2.4,
  // fat 1+0.5+4=5.5;  {id1,id2,id4} -> kcal 2.3, fat 3.5. Optimum 3.5.
  EXPECT_NEAR(sol->objective, 3.5, 1e-9);
}

TEST(CompiledQueryTest, AvgTranslation) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND AVG(P.kcal) <= 0.7
      MAXIMIZE SUM(P.kcal))",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok()) << model.status();
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Best pair with mean <= 0.7: {0.6, 0.8} (mean exactly 0.7), sum 1.4.
  EXPECT_NEAR(sol->objective, 1.4, 1e-9);
}

TEST(CompiledQueryTest, AvgBetweenTranslation) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND AVG(P.kcal) BETWEEN 0.7 AND 0.8
      MINIMIZE SUM(P.fat))",
                                 t);
  EXPECT_EQ(cq.num_leaf_constraints(), 3u);  // COUNT + two AVG sides
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok());
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Pairs with mean in [0.7, 0.8]: {0.6,0.8}=0.7 fat 2.5, {0.6,0.9}=0.75
  // fat 3, {0.7,0.8}=0.75 fat 4.5, {0.7,0.9}=0.8 fat 5, {0.6,1.1} excl base?
  // no WHERE here so row 2 (kcal 1.1, fat 3) included: {0.6,1.1}? mean 0.85
  // no. {0.7,0.9}=0.8 fat 5. Minimum fat = 2.5 (ids 1 and 4).
  EXPECT_NEAR(sol->objective, 2.5, 1e-9);
}

TEST(CompiledQueryTest, CountSubqueryFilters) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND
                (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >=
                (SELECT COUNT(*) FROM P WHERE P.fat <= 1)
      MAXIMIZE SUM(P.carbs))",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok()) << model.status();
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Best carbs pair is rows 0 and 4 (10 + 7 = 17); check constraint holds:
  // both have carbs > 0 (count 2) and fats 2.0, 4.0 -> none <= 1 (count 0).
  EXPECT_NEAR(sol->objective, 17.0, 1e-9);
}

TEST(CompiledQueryTest, ObjectiveCoefficientArithmetic) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 1
      MAXIMIZE SUM(P.kcal) - 2 * SUM(P.fat))",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok());
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok());
  // Per-row score kcal - 2*fat: r0: -3.4, r1: -1.1, r2: -4.9, r3: -0.2,
  // r4: -7.3. Best single tuple: row 3 with -0.2.
  EXPECT_NEAR(sol->objective, -0.2, 1e-9);
}

TEST(CompiledQueryTest, GlobalOrViaIndicators) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND
                (SUM(P.kcal) <= 1.4 OR SUM(P.kcal) >= 1.9)
      MAXIMIZE SUM(P.carbs))",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok()) << model.status();
  // 5 tuple vars + 2 indicators.
  EXPECT_EQ(model->num_vars(), 7);
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Best carbs pair: rows 0,4 (carbs 17, kcal 1.3 <= 1.4 OK).
  EXPECT_NEAR(sol->objective, 17.0, 1e-9);
  // Verify the chosen package logically satisfies the OR.
  std::vector<RowId> pkg;
  std::vector<int64_t> mult;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (sol->x[k] > 0.5) {
      pkg.push_back(rows[k]);
      mult.push_back(static_cast<int64_t>(std::llround(sol->x[k])));
    }
  }
  EXPECT_TRUE(cq.PackageSatisfiesGlobals(t, pkg, mult));
}

TEST(CompiledQueryTest, OrRequiresBoundedRepetition) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R
      SUCH THAT SUM(P.kcal) <= 1.4 OR SUM(P.kcal) >= 1.9)",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kUnsupported);
}

TEST(CompiledQueryTest, LeafActivitiesAndOffsets) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
      MINIMIZE SUM(P.fat))",
                                 t);
  // Package {row0 x1, row1 x1}: COUNT = 2, SUM(kcal) = 1.5.
  auto acts = cq.LeafActivities(t, {0, 1}, {1, 1});
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_NEAR(acts[0], 2.0, 1e-12);
  EXPECT_NEAR(acts[1], 1.5, 1e-12);
  EXPECT_FALSE(cq.GlobalsSatisfied(acts));  // count != 3

  // Refine-style: fix rows {0,1} as p-bar; solve for 1 more tuple among the
  // rest with bounds shifted by the fixed activities.
  std::vector<RowId> rest{2, 3, 4};
  CompiledQuery::BuildOptions opts;
  opts.activity_offset = &acts;
  auto model = cq.BuildModel(t, rest, opts);
  ASSERT_TRUE(model.ok());
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Need one tuple with kcal in [0.5, 1.0]: rows 3 (0.8, fat 0.5) or
  // 4 (0.7, fat 4.0). Min fat picks row 3.
  EXPECT_NEAR(sol->objective, 0.5, 1e-9);
}

TEST(CompiledQueryTest, UbOverrideForSketch) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 4
      MINIMIZE SUM(P.fat))",
                                 t);
  // Sketch-style: only rows {0, 1} as "representatives", each standing for a
  // group of 2 and 3 tuples respectively.
  std::vector<RowId> reps{0, 1};
  std::vector<double> ub{2, 3};
  CompiledQuery::BuildOptions opts;
  opts.ub_override = &ub;
  auto model = cq.BuildModel(t, reps, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->ub()[0], 2.0);
  EXPECT_DOUBLE_EQ(model->ub()[1], 3.0);
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok());
  // fat: row0 2.0, row1 1.0 -> take row1 x3 + row0 x1 = 5.0.
  EXPECT_NEAR(sol->objective, 5.0, 1e-9);
}

TEST(CompiledQueryTest, NoSuchThatBuildsUnconstrainedModel) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0 MAXIMIZE SUM(P.kcal)",
      t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_rows(), 0);
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok());
  // Take every tuple once: 0.6+0.9+1.1+0.8+0.7 = 4.1.
  EXPECT_NEAR(sol->objective, 4.1, 1e-9);
}

TEST(CompiledQueryTest, ObjectiveValueMatchesModelObjective) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM Recipes R REPEAT 0
      SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5
      MINIMIZE SUM(P.fat))",
                                 t);
  auto rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok());
  auto sol = ilp::SolveIlp(*model);
  ASSERT_TRUE(sol.ok());
  std::vector<RowId> pkg;
  std::vector<int64_t> mult;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (sol->x[k] > 0.5) {
      pkg.push_back(rows[k]);
      mult.push_back(static_cast<int64_t>(std::llround(sol->x[k])));
    }
  }
  EXPECT_NEAR(cq.ObjectiveValue(t, pkg, mult), sol->objective, 1e-9);
  EXPECT_TRUE(cq.PackageSatisfiesGlobals(t, pkg, mult));
}

TEST(CompiledQueryTest, LeafColumnsTrackReferencedAttributes) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT SUM(P.kcal) BETWEEN 1 AND 5 AND
                COUNT(P.*) = 3 AND
                (SELECT SUM(fat) FROM P WHERE P.kcal > 0.5) <= 9
      MINIMIZE SUM(P.fat))",
                                 t);
  ASSERT_EQ(cq.num_leaf_constraints(), 3u);
  // Leaf 0: SUM(kcal) BETWEEN -> {kcal}.
  EXPECT_EQ(cq.leaf_columns(0), (std::vector<std::string>{"kcal"}));
  // Leaf 1: COUNT(*) -> no columns.
  EXPECT_TRUE(cq.leaf_columns(1).empty());
  // Leaf 2: filtered SUM -> both the argument and the filter columns,
  // sorted and deduplicated.
  EXPECT_EQ(cq.leaf_columns(2), (std::vector<std::string>{"fat", "kcal"}));
  EXPECT_EQ(cq.objective_columns(), (std::vector<std::string>{"fat"}));
}

TEST(CompiledQueryTest, LeafColumnsDeduplicateAcrossSides) {
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT SUM(P.kcal) <= 2 * SUM(P.kcal) + 1)",
                                 t);
  ASSERT_EQ(cq.num_leaf_constraints(), 1u);
  EXPECT_EQ(cq.leaf_columns(0), (std::vector<std::string>{"kcal"}));
}

TEST(CompiledQueryTest, CompileRejectsInvalidQueries) {
  Table t = MakeRecipes();
  auto q = ParsePackageQuery(
      "SELECT PACKAGE(R) AS P FROM T R SUCH THAT SUM(P.nope) <= 1");
  ASSERT_TRUE(q.ok());
  auto cq = CompiledQuery::Compile(*q, t.schema());
  EXPECT_FALSE(cq.ok());
}

TEST(CompiledQueryTest, TranslatedModelRoundTripsThroughLpFormat) {
  // End-to-end interop: PaQL -> ILP -> LP text -> ILP gives the same
  // optimum, including the big-M indicator variables an OR introduces.
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT COUNT(P.*) = 2 AND
                (SUM(P.kcal) <= 1.4 OR SUM(P.carbs) >= 15)
      MAXIMIZE SUM(P.fat))",
                                 t);
  auto model = cq.BuildModel(t, cq.ComputeBaseRows(t));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GT(model->num_vars(), 5);  // 5 tuple vars + indicators

  auto round_tripped = lp::ParseLpFormat(lp::ToLpFormat(*model));
  ASSERT_TRUE(round_tripped.ok()) << round_tripped.status();
  auto a = ilp::SolveIlp(*model);
  auto b = ilp::SolveIlp(*round_tripped);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->objective, b->objective, 1e-9);
}

TEST(CompiledQueryTest, TranslatedBudgetRowsYieldCoverCuts) {
  // A REPEAT 0 budget predicate is a 0/1 knapsack row; the cut separator
  // must find cover cuts at a fractional point over it.
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(R"(
      SELECT PACKAGE(R) AS P FROM T R REPEAT 0
      SUCH THAT SUM(P.kcal) <= 1.4
      MAXIMIZE SUM(P.fat))",
                                 t);
  auto model = cq.BuildModel(t, cq.ComputeBaseRows(t));
  ASSERT_TRUE(model.ok()) << model.status();
  // A deliberately infeasible-looking fractional point that overpacks the
  // budget row.
  std::vector<double> x(static_cast<size_t>(model->num_vars()), 0.9);
  auto cuts = ilp::SeparateCoverCuts(*model, x, ilp::CutOptions{});
  EXPECT_FALSE(cuts.empty());
}

TEST(CompiledQueryTest, BuildModelAttachesCscMatchingRows) {
  // OR-free trees attach a CSC column view built straight from the leaf
  // coefficient vectors; it must agree entry-for-entry with rebuilding the
  // view from the emitted rows (the simplex solver's own CSC build), and
  // every coefficient must equal the scalar per-row value.
  Table t = MakeRecipes();
  CompiledQuery cq = MustCompile(
      "SELECT PACKAGE(R) AS P FROM T R REPEAT 1 "
      "SUCH THAT COUNT(P.*) BETWEEN 1 AND 3 "
      "AND (SELECT SUM(kcal) FROM P WHERE fat > 1) <= 2 "
      "AND MIN(P.carbs) >= 0 "
      "MINIMIZE SUM(P.fat)",
      t);
  std::vector<RowId> rows = cq.ComputeBaseRows(t);
  auto model = cq.BuildModel(t, rows);
  ASSERT_TRUE(model.ok()) << model.status();
  ExpectModelMatchesScalarCoeffs(cq, t, rows, *model);
  const lp::SparseMatrix* attached = model->attached_columns();
  ASSERT_NE(attached, nullptr);
  lp::SparseMatrix rebuilt = lp::SparseMatrix::FromModel(*model);
  ASSERT_EQ(attached->num_rows(), rebuilt.num_rows());
  ASSERT_EQ(attached->num_cols(), rebuilt.num_cols());
  ASSERT_EQ(attached->num_nonzeros(), rebuilt.num_nonzeros());
  for (int j = 0; j < rebuilt.num_cols(); ++j) {
    ASSERT_EQ(attached->begin(j), rebuilt.begin(j)) << "col " << j;
    for (size_t k = rebuilt.begin(j); k < rebuilt.end(j); ++k) {
      EXPECT_EQ(attached->entry_row(k), rebuilt.entry_row(k)) << "col " << j;
      EXPECT_EQ(attached->entry_value(k), rebuilt.entry_value(k))
          << "col " << j;
    }
  }

  // OR queries grow big-M indicator columns: no attached view.
  CompiledQuery or_query = MustCompile(
      "SELECT PACKAGE(R) AS P FROM T R REPEAT 0 "
      "SUCH THAT COUNT(P.*) <= 1 OR SUM(P.kcal) >= 2",
      t);
  auto or_model = or_query.BuildModel(t, rows);
  ASSERT_TRUE(or_model.ok()) << or_model.status();
  EXPECT_EQ(or_model->attached_columns(), nullptr);
}

}  // namespace
}  // namespace paql::translate
