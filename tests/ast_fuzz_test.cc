// Randomized AST round-trip property test: generate random (valid) query
// ASTs, print them with lang::ToString, re-parse, and require the printed
// forms to be identical — print∘parse must be the identity on printer
// output. This complements parser_test's fixed-string round trips with
// structural coverage: random FROM lists, nested scalar/global algebra,
// subquery aggregates with filters, AND/OR trees, and BETWEENs.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "paql/ast.h"
#include "paql/parser.h"
#include "relation/table.h"
#include "tests/coeff_reference_util.h"
#include "translate/compiled_query.h"

namespace paql::lang {
namespace {

/// Bounded random scalar expression over the given column names.
std::unique_ptr<ScalarExpr> RandomScalar(Rng* rng,
                                         const std::vector<std::string>& cols,
                                         const std::string& qualifier,
                                         int depth) {
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    if (rng->Bernoulli(0.5)) {
      return ScalarExpr::Column(
          qualifier,
          cols[static_cast<size_t>(
              rng->UniformInt(0, static_cast<int64_t>(cols.size()) - 1))]);
    }
    // Integer-valued literals print without scientific notation, keeping
    // the round trip exact.
    return ScalarExpr::Literal(
        relation::Value(static_cast<double>(rng->UniformInt(0, 99))));
  }
  ScalarKind ops[] = {ScalarKind::kAdd, ScalarKind::kSub, ScalarKind::kMul};
  ScalarKind op = ops[rng->UniformInt(0, 2)];
  return ScalarExpr::Binary(op, RandomScalar(rng, cols, qualifier, depth - 1),
                            RandomScalar(rng, cols, qualifier, depth - 1));
}

std::unique_ptr<BoolExpr> RandomBool(Rng* rng,
                                     const std::vector<std::string>& cols,
                                     const std::string& qualifier, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.6)) {
    CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kLt, CmpOp::kGt, CmpOp::kEq};
    return BoolExpr::Cmp(ops[rng->UniformInt(0, 4)],
                         RandomScalar(rng, cols, qualifier, 1),
                         RandomScalar(rng, cols, qualifier, 1));
  }
  if (rng->Bernoulli(0.3)) {
    return BoolExpr::Between(RandomScalar(rng, cols, qualifier, 1),
                             RandomScalar(rng, cols, qualifier, 0),
                             RandomScalar(rng, cols, qualifier, 0));
  }
  auto l = RandomBool(rng, cols, qualifier, depth - 1);
  auto r = RandomBool(rng, cols, qualifier, depth - 1);
  return rng->Bernoulli(0.5) ? BoolExpr::And(std::move(l), std::move(r))
                             : BoolExpr::Or(std::move(l), std::move(r));
}

std::unique_ptr<GlobalExpr> RandomGlobal(Rng* rng,
                                         const std::vector<std::string>& cols,
                                         const std::string& pkg, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.55)) {
    auto call = std::make_unique<AggCall>();
    int pick = static_cast<int>(rng->UniformInt(0, 2));
    if (pick == 0) {
      call->func = relation::AggFunc::kCount;
      call->is_count_star = true;
    } else {
      call->func = relation::AggFunc::kSum;
      call->arg = RandomScalar(rng, cols, pkg, 1);
      if (pick == 2) {
        call->filter = RandomBool(rng, cols, pkg, 1);
      }
    }
    return GlobalExpr::Agg(std::move(call));
  }
  if (rng->Bernoulli(0.25)) {
    return GlobalExpr::Literal(static_cast<double>(rng->UniformInt(1, 50)));
  }
  GlobalKind ops[] = {GlobalKind::kAdd, GlobalKind::kSub, GlobalKind::kMul};
  return GlobalExpr::Binary(ops[rng->UniformInt(0, 2)],
                            RandomGlobal(rng, cols, pkg, depth - 1),
                            RandomGlobal(rng, cols, pkg, depth - 1));
}

std::unique_ptr<GlobalPredicate> RandomGlobalPred(
    Rng* rng, const std::vector<std::string>& cols, const std::string& pkg,
    int depth) {
  if (depth <= 0 || rng->Bernoulli(0.6)) {
    if (rng->Bernoulli(0.3)) {
      return GlobalPredicate::Between(
          RandomGlobal(rng, cols, pkg, 1),
          GlobalExpr::Literal(static_cast<double>(rng->UniformInt(0, 10))),
          GlobalExpr::Literal(static_cast<double>(rng->UniformInt(11, 99))));
    }
    CmpOp ops[] = {CmpOp::kLe, CmpOp::kGe, CmpOp::kEq};
    return GlobalPredicate::Cmp(ops[rng->UniformInt(0, 2)],
                                RandomGlobal(rng, cols, pkg, 1),
                                RandomGlobal(rng, cols, pkg, 1));
  }
  auto l = RandomGlobalPred(rng, cols, pkg, depth - 1);
  auto r = RandomGlobalPred(rng, cols, pkg, depth - 1);
  return rng->Bernoulli(0.5)
             ? GlobalPredicate::And(std::move(l), std::move(r))
             : GlobalPredicate::Or(std::move(l), std::move(r));
}

PackageQuery RandomQuery(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> cols = {"a", "b", "c"};
  PackageQuery q;
  q.package_name = "P";
  q.relation_name = "rel0";
  q.relation_alias = rng.Bernoulli(0.5) ? "R" : "rel0";
  int extra = static_cast<int>(rng.UniformInt(0, 2));
  for (int i = 1; i <= extra; ++i) {
    FromItem item;
    item.relation_name = "rel" + std::to_string(i);
    item.alias = rng.Bernoulli(0.5) ? "X" + std::to_string(i)
                                    : item.relation_name;
    q.more_relations.push_back(std::move(item));
  }
  if (rng.Bernoulli(0.6)) q.repeat = rng.UniformInt(0, 3);
  if (rng.Bernoulli(0.7)) {
    q.where = RandomBool(&rng, cols, q.relation_alias, 2);
  }
  if (rng.Bernoulli(0.9)) {
    q.such_that = RandomGlobalPred(&rng, cols, q.package_name, 2);
  }
  if (rng.Bernoulli(0.7)) {
    Objective obj;
    obj.sense = rng.Bernoulli(0.5) ? ObjectiveSense::kMinimize
                                   : ObjectiveSense::kMaximize;
    obj.expr = RandomGlobal(&rng, cols, q.package_name, 2);
    q.objective = std::move(obj);
  }
  return q;
}

class AstFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AstFuzzTest, PrintParsePrintIsIdentity) {
  PackageQuery q = RandomQuery(GetParam());
  std::string printed = ToString(q);
  auto reparsed = ParsePackageQuery(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\nquery was:\n"
                             << printed;
  EXPECT_EQ(printed, ToString(*reparsed));
}

TEST_P(AstFuzzTest, BatchCompilePathNeverCrashesAndAgreesWithScalar) {
  // Push every generated query through the vectorized compile path:
  // unsupported shapes (aggregate products, AVG compositions, ...) must be
  // rejected cleanly — never crash the batch compiler — and whatever does
  // compile must scan and fill coefficients exactly like the per-row
  // scalar closures.
  PackageQuery q = RandomQuery(GetParam() + 20000);
  relation::Schema schema({{"a", relation::DataType::kDouble},
                           {"b", relation::DataType::kDouble},
                           {"c", relation::DataType::kDouble}});
  auto cq = translate::CompiledQuery::Compile(q, schema);
  if (!cq.ok()) return;  // outside the compilable fragment; no crash is the test

  relation::Table table{schema};
  Rng rng(GetParam() + 777);
  for (int r = 0; r < 150; ++r) {
    std::vector<relation::Value> row(3);
    for (int col = 0; col < 3; ++col) {
      row[static_cast<size_t>(col)] =
          rng.Bernoulli(0.15)
              ? relation::Value::Null()
              : relation::Value(static_cast<double>(rng.UniformInt(-20, 20)));
    }
    table.AppendRowUnchecked(row);
  }

  std::vector<relation::RowId> base = cq->ComputeBaseRows(table);
  EXPECT_EQ(base, cq->ComputeBaseRowsVectorized(table))
      << "query was:\n" << ToString(q);

  auto model = cq->BuildModel(table, base);
  if (model.ok()) {
    translate::ExpectModelMatchesScalarCoeffs(
        *cq, table, base, *model, "query was:\n" + ToString(q));
  }
}

TEST_P(AstFuzzTest, CloneIsDeepAndPrintsIdentically) {
  PackageQuery q = RandomQuery(GetParam() + 10000);
  PackageQuery copy = q.Clone();
  EXPECT_EQ(ToString(q), ToString(copy));
  // Mutating the copy must not affect the original.
  copy.package_name = "Q2";
  copy.more_relations.clear();
  copy.where.reset();
  EXPECT_NE(ToString(q), ToString(copy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AstFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace paql::lang
