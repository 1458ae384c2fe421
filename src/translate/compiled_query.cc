#include "translate/compiled_query.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "common/simd.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "paql/validator.h"

namespace paql::translate {

using lang::CmpOp;
using lang::GlobalExpr;
using lang::GlobalKind;
using lang::GlobalPredicate;
using lang::GlobalPredKind;
using relation::AggFunc;
using relation::RowId;
using relation::Schema;
using relation::ColumnSource;
using relation::Table;

double LinearExpr::Coeff(const ColumnSource& table, RowId row) const {
  double total = 0;
  for (const Term& term : terms) {
    if (term.agg.filter && !term.agg.filter(table, row)) continue;
    total += term.scale * term.agg.value(table, row);
  }
  return total;
}

void LinearExpr::CoeffBatch(const ColumnSource& table, const relation::RowSpan& span,
                            double* out) const {
  std::fill_n(out, span.len, 0.0);
  relation::NumericBatch batch;
  relation::SelectionVector sel;
  for (const Term& term : terms) {
    sel.MakeDense(span.len);
    if (term.agg.batch_filter) term.agg.batch_filter(table, span, &sel);
    if (sel.empty()) continue;
    term.agg.batch_value(table, span, &batch);
    // Per lane, terms accumulate in declaration order — the same floating
    // point operation sequence as the scalar Coeff loop. The dense SIMD
    // fill vectorizes ACROSS lanes, which preserves that per-lane order.
    if (sel.count == span.len) {
      simd::MulAddConst(out, batch.values.data(), span.len, term.scale);
      continue;
    }
    for (uint32_t k = 0; k < sel.count; ++k) {
      uint16_t i = sel.idx[k];
      out[i] += term.scale * batch.values[i];
    }
  }
}

Result<CompiledQuery> CompiledQuery::Compile(const lang::PackageQuery& query,
                                             const Schema& schema) {
  PAQL_RETURN_IF_ERROR(lang::ValidateQuery(query, schema));
  CompiledQuery cq;
  cq.package_name_ = query.package_name;
  // Rule 1: REPEAT K  =>  0 <= x_i <= K+1.
  if (query.repeat.has_value()) {
    cq.per_tuple_ub_ = static_cast<double>(*query.repeat + 1);
  }
  // Rule 2: base predicate (the batch twin scans, the scalar closure tests
  // single rows).
  if (query.where) {
    PAQL_ASSIGN_OR_RETURN(cq.base_pred_, CompileBool(*query.where, schema));
    PAQL_ASSIGN_OR_RETURN(cq.base_pred_batch_,
                          CompileBoolBatch(*query.where, schema));
    cq.base_zone_ranges_ = ExtractZoneRanges(*query.where, schema);
  }
  // Rule 3: global predicates.
  if (query.such_that) {
    PAQL_RETURN_IF_ERROR(
        cq.CompileGlobalPred(*query.such_that, schema, &cq.root_));
  }
  // Rule 4: objective.
  if (query.objective.has_value()) {
    cq.has_objective_ = true;
    cq.maximize_ = query.objective->sense == lang::ObjectiveSense::kMaximize;
    PAQL_ASSIGN_OR_RETURN(cq.objective_,
                          cq.CompileGlobalExpr(*query.objective->expr, schema));
    lang::CollectColumns(*query.objective->expr, &cq.objective_columns_);
    std::sort(cq.objective_columns_.begin(), cq.objective_columns_.end());
    cq.objective_columns_.erase(
        std::unique(cq.objective_columns_.begin(), cq.objective_columns_.end()),
        cq.objective_columns_.end());
  }
  cq.offsets_updatable_ = cq.root_ == nullptr || !ContainsOr(*cq.root_);
  if (cq.root_ != nullptr && cq.offsets_updatable_) {
    CollectLeafOrder(*cq.root_, &cq.leaf_row_order_);
  }
  return cq;
}

namespace {

/// Strip a versioned table's deleted rows from a scan result. The batch
/// pipeline scans the full row space (delete bits are not a column, so the
/// kernels cannot see them); this post-pass restores the live-rows-only
/// contract of the base relation.
void EraseDeletedRows(const ColumnSource& table, std::vector<RowId>* rows) {
  if (!table.has_deleted_rows()) return;
  std::erase_if(*rows, [&](RowId r) { return table.RowDeleted(r); });
}

}  // namespace

std::vector<RowId> CompiledQuery::ComputeBaseRows(const ColumnSource& table) const {
  std::vector<RowId> rows;
  rows.reserve(table.num_rows());
  const bool check_deleted = table.has_deleted_rows();
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (check_deleted && table.RowDeleted(r)) continue;
    if (!base_pred_ || base_pred_(table, r)) rows.push_back(r);
  }
  return rows;
}

std::vector<RowId> CompiledQuery::ComputeBaseRowsVectorized(
    const ColumnSource& table, int threads, ScanCounters* counters) const {
  if (!base_pred_) return ComputeBaseRows(table);  // every live row
  std::vector<RowId> rows = FilterTableVectorized(
      table, base_pred_batch_, threads, &base_zone_ranges_, counters);
  EraseDeletedRows(table, &rows);
  return rows;
}

Result<LinearExpr> CompiledQuery::CompileGlobalExpr(
    const GlobalExpr& expr, const Schema& schema) const {
  switch (expr.kind) {
    case GlobalKind::kAgg: {
      if (expr.agg->func == AggFunc::kAvg) {
        return Status::Unsupported(
            "AVG outside a direct comparison has no linear translation");
      }
      if (expr.agg->func == AggFunc::kMin ||
          expr.agg->func == AggFunc::kMax) {
        return Status::Unsupported(
            "MIN/MAX are only supported as a bare side of a comparison "
            "against a constant (they have no linear translation elsewhere)");
      }
      LinearExpr out;
      LinearExpr::Term term;
      PAQL_ASSIGN_OR_RETURN(term.agg, CompileAggArg(*expr.agg, schema));
      out.terms.push_back(std::move(term));
      // COUNT sums unit contributions of integer variables.
      out.integral = expr.agg->func == AggFunc::kCount;
      return out;
    }
    case GlobalKind::kLiteral: {
      LinearExpr out;
      out.constant = expr.literal;
      out.integral = std::isfinite(expr.literal) &&
                     expr.literal == std::floor(expr.literal);
      return out;
    }
    case GlobalKind::kUnaryMinus: {
      PAQL_ASSIGN_OR_RETURN(LinearExpr inner,
                            CompileGlobalExpr(*expr.lhs, schema));
      inner.constant = -inner.constant;
      for (auto& t : inner.terms) t.scale = -t.scale;
      return inner;
    }
    case GlobalKind::kAdd:
    case GlobalKind::kSub: {
      PAQL_ASSIGN_OR_RETURN(LinearExpr lhs,
                            CompileGlobalExpr(*expr.lhs, schema));
      PAQL_ASSIGN_OR_RETURN(LinearExpr rhs,
                            CompileGlobalExpr(*expr.rhs, schema));
      double sign = expr.kind == GlobalKind::kAdd ? 1.0 : -1.0;
      lhs.constant += sign * rhs.constant;
      for (auto& t : rhs.terms) {
        t.scale *= sign;
        lhs.terms.push_back(std::move(t));
      }
      lhs.integral = lhs.integral && rhs.integral;
      return lhs;
    }
    case GlobalKind::kMul: {
      PAQL_ASSIGN_OR_RETURN(LinearExpr lhs,
                            CompileGlobalExpr(*expr.lhs, schema));
      PAQL_ASSIGN_OR_RETURN(LinearExpr rhs,
                            CompileGlobalExpr(*expr.rhs, schema));
      // Linearity: one side must be a pure constant (validated upstream).
      if (!lhs.terms.empty() && !rhs.terms.empty()) {
        return Status::Unsupported("product of aggregates is non-linear");
      }
      LinearExpr& scaled = lhs.terms.empty() ? rhs : lhs;
      double factor = lhs.terms.empty() ? lhs.constant : rhs.constant;
      scaled.constant *= factor;
      for (auto& t : scaled.terms) t.scale *= factor;
      scaled.integral = scaled.integral && std::isfinite(factor) &&
                        factor == std::floor(factor);
      return std::move(scaled);
    }
    case GlobalKind::kDiv: {
      PAQL_ASSIGN_OR_RETURN(LinearExpr lhs,
                            CompileGlobalExpr(*expr.lhs, schema));
      PAQL_ASSIGN_OR_RETURN(LinearExpr rhs,
                            CompileGlobalExpr(*expr.rhs, schema));
      if (!rhs.terms.empty()) {
        return Status::Unsupported("division by an aggregate is non-linear");
      }
      if (rhs.constant == 0) {
        return Status::InvalidArgument("division by zero in global expression");
      }
      lhs.constant /= rhs.constant;
      for (auto& t : lhs.terms) t.scale /= rhs.constant;
      lhs.integral = false;  // division generally leaves the integers
      return lhs;
    }
  }
  return Status::Internal("unreachable global kind");
}

namespace {

/// True when the expression is a bare AVG aggregate call.
bool IsBareAvg(const GlobalExpr& expr) {
  return expr.kind == GlobalKind::kAgg &&
         expr.agg->func == AggFunc::kAvg;
}

/// True when the expression is a bare MIN or MAX aggregate call.
bool IsBareMinMax(const GlobalExpr& expr) {
  return expr.kind == GlobalKind::kAgg &&
         (expr.agg->func == AggFunc::kMin ||
          expr.agg->func == AggFunc::kMax);
}

/// Sorted, deduplicated column names referenced across `exprs`.
std::vector<std::string> SortedColumns(
    std::initializer_list<const GlobalExpr*> exprs) {
  std::vector<std::string> out;
  for (const GlobalExpr* e : exprs) {
    if (e != nullptr) lang::CollectColumns(*e, &out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<CompiledQuery::Leaf> CompiledQuery::MakeComparisonLeaf(
    const GlobalExpr& lhs, CmpOp cmp, const GlobalExpr& rhs,
    const Schema& schema) const {
  // Normalize so that a bare AVG, if any, is on the left.
  if (IsBareAvg(rhs)) {
    return MakeComparisonLeaf(rhs, lang::FlipCmpOp(cmp), lhs, schema);
  }
  Leaf leaf;
  leaf.columns = SortedColumns({&lhs, &rhs});
  if (IsBareAvg(lhs)) {
    // AVG(e) cmp v  =>  sum (e_i - v) x_i cmp 0   (Section 3.1).
    PAQL_ASSIGN_OR_RETURN(LinearExpr bound, CompileGlobalExpr(rhs, schema));
    if (!bound.terms.empty()) {
      return Status::Unsupported("AVG compared against an aggregate");
    }
    double v = bound.constant;
    LinearExpr::Term term;
    PAQL_ASSIGN_OR_RETURN(term.agg, CompileAggArg(*lhs.agg, schema));
    // Rebind the per-tuple value to (e_i - v); the filter is unchanged.
    RowFn base = term.agg.value;
    term.agg.value = [base, v](const ColumnSource& t, RowId r) {
      return base(t, r) - v;
    };
    BatchFn batch_base = term.agg.batch_value;
    term.agg.batch_value = [batch_base, v](const ColumnSource& t,
                                           const relation::RowSpan& span,
                                           relation::NumericBatch* b) {
      batch_base(t, span, b);
      for (uint32_t i = 0; i < span.len; ++i) b->values[i] -= v;
    };
    leaf.expr.terms.push_back(std::move(term));
    leaf.name = StrCat("AVG cmp ", v);
    switch (cmp) {
      case CmpOp::kLe: case CmpOp::kLt: leaf.hi = 0; break;
      case CmpOp::kGe: case CmpOp::kGt: leaf.lo = 0; break;
      case CmpOp::kEq: leaf.lo = leaf.hi = 0; break;
      case CmpOp::kNe:
        return Status::Unsupported("'<>' global comparison");
    }
    return leaf;
  }
  // General linear case: (lhs - rhs) cmp 0, constants moved to the bounds.
  PAQL_ASSIGN_OR_RETURN(LinearExpr l, CompileGlobalExpr(lhs, schema));
  PAQL_ASSIGN_OR_RETURN(LinearExpr r, CompileGlobalExpr(rhs, schema));
  double bound = r.constant - l.constant;
  bool integral = l.integral && r.integral;
  leaf.expr.constant = 0;
  leaf.expr.terms = std::move(l.terms);
  leaf.expr.integral = integral;
  for (auto& t : r.terms) {
    t.scale = -t.scale;
    leaf.expr.terms.push_back(std::move(t));
  }
  // Strict comparisons are exact on integer-valued expressions
  // (e < v  <=>  e <= ceil(v)-1); on continuous ones they close to the
  // non-strict bound, the standard LP treatment.
  switch (cmp) {
    case CmpOp::kLe: leaf.hi = bound; break;
    case CmpOp::kLt:
      leaf.hi = integral ? std::ceil(bound) - 1.0 : bound;
      break;
    case CmpOp::kGe: leaf.lo = bound; break;
    case CmpOp::kGt:
      leaf.lo = integral ? std::floor(bound) + 1.0 : bound;
      break;
    case CmpOp::kEq: leaf.lo = leaf.hi = bound; break;
    case CmpOp::kNe:
      return Status::Internal(
          "'<>' comparisons are expanded by CompileCmpPred");
  }
  leaf.name = StrCat("linear cmp ", bound);
  return leaf;
}

Status CompiledQuery::CompileGlobalPred(const GlobalPredicate& pred,
                                        const Schema& schema,
                                        std::unique_ptr<Node>* node) {
  switch (pred.kind) {
    case GlobalPredKind::kCmp:
      return CompileCmpPred(*pred.lhs, pred.cmp, *pred.rhs, schema, node);
    case GlobalPredKind::kBetween: {
      if (IsBareMinMax(*pred.lhs)) {
        // lo <= MIN/MAX(a) <= hi expands into two threshold predicates
        // under an AND (bounds must be constants).
        auto and_node = std::make_unique<Node>();
        and_node->kind = Node::Kind::kAnd;
        PAQL_RETURN_IF_ERROR(
            CompileCmpPred(*pred.lhs, CmpOp::kGe, *pred.lo, schema,
                           &and_node->left));
        PAQL_RETURN_IF_ERROR(
            CompileCmpPred(*pred.lhs, CmpOp::kLe, *pred.hi, schema,
                           &and_node->right));
        *node = std::move(and_node);
        return Status::OK();
      }
      if (IsBareAvg(*pred.lhs)) {
        // AVG BETWEEN lo AND hi expands into two AVG leaves under an AND.
        auto and_node = std::make_unique<Node>();
        and_node->kind = Node::Kind::kAnd;
        PAQL_ASSIGN_OR_RETURN(
            Leaf lo_leaf,
            MakeComparisonLeaf(*pred.lhs, CmpOp::kGe, *pred.lo, schema));
        PAQL_ASSIGN_OR_RETURN(
            Leaf hi_leaf,
            MakeComparisonLeaf(*pred.lhs, CmpOp::kLe, *pred.hi, schema));
        and_node->left = std::make_unique<Node>();
        and_node->left->kind = Node::Kind::kLeaf;
        and_node->left->leaf = static_cast<int>(leaves_.size());
        leaves_.push_back(std::move(lo_leaf));
        and_node->right = std::make_unique<Node>();
        and_node->right->kind = Node::Kind::kLeaf;
        and_node->right->leaf = static_cast<int>(leaves_.size());
        leaves_.push_back(std::move(hi_leaf));
        *node = std::move(and_node);
        return Status::OK();
      }
      PAQL_ASSIGN_OR_RETURN(LinearExpr subject,
                            CompileGlobalExpr(*pred.lhs, schema));
      PAQL_ASSIGN_OR_RETURN(LinearExpr lo, CompileGlobalExpr(*pred.lo, schema));
      PAQL_ASSIGN_OR_RETURN(LinearExpr hi, CompileGlobalExpr(*pred.hi, schema));
      if (!lo.terms.empty() || !hi.terms.empty()) {
        return Status::Unsupported("BETWEEN bounds must be constants");
      }
      Leaf leaf;
      leaf.columns =
          SortedColumns({pred.lhs.get(), pred.lo.get(), pred.hi.get()});
      leaf.expr.terms = std::move(subject.terms);
      leaf.lo = lo.constant - subject.constant;
      leaf.hi = hi.constant - subject.constant;
      leaf.name = StrCat("BETWEEN ", leaf.lo, " AND ", leaf.hi);
      *node = std::make_unique<Node>();
      (*node)->kind = Node::Kind::kLeaf;
      (*node)->leaf = static_cast<int>(leaves_.size());
      leaves_.push_back(std::move(leaf));
      return Status::OK();
    }
    case GlobalPredKind::kAnd:
    case GlobalPredKind::kOr: {
      auto out = std::make_unique<Node>();
      out->kind = pred.kind == GlobalPredKind::kAnd ? Node::Kind::kAnd
                                                    : Node::Kind::kOr;
      PAQL_RETURN_IF_ERROR(CompileGlobalPred(*pred.left, schema, &out->left));
      PAQL_RETURN_IF_ERROR(CompileGlobalPred(*pred.right, schema, &out->right));
      *node = std::move(out);
      return Status::OK();
    }
    case GlobalPredKind::kNot:
      return CompileNegatedPred(*pred.left, schema, node);
  }
  return Status::Internal("unreachable global predicate kind");
}

namespace {

/// The comparison equivalent to the logical negation of `cmp`.
CmpOp NegateCmpOp(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kGe: return CmpOp::kLt;
    case CmpOp::kGt: return CmpOp::kLe;
  }
  return cmp;
}

}  // namespace

Status CompiledQuery::CompileNegatedPred(const GlobalPredicate& pred,
                                         const Schema& schema,
                                         std::unique_ptr<Node>* node) {
  switch (pred.kind) {
    case GlobalPredKind::kCmp:
      return CompileCmpPred(*pred.lhs, NegateCmpOp(pred.cmp), *pred.rhs,
                            schema, node);
    case GlobalPredKind::kBetween: {
      // NOT (lo <= e <= hi)  =>  e < lo OR e > hi.
      auto or_node = std::make_unique<Node>();
      or_node->kind = Node::Kind::kOr;
      PAQL_RETURN_IF_ERROR(CompileCmpPred(*pred.lhs, CmpOp::kLt, *pred.lo,
                                          schema, &or_node->left));
      PAQL_RETURN_IF_ERROR(CompileCmpPred(*pred.lhs, CmpOp::kGt, *pred.hi,
                                          schema, &or_node->right));
      *node = std::move(or_node);
      return Status::OK();
    }
    case GlobalPredKind::kAnd:
    case GlobalPredKind::kOr: {
      // De Morgan.
      auto out = std::make_unique<Node>();
      out->kind = pred.kind == GlobalPredKind::kAnd ? Node::Kind::kOr
                                                    : Node::Kind::kAnd;
      PAQL_RETURN_IF_ERROR(CompileNegatedPred(*pred.left, schema, &out->left));
      PAQL_RETURN_IF_ERROR(
          CompileNegatedPred(*pred.right, schema, &out->right));
      *node = std::move(out);
      return Status::OK();
    }
    case GlobalPredKind::kNot:  // double negation
      return CompileGlobalPred(*pred.left, schema, node);
  }
  return Status::Internal("unreachable global predicate kind");
}

std::unique_ptr<CompiledQuery::Node> CompiledQuery::MakeLeafNode(Leaf leaf) {
  auto node = std::make_unique<Node>();
  node->kind = Node::Kind::kLeaf;
  node->leaf = static_cast<int>(leaves_.size());
  leaves_.push_back(std::move(leaf));
  return node;
}

Status CompiledQuery::CompileCmpPred(const GlobalExpr& lhs, CmpOp cmp,
                                     const GlobalExpr& rhs,
                                     const Schema& schema,
                                     std::unique_ptr<Node>* node) {
  bool lhs_mm = IsBareMinMax(lhs);
  bool rhs_mm = IsBareMinMax(rhs);
  if (lhs_mm && rhs_mm) {
    return Status::Unsupported(
        "MIN/MAX on both sides of a comparison has no linear translation");
  }
  if (rhs_mm) {
    return CompileCmpPred(rhs, lang::FlipCmpOp(cmp), lhs, schema, node);
  }
  if (lhs_mm) {
    PAQL_ASSIGN_OR_RETURN(LinearExpr bound, CompileGlobalExpr(rhs, schema));
    if (!bound.terms.empty()) {
      return Status::Unsupported(
          "MIN/MAX compared against an aggregate expression");
    }
    return CompileMinMaxPred(*lhs.agg, lhs.agg->func == AggFunc::kMin, cmp,
                             bound.constant, schema, node);
  }
  if (cmp == CmpOp::kNe) {
    // e <> v over an integer-valued expression: e <= ceil(v)-1 OR
    // e >= floor(v)+1 (exact). Continuous '<>' has measure-zero complement
    // and no linear encoding.
    PAQL_ASSIGN_OR_RETURN(LinearExpr l, CompileGlobalExpr(lhs, schema));
    PAQL_ASSIGN_OR_RETURN(LinearExpr r, CompileGlobalExpr(rhs, schema));
    if (!l.integral || !r.integral) {
      return Status::Unsupported(
          "'<>' requires an integer-valued (COUNT-based) global expression");
    }
    auto or_node = std::make_unique<Node>();
    or_node->kind = Node::Kind::kOr;
    PAQL_ASSIGN_OR_RETURN(Leaf below,
                          MakeComparisonLeaf(lhs, CmpOp::kLt, rhs, schema));
    PAQL_ASSIGN_OR_RETURN(Leaf above,
                          MakeComparisonLeaf(lhs, CmpOp::kGt, rhs, schema));
    or_node->left = MakeLeafNode(std::move(below));
    or_node->right = MakeLeafNode(std::move(above));
    *node = std::move(or_node);
    return Status::OK();
  }
  PAQL_ASSIGN_OR_RETURN(Leaf leaf, MakeComparisonLeaf(lhs, cmp, rhs, schema));
  *node = MakeLeafNode(std::move(leaf));
  return Status::OK();
}

Result<CompiledQuery::Leaf> CompiledQuery::MakeThresholdCountLeaf(
    const lang::AggCall& call, CmpOp thresh, double v, double lo, double hi,
    const Schema& schema, std::string name) const {
  if (call.is_count_star || call.arg == nullptr) {
    return Status::InvalidArgument("MIN/MAX requires a scalar argument");
  }
  Leaf leaf;
  // Referenced columns: the argument plus any subquery filter.
  auto wrapper = GlobalExpr::Agg(call.Clone());
  leaf.columns = SortedColumns({wrapper.get()});
  PAQL_ASSIGN_OR_RETURN(RowFn value, CompileScalar(*call.arg, schema));
  RowPred base_filter;
  if (call.filter) {
    PAQL_ASSIGN_OR_RETURN(base_filter, CompileBool(*call.filter, schema));
  }
  // SQL MIN/MAX skip NULLs: a NaN argument never passes the threshold.
  auto passes = [thresh, v](double a) {
    if (std::isnan(a)) return false;
    switch (thresh) {
      case CmpOp::kLt: return a < v;
      case CmpOp::kLe: return a <= v;
      case CmpOp::kGt: return a > v;
      case CmpOp::kGe: return a >= v;
      case CmpOp::kEq: return a == v;
      case CmpOp::kNe: return a != v;
    }
    return false;
  };
  LinearExpr::Term term;
  term.agg.value = [](const ColumnSource&, RowId) { return 1.0; };
  term.agg.filter = [value, base_filter, passes](const ColumnSource& t,
                                                 RowId r) -> bool {
    if (base_filter && !base_filter(t, r)) return false;
    return passes(value(t, r));
  };
  // Batch twins: the value is the constant 1; the filter chains the
  // subquery filter's batch twin with a lane-wise threshold test.
  PAQL_ASSIGN_OR_RETURN(BatchFn arg_fn, CompileScalarBatch(*call.arg, schema));
  BatchPred base_fn;
  if (call.filter) {
    PAQL_ASSIGN_OR_RETURN(base_fn, CompileBoolBatch(*call.filter, schema));
  }
  term.agg.batch_value = [](const ColumnSource&, const relation::RowSpan& span,
                            relation::NumericBatch* b) {
    std::fill_n(b->values.data(), span.len, 1.0);
    b->ClearNulls();
  };
  term.agg.batch_filter = [arg_fn, base_fn, passes](
                              const ColumnSource& t, const relation::RowSpan& span,
                              relation::SelectionVector* sel) {
    if (base_fn) base_fn(t, span, sel);
    if (sel->empty()) return;
    relation::NumericBatch a;
    arg_fn(t, span, &a);
    uint32_t kept = 0;
    for (uint32_t k = 0; k < sel->count; ++k) {
      uint16_t i = sel->idx[k];
      sel->idx[kept] = i;
      kept += passes(a.values[i]) ? 1 : 0;
    }
    sel->count = kept;
  };
  leaf.expr.terms.push_back(std::move(term));
  leaf.expr.integral = true;  // it is a COUNT
  leaf.lo = lo;
  leaf.hi = hi;
  leaf.name = std::move(name);
  return leaf;
}

Status CompiledQuery::CompileMinMaxPred(const lang::AggCall& call,
                                        bool is_min, CmpOp cmp, double v,
                                        const Schema& schema,
                                        std::unique_ptr<Node>* node) {
  constexpr double kNoBound = lp::kInf;
  const char* fn = is_min ? "MIN" : "MAX";
  // "Universal" side: no selected tuple may cross the threshold.
  //   MIN >= v: forbid a < v     MIN > v: forbid a <= v
  //   MAX <= v: forbid a > v     MAX < v: forbid a >= v
  auto forbid = [&](CmpOp thresh) {
    return MakeThresholdCountLeaf(call, thresh, v, -kNoBound, 0.0, schema,
                                  StrCat(fn, " forbid ",
                                         lang::CmpOpSymbol(thresh), " ", v));
  };
  // "Existence" side: at least one selected tuple crosses the threshold.
  //   MIN <= v: require a <= v   MIN < v: require a < v
  //   MAX >= v: require a >= v   MAX > v: require a > v
  auto require = [&](CmpOp thresh) {
    return MakeThresholdCountLeaf(call, thresh, v, 1.0, kNoBound, schema,
                                  StrCat(fn, " require ",
                                         lang::CmpOpSymbol(thresh), " ", v));
  };
  // Normalize MAX to MIN by mirroring the threshold directions.
  CmpOp lt = is_min ? CmpOp::kLt : CmpOp::kGt;
  CmpOp le = is_min ? CmpOp::kLe : CmpOp::kGe;
  // And mirror the comparison itself for MAX: MAX <= v plays the role of
  // MIN >= v.
  CmpOp eff = cmp;
  if (!is_min) eff = lang::FlipCmpOp(cmp);
  switch (eff) {
    case CmpOp::kGe: {  // MIN >= v / MAX <= v
      PAQL_ASSIGN_OR_RETURN(Leaf leaf, forbid(lt));
      *node = MakeLeafNode(std::move(leaf));
      return Status::OK();
    }
    case CmpOp::kGt: {  // MIN > v / MAX < v
      PAQL_ASSIGN_OR_RETURN(Leaf leaf, forbid(le));
      *node = MakeLeafNode(std::move(leaf));
      return Status::OK();
    }
    case CmpOp::kLe: {  // MIN <= v / MAX >= v
      PAQL_ASSIGN_OR_RETURN(Leaf leaf, require(le));
      *node = MakeLeafNode(std::move(leaf));
      return Status::OK();
    }
    case CmpOp::kLt: {  // MIN < v / MAX > v
      PAQL_ASSIGN_OR_RETURN(Leaf leaf, require(lt));
      *node = MakeLeafNode(std::move(leaf));
      return Status::OK();
    }
    case CmpOp::kEq: {  // exactly v: forbid crossing AND require reaching
      auto and_node = std::make_unique<Node>();
      and_node->kind = Node::Kind::kAnd;
      PAQL_ASSIGN_OR_RETURN(Leaf no_cross, forbid(lt));
      PAQL_ASSIGN_OR_RETURN(Leaf reach, require(le));
      and_node->left = MakeLeafNode(std::move(no_cross));
      and_node->right = MakeLeafNode(std::move(reach));
      *node = std::move(and_node);
      return Status::OK();
    }
    case CmpOp::kNe: {  // strictly below v somewhere, or never reaching v
      auto or_node = std::make_unique<Node>();
      or_node->kind = Node::Kind::kOr;
      PAQL_ASSIGN_OR_RETURN(Leaf strictly_below, require(lt));
      PAQL_ASSIGN_OR_RETURN(Leaf never_reach, forbid(le));
      or_node->left = MakeLeafNode(std::move(strictly_below));
      or_node->right = MakeLeafNode(std::move(never_reach));
      *node = std::move(or_node);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable comparison op");
}

bool CompiledQuery::ContainsOr(const Node& node) {
  if (node.kind == Node::Kind::kOr) return true;
  if (node.left && ContainsOr(*node.left)) return true;
  if (node.right && ContainsOr(*node.right)) return true;
  return false;
}

void CompiledQuery::CollectLeafOrder(const Node& node,
                                     std::vector<int>* order) {
  if (node.kind == Node::Kind::kLeaf) {
    order->push_back(node.leaf);
    return;
  }
  if (node.left) CollectLeafOrder(*node.left, order);
  if (node.right) CollectLeafOrder(*node.right, order);
}

Status CompiledQuery::UpdateModelOffsets(
    const std::vector<double>& activity_offset, lp::Model* model) const {
  if (!offsets_updatable_) {
    return Status::InvalidArgument(
        "model has OR indicator rows whose big-M coefficients depend on the "
        "offsets; rebuild it instead");
  }
  if (activity_offset.size() != leaves_.size()) {
    return Status::InvalidArgument("activity_offset size mismatch");
  }
  if (model->num_rows() != static_cast<int>(leaf_row_order_.size())) {
    return Status::InvalidArgument(
        "model row count does not match this query's leaf constraints");
  }
  for (size_t k = 0; k < leaf_row_order_.size(); ++k) {
    int li = leaf_row_order_[k];
    double off = activity_offset[static_cast<size_t>(li)];
    PAQL_RETURN_IF_ERROR(model->SetRowBounds(
        static_cast<int>(k), leaves_[static_cast<size_t>(li)].lo - off,
        leaves_[static_cast<size_t>(li)].hi - off));
  }
  return Status::OK();
}

Result<lp::Model> CompiledQuery::BuildModel(const ColumnSource& table,
                                            const std::vector<RowId>& rows,
                                            const BuildOptions& options) const {
  if (options.ub_override != nullptr &&
      options.ub_override->size() != rows.size()) {
    return Status::InvalidArgument("ub_override size mismatch");
  }
  Segment segment;
  segment.table = &table;
  segment.rows = &rows;
  segment.ub_override = options.ub_override;
  return BuildModelSegments({segment}, options.activity_offset,
                            options.threads);
}

Result<lp::Model> CompiledQuery::BuildModelSegments(
    const std::vector<Segment>& segments,
    const std::vector<double>* activity_offset, int threads) const {
  size_t total_rows = 0;
  for (const Segment& seg : segments) {
    if (seg.table == nullptr || seg.rows == nullptr) {
      return Status::InvalidArgument("segment missing table or rows");
    }
    if (seg.ub_override != nullptr &&
        seg.ub_override->size() != seg.rows->size()) {
      return Status::InvalidArgument("segment ub_override size mismatch");
    }
    total_rows += seg.rows->size();
  }
  if (activity_offset != nullptr && activity_offset->size() != leaves_.size()) {
    return Status::InvalidArgument("activity_offset size mismatch");
  }
  lp::Model model;
  model.set_sense(maximize_ ? lp::Sense::kMaximize : lp::Sense::kMinimize);

  // Coefficients of one linear expression over one segment, through the
  // batch pipeline (chunked gather spans). Every coefficient lands in its
  // own slot, so the morsel-parallel fill (threads > 1) is bit-identical
  // to the serial one.
  auto segment_coeffs = [threads](const LinearExpr& expr, const Segment& seg,
                                  double* out) {
    const std::vector<RowId>& rows = *seg.rows;
    auto fill = [&](size_t begin, size_t end) {
      for (size_t off = begin; off < end; off += relation::kChunkSize) {
        relation::RowSpan span;
        span.rows = rows.data() + off;
        span.len = static_cast<uint32_t>(
            std::min(relation::kChunkSize, end - off));
        expr.CoeffBatch(*seg.table, span, out + off);
      }
    };
    if (threads > 1 && rows.size() > relation::kMorselRows) {
      ThreadPool::Global().ParallelFor(rows.size(), relation::kMorselRows,
                                       threads, fill);
    } else {
      fill(0, rows.size());
    }
  };

  // Tuple variables (integer), with objective coefficients; variable upper
  // bounds per segment.
  std::vector<double> obj_coeffs;
  if (has_objective_) {
    obj_coeffs.resize(total_rows);
    size_t k = 0;
    for (const Segment& seg : segments) {
      segment_coeffs(objective_, seg, obj_coeffs.data() + k);
      k += seg.rows->size();
    }
  }
  std::vector<double> var_ub;
  var_ub.reserve(total_rows);
  size_t var = 0;
  for (const Segment& seg : segments) {
    for (size_t k = 0; k < seg.rows->size(); ++k, ++var) {
      double ub = seg.ub_override != nullptr ? (*seg.ub_override)[k]
                                             : per_tuple_ub_;
      double obj = has_objective_ ? obj_coeffs[var] : 0.0;
      model.AddVariable(0.0, ub, obj, /*is_integer=*/true);
      var_ub.push_back(ub);
    }
  }

  if (root_ == nullptr) return model;

  // Precompute per-leaf coefficient vectors over the concatenated rows.
  std::vector<std::vector<double>> coeffs(
      leaves_.size(), std::vector<double>(total_rows, 0.0));
  for (size_t li = 0; li < leaves_.size(); ++li) {
    size_t k = 0;
    for (const Segment& seg : segments) {
      segment_coeffs(leaves_[li].expr, seg, coeffs[li].data() + k);
      k += seg.rows->size();
    }
  }
  auto leaf_bounds = [&](int li) {
    double off = activity_offset != nullptr ? (*activity_offset)[li] : 0.0;
    return std::pair<double, double>(leaves_[li].lo - off,
                                     leaves_[li].hi - off);
  };
  auto make_row = [&](int li, double lo, double hi) {
    lp::RowDef row;
    row.name = leaves_[li].name;
    for (size_t k = 0; k < total_rows; ++k) {
      if (coeffs[li][k] != 0.0) {
        row.vars.push_back(static_cast<int>(k));
        row.coefs.push_back(coeffs[li][k]);
      }
    }
    row.lo = lo;
    row.hi = hi;
    return row;
  };

  // Bounds on a leaf's activity over the variable box (for big-M).
  auto activity_range = [&](int li) -> Result<std::pair<double, double>> {
    double min_a = 0, max_a = 0;
    for (size_t k = 0; k < total_rows; ++k) {
      double c = coeffs[li][k];
      if (c == 0) continue;
      double ub = var_ub[k];
      if (std::isinf(ub)) {
        return Status::Unsupported(
            "OR between global predicates requires bounded repetition "
            "(add REPEAT K to the query)");
      }
      if (c > 0) max_a += c * ub;
      else min_a += c * ub;
    }
    return std::pair<double, double>(min_a, max_a);
  };

  // Recursive emission. `indicator` < 0 means the subtree is always active;
  // otherwise its constraints are big-M-relaxed unless indicator == 1.
  std::function<Status(const Node&, int)> emit =
      [&](const Node& node, int indicator) -> Status {
    switch (node.kind) {
      case Node::Kind::kLeaf: {
        auto [lo, hi] = leaf_bounds(node.leaf);
        if (indicator < 0) {
          return model.AddRow(make_row(node.leaf, lo, hi));
        }
        PAQL_ASSIGN_OR_RETURN(auto range, activity_range(node.leaf));
        auto [min_a, max_a] = range;
        // activity <= hi*z + max_a*(1-z):  activity + (max_a - hi) z <= max_a
        if (!std::isinf(hi)) {
          lp::RowDef row = make_row(node.leaf, -lp::kInf, max_a);
          row.vars.push_back(indicator);
          row.coefs.push_back(max_a - hi);
          PAQL_RETURN_IF_ERROR(model.AddRow(std::move(row)));
        }
        // activity >= lo*z + min_a*(1-z):  activity - (lo - min_a) z >= min_a
        if (!std::isinf(lo)) {
          lp::RowDef row = make_row(node.leaf, min_a, lp::kInf);
          row.vars.push_back(indicator);
          row.coefs.push_back(-(lo - min_a));
          PAQL_RETURN_IF_ERROR(model.AddRow(std::move(row)));
        }
        return Status::OK();
      }
      case Node::Kind::kAnd:
        PAQL_RETURN_IF_ERROR(emit(*node.left, indicator));
        return emit(*node.right, indicator);
      case Node::Kind::kOr: {
        int z1 = model.AddVariable(0, 1, 0, /*is_integer=*/true);
        int z2 = model.AddVariable(0, 1, 0, /*is_integer=*/true);
        lp::RowDef choose;
        choose.name = "OR choice";
        choose.vars = {z1, z2};
        choose.coefs = {1.0, 1.0};
        if (indicator >= 0) {
          // z1 + z2 >= z_parent.
          choose.vars.push_back(indicator);
          choose.coefs.push_back(-1.0);
          choose.lo = 0;
        } else {
          choose.lo = 1;
        }
        choose.hi = lp::kInf;
        PAQL_RETURN_IF_ERROR(model.AddRow(std::move(choose)));
        PAQL_RETURN_IF_ERROR(emit(*node.left, z1));
        return emit(*node.right, z2);
      }
    }
    return Status::Internal("unreachable node kind");
  };
  PAQL_RETURN_IF_ERROR(emit(*root_, -1));

  // OR-free trees add exactly one row per leaf (in leaf_row_order_) and no
  // indicator columns, so the CSC column view the simplex solver needs can
  // be assembled here, straight from the per-leaf coefficient vectors the
  // batch pipeline just produced — the solver then never re-walks
  // the rows. Row bounds live in RowDef, so UpdateModelOffsets keeps
  // working against the attached view unchanged. OR trees grow big-M
  // indicator columns whose layout only the emitter knows; the solver
  // falls back to building its own CSC for those.
  if (offsets_updatable_ && !leaf_row_order_.empty()) {
    size_t nnz = 0;
    for (const auto& leaf_coeffs : coeffs) {
      nnz += simd::CountNonZero(leaf_coeffs.data(),
                                static_cast<uint32_t>(leaf_coeffs.size()));
    }
    lp::SparseMatrixBuilder builder(model.num_rows());
    builder.Reserve(nnz);
    for (size_t k = 0; k < total_rows; ++k) {
      for (size_t r = 0; r < leaf_row_order_.size(); ++r) {
        double c = coeffs[static_cast<size_t>(leaf_row_order_[r])][k];
        if (c != 0.0) builder.PushEntry(static_cast<int>(r), c);
      }
      builder.FinishColumn();
    }
    model.AttachColumns(builder.Build());
  }
  return model;
}

std::vector<double> CompiledQuery::LeafActivities(
    const ColumnSource& table, const std::vector<RowId>& rows,
    const std::vector<int64_t>& multiplicity) const {
  PAQL_CHECK(rows.size() == multiplicity.size());
  std::vector<double> activities(leaves_.size(), 0.0);
  for (size_t li = 0; li < leaves_.size(); ++li) {
    double total = 0;
    for (size_t k = 0; k < rows.size(); ++k) {
      if (multiplicity[k] == 0) continue;
      total += leaves_[li].expr.Coeff(table, rows[k]) *
               static_cast<double>(multiplicity[k]);
    }
    activities[li] = total;
  }
  return activities;
}

std::vector<double> CompiledQuery::LeafActivitiesVectorized(
    const ColumnSource& table, const std::vector<RowId>& rows,
    const std::vector<int64_t>& multiplicity, int threads) const {
  PAQL_CHECK(rows.size() == multiplicity.size());
  std::vector<double> activities(leaves_.size(), 0.0);
  // One leaf's activity, with the leaf's full accumulation inside a single
  // call: a float SUM is order-sensitive, so parallelism is across leaves
  // only — each leaf's bits match the serial evaluation exactly.
  auto leaf_activity = [&](size_t li) {
    const LinearExpr& expr = leaves_[li].expr;
    std::vector<double> coeff(relation::kChunkSize);
    double total = 0;
    for (size_t off = 0; off < rows.size(); off += relation::kChunkSize) {
      relation::RowSpan span;
      span.rows = rows.data() + off;
      span.len = static_cast<uint32_t>(
          std::min(relation::kChunkSize, rows.size() - off));
      expr.CoeffBatch(table, span, coeff.data());
      for (uint32_t i = 0; i < span.len; ++i) {
        int64_t mult = multiplicity[off + i];
        if (mult == 0) continue;
        total += coeff[i] * static_cast<double>(mult);
      }
    }
    return total;
  };
  if (threads > 1 && leaves_.size() > 1 &&
      rows.size() >= relation::kChunkSize) {
    ThreadPool::Global().ParallelFor(
        leaves_.size(), 1, threads, [&](size_t begin, size_t end) {
          for (size_t li = begin; li < end; ++li) {
            activities[li] = leaf_activity(li);
          }
        });
  } else {
    for (size_t li = 0; li < leaves_.size(); ++li) {
      activities[li] = leaf_activity(li);
    }
  }
  return activities;
}

bool CompiledQuery::EvalNode(const Node& node,
                             const std::vector<double>& activities,
                             double tol) const {
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      const Leaf& leaf = leaves_[node.leaf];
      double a = activities[node.leaf];
      double slack = tol * (1.0 + std::abs(a));
      return a >= leaf.lo - slack && a <= leaf.hi + slack;
    }
    case Node::Kind::kAnd:
      return EvalNode(*node.left, activities, tol) &&
             EvalNode(*node.right, activities, tol);
    case Node::Kind::kOr:
      return EvalNode(*node.left, activities, tol) ||
             EvalNode(*node.right, activities, tol);
  }
  return false;
}

bool CompiledQuery::GlobalsSatisfied(const std::vector<double>& activities,
                                     double tol) const {
  if (root_ == nullptr) return true;
  return EvalNode(*root_, activities, tol);
}

bool CompiledQuery::PackageSatisfiesGlobals(
    const ColumnSource& table, const std::vector<RowId>& rows,
    const std::vector<int64_t>& multiplicity, double tol) const {
  return GlobalsSatisfied(LeafActivities(table, rows, multiplicity), tol);
}

double CompiledQuery::ObjectiveValue(
    const ColumnSource& table, const std::vector<RowId>& rows,
    const std::vector<int64_t>& multiplicity) const {
  if (!has_objective_) return 0;
  PAQL_CHECK(rows.size() == multiplicity.size());
  double total = objective_.constant;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (multiplicity[k] == 0) continue;
    total += objective_.Coeff(table, rows[k]) *
             static_cast<double>(multiplicity[k]);
  }
  return total;
}

}  // namespace paql::translate
