#include "translate/vector_expr.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "translate/string_operand.h"

namespace paql::translate {

using lang::BoolExpr;
using lang::BoolKind;
using lang::CmpOp;
using lang::ScalarExpr;
using lang::ScalarKind;
using relation::DataType;
using relation::kChunkSize;
using relation::NumericBatch;
using relation::RowId;
using relation::RowSpan;
using relation::Schema;
using relation::SelectionVector;
using relation::ColumnSource;
using relation::Table;

namespace {

/// True when `expr` is a numeric literal, folding unary minus chains
/// (the parser spells `-53` as kUnaryMinus(kLiteral 53)); stores the
/// value in `*v`.
bool IsNumericLiteral(const ScalarExpr& expr, double* v) {
  if (expr.kind == ScalarKind::kUnaryMinus) {
    if (!IsNumericLiteral(*expr.lhs, v)) return false;
    *v = -*v;
    return true;
  }
  if (expr.kind != ScalarKind::kLiteral || !expr.literal.is_numeric()) {
    return false;
  }
  *v = expr.literal.AsDouble();
  return true;
}

/// Binary arithmetic kernel: evaluate both operands over the full span,
/// combine lane-wise with `op` (a stateless functor, so the inner loop
/// compiles to one tight pass per operator), OR the null bitmaps.
template <typename Op>
BatchFn MakeBinaryFn(BatchFn lhs, BatchFn rhs, Op op) {
  return [lhs = std::move(lhs), rhs = std::move(rhs), op](
             const ColumnSource& t, const RowSpan& span, NumericBatch* out) {
    NumericBatch right;
    lhs(t, span, out);
    rhs(t, span, &right);
    for (uint32_t i = 0; i < span.len; ++i) {
      out->values[i] = op(out->values[i], right.values[i]);
    }
    out->MergeNulls(right);
  };
}

/// Constant-folded variants: one operand is a literal, so there is no
/// second batch to materialize — the SIMD kernel applies the constant
/// lane-wise (the identical per-lane floating-point operation the scalar
/// closure performs, explicitly unfused).
BatchFn MakeBinaryConstRhs(BatchFn lhs, double c, simd::Arith op) {
  return [lhs = std::move(lhs), c, op](const ColumnSource& t, const RowSpan& span,
                                       NumericBatch* out) {
    lhs(t, span, out);
    simd::ApplyConstRhs(out->values.data(), span.len, op, c);
  };
}

BatchFn MakeBinaryConstLhs(double c, BatchFn rhs, simd::Arith op) {
  return [rhs = std::move(rhs), c, op](const ColumnSource& t, const RowSpan& span,
                                       NumericBatch* out) {
    rhs(t, span, out);
    simd::ApplyConstLhs(out->values.data(), span.len, op, c);
  };
}

Result<BatchFn> CompileBinaryBatch(const ScalarExpr& expr,
                                   const Schema& schema, simd::Arith op) {
  double c;
  if (IsNumericLiteral(*expr.rhs, &c)) {
    PAQL_ASSIGN_OR_RETURN(BatchFn lhs, CompileScalarBatch(*expr.lhs, schema));
    return MakeBinaryConstRhs(std::move(lhs), c, op);
  }
  if (IsNumericLiteral(*expr.lhs, &c)) {
    PAQL_ASSIGN_OR_RETURN(BatchFn rhs, CompileScalarBatch(*expr.rhs, schema));
    return MakeBinaryConstLhs(c, std::move(rhs), op);
  }
  PAQL_ASSIGN_OR_RETURN(BatchFn lhs, CompileScalarBatch(*expr.lhs, schema));
  PAQL_ASSIGN_OR_RETURN(BatchFn rhs, CompileScalarBatch(*expr.rhs, schema));
  switch (op) {
    case simd::Arith::kAdd:
      return MakeBinaryFn(std::move(lhs), std::move(rhs),
                          [](double a, double b) { return a + b; });
    case simd::Arith::kSub:
      return MakeBinaryFn(std::move(lhs), std::move(rhs),
                          [](double a, double b) { return a - b; });
    case simd::Arith::kMul:
      return MakeBinaryFn(std::move(lhs), std::move(rhs),
                          [](double a, double b) { return a * b; });
    case simd::Arith::kDiv:
      return MakeBinaryFn(std::move(lhs), std::move(rhs),
                          [](double a, double b) { return a / b; });
  }
  return Status::Internal("unreachable arith op");
}

/// Comparison predicate kernel: evaluate both operand batches over the
/// full span, then keep the selected lanes where `cmp` holds. NaN (NULL)
/// operands fail every comparison, matching the scalar pipeline.
template <typename Cmp>
BatchPred MakeCmpPred(BatchFn lhs, BatchFn rhs, Cmp cmp) {
  return [lhs = std::move(lhs), rhs = std::move(rhs), cmp](
             const ColumnSource& t, const RowSpan& span, SelectionVector* sel) {
    if (sel->empty()) return;
    NumericBatch a, b;
    lhs(t, span, &a);
    rhs(t, span, &b);
    uint32_t kept = 0;
    if (sel->count == span.len) {
      for (uint32_t i = 0; i < span.len; ++i) {
        sel->idx[kept] = static_cast<uint16_t>(i);
        kept += static_cast<uint32_t>(cmp(a.values[i], b.values[i]));
      }
    } else {
      for (uint32_t k = 0; k < sel->count; ++k) {
        uint16_t i = sel->idx[k];
        sel->idx[kept] = i;
        kept += static_cast<uint32_t>(cmp(a.values[i], b.values[i]));
      }
    }
    sel->count = kept;
  };
}

/// The scalar form of a simd::Cmp: NaN fails everything, kNe is ordered.
/// Used by the sparse-selection path, whose gathered lanes the compaction
/// kernel cannot address.
bool ScalarCmp(simd::Cmp op, double a, double c) {
  switch (op) {
    case simd::Cmp::kEq: return a == c;
    case simd::Cmp::kNe: return a != c && !std::isnan(a) && !std::isnan(c);
    case simd::Cmp::kLt: return a < c;
    case simd::Cmp::kLe: return a <= c;
    case simd::Cmp::kGt: return a > c;
    case simd::Cmp::kGe: return a >= c;
  }
  return false;
}

/// Constant-folded comparison: one operand batch against a literal. The
/// dense-selection case (every lane still active, the common shape for the
/// first conjunct of a WHERE scan) is the branchless SIMD compaction; the
/// sparse case keeps the scalar gather loop.
BatchPred MakeCmpConstPred(BatchFn lhs, double c, simd::Cmp op) {
  return [lhs = std::move(lhs), c, op](const ColumnSource& t, const RowSpan& span,
                                       SelectionVector* sel) {
    if (sel->empty()) return;
    NumericBatch a;
    lhs(t, span, &a);
    if (sel->count == span.len) {
      sel->count =
          simd::CompactCmpConst(a.values.data(), span.len, op, c,
                                sel->idx.data());
      return;
    }
    uint32_t kept = 0;
    for (uint32_t k = 0; k < sel->count; ++k) {
      uint16_t i = sel->idx[k];
      sel->idx[kept] = i;
      kept += static_cast<uint32_t>(ScalarCmp(op, a.values[i], c));
    }
    sel->count = kept;
  };
}

/// The constant-comparison op with operands flipped (literal on the lhs):
/// c op x  ==  x flip(op) c.
simd::Cmp FlipSimdCmp(simd::Cmp op) {
  switch (op) {
    case simd::Cmp::kLt: return simd::Cmp::kGt;
    case simd::Cmp::kLe: return simd::Cmp::kGe;
    case simd::Cmp::kGt: return simd::Cmp::kLt;
    case simd::Cmp::kGe: return simd::Cmp::kLe;
    case simd::Cmp::kEq:
    case simd::Cmp::kNe: break;  // symmetric
  }
  return op;
}

/// Dispatch a numeric comparison, folding a literal on either side into
/// the constant variant (with the operands flipped for a literal lhs).
template <typename Cmp>
Result<BatchPred> CompileCmpBatch(const lang::BoolExpr& expr,
                                  const Schema& schema, simd::Cmp op,
                                  Cmp cmp) {
  double c;
  if (IsNumericLiteral(*expr.scalar_rhs, &c)) {
    PAQL_ASSIGN_OR_RETURN(BatchFn lhs,
                          CompileScalarBatch(*expr.scalar_lhs, schema));
    return MakeCmpConstPred(std::move(lhs), c, op);
  }
  if (IsNumericLiteral(*expr.scalar_lhs, &c)) {
    PAQL_ASSIGN_OR_RETURN(BatchFn rhs,
                          CompileScalarBatch(*expr.scalar_rhs, schema));
    return MakeCmpConstPred(std::move(rhs), c, FlipSimdCmp(op));
  }
  PAQL_ASSIGN_OR_RETURN(BatchFn lhs,
                        CompileScalarBatch(*expr.scalar_lhs, schema));
  PAQL_ASSIGN_OR_RETURN(BatchFn rhs,
                        CompileScalarBatch(*expr.scalar_rhs, schema));
  return MakeCmpPred(std::move(lhs), std::move(rhs), cmp);
}

/// Lanes of `sel` that are not in `sub` (both ascending; `sub` is a
/// subsequence of `sel`, as produced by refining a copy of `sel`).
void Subtract(const SelectionVector& sel, const SelectionVector& sub,
              SelectionVector* out) {
  uint32_t si = 0;
  out->count = 0;
  for (uint32_t k = 0; k < sel.count; ++k) {
    uint16_t i = sel.idx[k];
    if (si < sub.count && sub.idx[si] == i) {
      ++si;
      continue;
    }
    out->idx[out->count++] = i;
  }
}

/// Ascending merge of two disjoint selections into `out`.
void Merge(const SelectionVector& a, const SelectionVector& b,
           SelectionVector* out) {
  uint32_t ai = 0, bi = 0;
  out->count = 0;
  while (ai < a.count && bi < b.count) {
    out->idx[out->count++] =
        a.idx[ai] < b.idx[bi] ? a.idx[ai++] : b.idx[bi++];
  }
  while (ai < a.count) out->idx[out->count++] = a.idx[ai++];
  while (bi < b.count) out->idx[out->count++] = b.idx[bi++];
}

}  // namespace

Result<BatchFn> CompileScalarBatch(const ScalarExpr& expr,
                                   const Schema& schema) {
  switch (expr.kind) {
    case ScalarKind::kColumn: {
      PAQL_ASSIGN_OR_RETURN(size_t col, schema.ResolveColumn(expr.column));
      if (IsStringColumn(schema, col)) {
        return Status::InvalidArgument(
            StrCat("string column '", expr.column,
                   "' in numeric expression"));
      }
      return BatchFn([col](const ColumnSource& t, const RowSpan& span,
                           NumericBatch* out) {
        relation::LoadNumericChunk(t, col, span, out);
      });
    }
    case ScalarKind::kLiteral: {
      if (!expr.literal.is_numeric()) {
        return Status::InvalidArgument(
            StrCat("non-numeric literal in numeric expression: ",
                   expr.literal.ToString()));
      }
      double v = expr.literal.AsDouble();
      return BatchFn([v](const ColumnSource&, const RowSpan& span,
                         NumericBatch* out) {
        std::fill_n(out->values.data(), span.len, v);
        out->ClearNulls();
      });
    }
    case ScalarKind::kUnaryMinus: {
      PAQL_ASSIGN_OR_RETURN(BatchFn inner,
                            CompileScalarBatch(*expr.lhs, schema));
      return BatchFn([inner](const ColumnSource& t, const RowSpan& span,
                             NumericBatch* out) {
        inner(t, span, out);
        simd::Negate(out->values.data(), span.len);
      });
    }
    case ScalarKind::kAdd:
      return CompileBinaryBatch(expr, schema, simd::Arith::kAdd);
    case ScalarKind::kSub:
      return CompileBinaryBatch(expr, schema, simd::Arith::kSub);
    case ScalarKind::kMul:
      return CompileBinaryBatch(expr, schema, simd::Arith::kMul);
    case ScalarKind::kDiv:
      return CompileBinaryBatch(expr, schema, simd::Arith::kDiv);
  }
  return Status::Internal("unreachable scalar kind");
}

Result<BatchPred> CompileBoolBatch(const BoolExpr& expr,
                                   const Schema& schema) {
  switch (expr.kind) {
    case BoolKind::kCmp: {
      // String comparison path (equality only; enforced by the validator).
      if (IsStringExpr(*expr.scalar_lhs, schema) ||
          IsStringExpr(*expr.scalar_rhs, schema)) {
        if (expr.cmp != CmpOp::kEq && expr.cmp != CmpOp::kNe) {
          return Status::Unsupported("string ordering comparison");
        }
        PAQL_ASSIGN_OR_RETURN(StringOperand lhs,
                              CompileStringOperand(*expr.scalar_lhs, schema));
        PAQL_ASSIGN_OR_RETURN(StringOperand rhs,
                              CompileStringOperand(*expr.scalar_rhs, schema));
        bool negate = expr.cmp == CmpOp::kNe;
        return BatchPred([lhs, rhs, negate](const ColumnSource& t, const RowSpan& span,
                                            SelectionVector* sel) {
          uint32_t kept = 0;
          for (uint32_t k = 0; k < sel->count; ++k) {
            uint16_t i = sel->idx[k];
            RowId r = span.row(i);
            if (lhs.is_column && t.IsNull(r, lhs.col)) continue;
            if (rhs.is_column && t.IsNull(r, rhs.col)) continue;
            const std::string& a =
                lhs.is_column ? t.GetString(r, lhs.col) : lhs.literal;
            const std::string& b =
                rhs.is_column ? t.GetString(r, rhs.col) : rhs.literal;
            if ((a == b) != negate) sel->idx[kept++] = i;
          }
          sel->count = kept;
        });
      }
      // NaN (NULL) comparisons are false, matching SQL and the scalar
      // pipeline; kNe additionally requires both sides non-NaN. The second
      // functor handles a literal lhs (operands flipped).
      switch (expr.cmp) {
        case CmpOp::kEq:
          return CompileCmpBatch(expr, schema, simd::Cmp::kEq,
                                 [](double a, double b) { return a == b; });
        case CmpOp::kNe:
          return CompileCmpBatch(expr, schema, simd::Cmp::kNe,
                                 [](double a, double b) {
                                   return a != b && !std::isnan(a) &&
                                          !std::isnan(b);
                                 });
        case CmpOp::kLt:
          return CompileCmpBatch(expr, schema, simd::Cmp::kLt,
                                 [](double a, double b) { return a < b; });
        case CmpOp::kLe:
          return CompileCmpBatch(expr, schema, simd::Cmp::kLe,
                                 [](double a, double b) { return a <= b; });
        case CmpOp::kGt:
          return CompileCmpBatch(expr, schema, simd::Cmp::kGt,
                                 [](double a, double b) { return a > b; });
        case CmpOp::kGe:
          return CompileCmpBatch(expr, schema, simd::Cmp::kGe,
                                 [](double a, double b) { return a >= b; });
      }
      return Status::Internal("unreachable comparison op");
    }
    case BoolKind::kBetween: {
      PAQL_ASSIGN_OR_RETURN(BatchFn subject,
                            CompileScalarBatch(*expr.scalar_lhs, schema));
      // The common literal-bounds form folds into one range test.
      double lo_c, hi_c;
      if (IsNumericLiteral(*expr.between_lo, &lo_c) &&
          IsNumericLiteral(*expr.between_hi, &hi_c)) {
        return BatchPred([subject, lo_c, hi_c](const ColumnSource& t,
                                               const RowSpan& span,
                                               SelectionVector* sel) {
          if (sel->empty()) return;
          NumericBatch v;
          subject(t, span, &v);
          if (sel->count == span.len) {
            sel->count = simd::CompactRangeConst(v.values.data(), span.len,
                                                 lo_c, hi_c, sel->idx.data());
            return;
          }
          uint32_t kept = 0;
          for (uint32_t k = 0; k < sel->count; ++k) {
            uint16_t i = sel->idx[k];
            sel->idx[kept] = i;
            // Bitwise & keeps the test branch-free on unsorted data.
            kept += static_cast<uint32_t>(
                static_cast<int>(v.values[i] >= lo_c) &
                static_cast<int>(v.values[i] <= hi_c));
          }
          sel->count = kept;
        });
      }
      PAQL_ASSIGN_OR_RETURN(BatchFn lo,
                            CompileScalarBatch(*expr.between_lo, schema));
      PAQL_ASSIGN_OR_RETURN(BatchFn hi,
                            CompileScalarBatch(*expr.between_hi, schema));
      return BatchPred([subject, lo, hi](const ColumnSource& t, const RowSpan& span,
                                         SelectionVector* sel) {
        if (sel->empty()) return;
        NumericBatch v, l, h;
        subject(t, span, &v);
        lo(t, span, &l);
        hi(t, span, &h);
        uint32_t kept = 0;
        for (uint32_t k = 0; k < sel->count; ++k) {
          uint16_t i = sel->idx[k];
          sel->idx[kept] = i;
          kept += (v.values[i] >= l.values[i] && v.values[i] <= h.values[i])
                      ? 1
                      : 0;
        }
        sel->count = kept;
      });
    }
    case BoolKind::kAnd: {
      PAQL_ASSIGN_OR_RETURN(BatchPred lhs, CompileBoolBatch(*expr.left, schema));
      PAQL_ASSIGN_OR_RETURN(BatchPred rhs,
                            CompileBoolBatch(*expr.right, schema));
      return BatchPred([lhs, rhs](const ColumnSource& t, const RowSpan& span,
                                  SelectionVector* sel) {
        lhs(t, span, sel);
        if (!sel->empty()) rhs(t, span, sel);
      });
    }
    case BoolKind::kOr: {
      PAQL_ASSIGN_OR_RETURN(BatchPred lhs, CompileBoolBatch(*expr.left, schema));
      PAQL_ASSIGN_OR_RETURN(BatchPred rhs,
                            CompileBoolBatch(*expr.right, schema));
      return BatchPred([lhs, rhs](const ColumnSource& t, const RowSpan& span,
                                  SelectionVector* sel) {
        if (sel->empty()) return;
        // Mirror scalar short-circuit: rhs only sees lanes lhs rejected.
        SelectionVector passed_left = *sel;
        lhs(t, span, &passed_left);
        SelectionVector rest;
        Subtract(*sel, passed_left, &rest);
        rhs(t, span, &rest);
        Merge(passed_left, rest, sel);
      });
    }
    case BoolKind::kNot: {
      PAQL_ASSIGN_OR_RETURN(BatchPred inner,
                            CompileBoolBatch(*expr.left, schema));
      return BatchPred([inner](const ColumnSource& t, const RowSpan& span,
                               SelectionVector* sel) {
        if (sel->empty()) return;
        SelectionVector passed = *sel;
        inner(t, span, &passed);
        SelectionVector kept;
        Subtract(*sel, passed, &kept);
        std::copy_n(kept.idx.data(), kept.count, sel->idx.data());
        sel->count = kept.count;
      });
    }
    case BoolKind::kIsNull:
    case BoolKind::kIsNotNull: {
      if (expr.scalar_lhs->kind != ScalarKind::kColumn) {
        return Status::Unsupported(
            "IS NULL is only supported on column references");
      }
      PAQL_ASSIGN_OR_RETURN(size_t col,
                            schema.ResolveColumn(expr.scalar_lhs->column));
      bool want_null = expr.kind == BoolKind::kIsNull;
      return BatchPred([col, want_null](const ColumnSource& t, const RowSpan& span,
                                        SelectionVector* sel) {
        uint32_t kept = 0;
        for (uint32_t k = 0; k < sel->count; ++k) {
          uint16_t i = sel->idx[k];
          sel->idx[kept] = i;
          kept += (t.IsNull(span.row(i), col) == want_null) ? 1 : 0;
        }
        sel->count = kept;
      });
    }
  }
  return Status::Internal("unreachable bool kind");
}

namespace {

/// True when `expr` is a bare reference to a numeric column; stores the
/// resolved column index in `*col`. Zone extraction only looks at these —
/// arithmetic over a column would need interval propagation to stay
/// conservative, so it contributes nothing instead.
bool IsNumericColumn(const ScalarExpr& expr, const Schema& schema,
                     size_t* col) {
  if (expr.kind != ScalarKind::kColumn) return false;
  auto resolved = schema.ResolveColumn(expr.column);
  if (!resolved.ok()) return false;
  if (schema.column(*resolved).type == DataType::kString) return false;
  *col = *resolved;
  return true;
}

void CollectZoneRanges(const BoolExpr& expr, const Schema& schema,
                       std::vector<ZoneRange>* out) {
  switch (expr.kind) {
    case BoolKind::kAnd:
      CollectZoneRanges(*expr.left, schema, out);
      CollectZoneRanges(*expr.right, schema, out);
      return;
    case BoolKind::kCmp: {
      size_t col;
      double v;
      CmpOp cmp = expr.cmp;
      if (IsNumericColumn(*expr.scalar_lhs, schema, &col) &&
          IsNumericLiteral(*expr.scalar_rhs, &v)) {
        // col cmp v: fall through with cmp as is.
      } else if (IsNumericColumn(*expr.scalar_rhs, schema, &col) &&
                 IsNumericLiteral(*expr.scalar_lhs, &v)) {
        cmp = lang::FlipCmpOp(cmp);  // v cmp col  ==  col flip(cmp) v
      } else {
        return;
      }
      ZoneRange r;
      r.col = col;
      switch (cmp) {
        case CmpOp::kEq: r.lo = v; r.hi = v; break;
        // Strict bounds are kept closed: the zone test only decides block
        // disjointness, and [min,max] touching v still may hold no
        // strictly-satisfying row — scanning such a block is correct,
        // skipping it would not be for kEq/kLe/kGe, so closed is the
        // uniformly conservative choice.
        case CmpOp::kLt:
        case CmpOp::kLe: r.hi = v; break;
        case CmpOp::kGt:
        case CmpOp::kGe: r.lo = v; break;
        case CmpOp::kNe: return;  // excludes one point: no usable range
      }
      out->push_back(r);
      return;
    }
    case BoolKind::kBetween: {
      size_t col;
      double lo, hi;
      if (!IsNumericColumn(*expr.scalar_lhs, schema, &col)) return;
      if (!IsNumericLiteral(*expr.between_lo, &lo)) return;
      if (!IsNumericLiteral(*expr.between_hi, &hi)) return;
      ZoneRange r;
      r.col = col;
      r.lo = lo;
      r.hi = hi;
      out->push_back(r);
      return;
    }
    case BoolKind::kOr:
    case BoolKind::kNot:
    case BoolKind::kIsNull:
    case BoolKind::kIsNotNull:
      // OR/NOT would need disjunctive zone logic; IS NULL rows have no
      // value to range over. All conservative no-ops.
      return;
  }
}

}  // namespace

std::vector<ZoneRange> ExtractZoneRanges(const lang::BoolExpr& expr,
                                         const relation::Schema& schema) {
  std::vector<ZoneRange> out;
  CollectZoneRanges(expr, schema, &out);
  return out;
}

namespace {

/// True when block `block`'s zone maps prove no row can satisfy every
/// range: some range's [lo, hi] is disjoint from the block's non-NULL
/// [min, max] (an all-NULL block reports the empty interval, so any
/// range prunes it — NULL comparisons are false). Sources without
/// statistics for a column simply never prune on it.
bool BlockPruned(const ColumnSource& table, const std::vector<ZoneRange>& zones,
                 size_t block) {
  ColumnSource::BlockZone z;
  for (const ZoneRange& r : zones) {
    if (!table.ZoneFor(r.col, block, &z)) continue;
    if (z.max < r.lo || z.min > r.hi) return true;
  }
  return false;
}

/// Shared morsel-parallel filter driver: scan [0, n) in kMorselRows-sized
/// morsels, each collecting survivors into its own slot via
/// `scan(begin, end, &slot)`, and concatenate the slots in ascending
/// morsel order. The morsel grid depends on n alone, so the output is
/// identical to the serial scan for any worker count.
template <typename Scan>
std::vector<RowId> MorselFilter(size_t n, int threads, const Scan& scan) {
  const size_t morsels = (n + relation::kMorselRows - 1) / relation::kMorselRows;
  if (threads <= 1 || morsels <= 1) {
    std::vector<RowId> out;
    out.reserve(n);
    scan(0, n, &out);
    return out;
  }
  std::vector<std::vector<RowId>> parts(morsels);
  ThreadPool::Global().ParallelFor(
      n, relation::kMorselRows, threads, [&](size_t begin, size_t end) {
        scan(begin, end, &parts[begin / relation::kMorselRows]);
      });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<RowId> out;
  out.reserve(total);
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace

std::vector<RowId> FilterTableVectorized(const ColumnSource& table,
                                         const BatchPred& pred, int threads,
                                         const std::vector<ZoneRange>* zones,
                                         ScanCounters* counters) {
  const bool prune = zones != nullptr && !zones->empty();
  return MorselFilter(
      table.num_rows(), threads,
      [&](size_t begin, size_t end, std::vector<RowId>* out) {
        // `begin` is always a morsel (== storage block) boundary: 0 on the
        // serial path, a ParallelFor grain boundary otherwise. Chunks of
        // kChunkSize keep the loop aligned, so each block's zone maps are
        // consulted exactly once, right before its first chunk.
        SelectionVector sel;
        size_t start = begin;
        while (start < end) {
          if (start % relation::kMorselRows == 0) {
            const size_t block = start / relation::kMorselRows;
            if (prune && BlockPruned(table, *zones, block)) {
              if (counters != nullptr) {
                counters->blocks_pruned.fetch_add(1, std::memory_order_relaxed);
              }
              start = std::min(end, start + relation::kMorselRows);
              continue;
            }
            if (counters != nullptr) {
              counters->blocks_scanned.fetch_add(1, std::memory_order_relaxed);
            }
          }
          RowSpan span;
          span.start = static_cast<RowId>(start);
          span.len = static_cast<uint32_t>(std::min(kChunkSize, end - start));
          sel.MakeDense(span.len);
          pred(table, span, &sel);
          for (uint32_t k = 0; k < sel.count; ++k) {
            out->push_back(span.start + sel.idx[k]);
          }
          start += span.len;
        }
      });
}

}  // namespace paql::translate
