#include "core/remedies.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/str_util.h"
#include "core/direct.h"
#include "ilp/iis.h"
#include "partition/partitioner.h"

namespace paql::core {

using partition::Partitioning;
using relation::RowId;
using relation::ColumnSource;
using relation::Table;
using translate::CompiledQuery;

namespace {

/// Evaluate with SKETCHREFINE over an ad-hoc partitioning.
Result<EvalResult> RunSketchRefine(const ColumnSource& table, const Partitioning& p,
                                   const SketchRefineOptions& options,
                                   const CompiledQuery& query) {
  SketchRefineEvaluator evaluator(table, p, options);
  return evaluator.Evaluate(query);
}

}  // namespace

const char* RemedyName(InfeasibilityRemedy remedy) {
  switch (remedy) {
    case InfeasibilityRemedy::kFurtherPartitioning:
      return "further_partitioning";
    case InfeasibilityRemedy::kDropAttributes:
      return "drop_attributes";
    case InfeasibilityRemedy::kGroupMerging:
      return "group_merging";
  }
  return "?";
}

RobustSketchRefineEvaluator::RobustSketchRefineEvaluator(
    const ColumnSource& table, const Partitioning& partitioning,
    RemedyOptions options)
    : table_(&table),
      partitioning_(&partitioning),
      options_(std::move(options)) {}

Result<RemedyReport> RobustSketchRefineEvaluator::Evaluate(
    const lang::PackageQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(
      CompiledQuery cq, CompiledQuery::Compile(query, table_->schema()));
  return Evaluate(cq);
}

Result<RemedyReport> RobustSketchRefineEvaluator::Evaluate(
    const CompiledQuery& query) const {
  auto plain =
      RunSketchRefine(*table_, *partitioning_, options_.sketch_refine, query);
  if (plain.ok()) {
    RemedyReport report;
    report.result = std::move(*plain);
    return report;
  }
  if (!plain.status().IsInfeasible()) return plain.status();

  Status last = plain.status();
  for (InfeasibilityRemedy remedy : options_.chain) {
    Result<RemedyReport> attempt = Status::Internal("unreached");
    switch (remedy) {
      case InfeasibilityRemedy::kFurtherPartitioning:
        attempt = TryFurtherPartitioning(query);
        break;
      case InfeasibilityRemedy::kDropAttributes:
        attempt = TryDropAttributes(query);
        break;
      case InfeasibilityRemedy::kGroupMerging:
        attempt = TryGroupMerging(query);
        break;
    }
    if (attempt.ok()) {
      attempt->remedy_used = RemedyName(remedy);
      return attempt;
    }
    if (!attempt.status().IsInfeasible()) return attempt.status();
    last = attempt.status();
  }
  return Status::Infeasible(
      StrCat("query remained infeasible after all remedies (last: ",
             last.message(), ")"));
}

Result<RemedyReport> RobustSketchRefineEvaluator::TryFurtherPartitioning(
    const CompiledQuery& query) const {
  // Halve tau each round: smaller groups get representatives closer to
  // their members, which repairs skew-induced false infeasibility (paper
  // remedy 2: "Further partitioning by reducing the size threshold tau may
  // eliminate the problem").
  size_t tau = partitioning_->size_threshold;
  Status last = Status::Infeasible("further partitioning never ran");
  for (int round = 1; round <= options_.max_rounds_per_remedy; ++round) {
    tau = std::max(options_.min_size_threshold, tau / 2);
    partition::PartitionOptions popts;
    popts.attributes = partitioning_->attributes;
    popts.size_threshold = tau;
    popts.radius_limit = partitioning_->radius_limit;
    PAQL_ASSIGN_OR_RETURN(Partitioning finer,
                          partition::PartitionTable(*table_, popts));
    auto result =
        RunSketchRefine(*table_, finer, options_.sketch_refine, query);
    if (result.ok()) {
      RemedyReport report;
      report.result = std::move(*result);
      report.rounds = round;
      return report;
    }
    if (!result.status().IsInfeasible()) return result.status();
    last = result.status();
    if (tau == options_.min_size_threshold) break;  // cannot go finer
  }
  return last;
}

Result<std::vector<std::string>>
RobustSketchRefineEvaluator::IisAttributes(const CompiledQuery& query) const {
  // Rebuild the sketch ILP the evaluator would solve: one variable per
  // representative of a group with at least one base-accepted candidate,
  // bounded by |G_j| * (K+1).
  std::vector<RowId> rep_rows;
  std::vector<double> rep_ub;
  for (size_t g = 0; g < partitioning_->num_groups(); ++g) {
    size_t candidates = 0;
    for (RowId r : partitioning_->groups[g]) {
      if (query.BaseAccepts(*table_, r)) ++candidates;
    }
    if (candidates == 0) continue;
    rep_rows.push_back(static_cast<RowId>(g));
    double ub = query.per_tuple_ub();
    rep_ub.push_back(std::isinf(ub) ? ub
                                    : ub * static_cast<double>(candidates));
  }
  CompiledQuery::Segment seg;
  seg.table = &partitioning_->representatives;
  seg.rows = &rep_rows;
  seg.ub_override = &rep_ub;
  PAQL_ASSIGN_OR_RETURN(lp::Model model,
                        query.BuildModelSegments({seg}, nullptr));
  auto iis = ilp::FindIisRows(model);
  if (!iis.ok()) {
    // LP-feasible sketch (the infeasibility was integrality- or
    // refinement-induced): no attribute guidance available.
    return std::vector<std::string>{};
  }
  // Model rows map to leaf constraints in order for pure-AND queries; OR
  // queries append indicator rows past the leaves, which carry no single
  // attribute and are skipped.
  std::set<std::string> attrs;
  for (int row : *iis) {
    if (static_cast<size_t>(row) >= query.num_leaf_constraints()) continue;
    for (const auto& col : query.leaf_columns(static_cast<size_t>(row))) {
      attrs.insert(col);
    }
  }
  return std::vector<std::string>(attrs.begin(), attrs.end());
}

Result<RemedyReport> RobustSketchRefineEvaluator::TryDropAttributes(
    const CompiledQuery& query) const {
  PAQL_ASSIGN_OR_RETURN(std::vector<std::string> conflict_attrs,
                        IisAttributes(query));
  if (conflict_attrs.empty()) {
    return Status::Infeasible(
        "drop-attributes remedy: no IIS guidance available");
  }
  // Project the partitioning away from the conflicting attributes, one more
  // per round, so groups merge along the dimensions the conflict lives in
  // (paper remedy 3).
  std::vector<std::string> remaining = partitioning_->attributes;
  std::vector<std::string> dropped;
  Status last = Status::Infeasible("drop-attributes remedy never ran");
  int rounds = 0;
  for (const std::string& attr : conflict_attrs) {
    auto it = std::find(remaining.begin(), remaining.end(), attr);
    if (it == remaining.end()) continue;
    if (remaining.size() == 1) break;  // must keep at least one dimension
    remaining.erase(it);
    dropped.push_back(attr);
    if (++rounds > options_.max_rounds_per_remedy) break;
    partition::PartitionOptions popts;
    popts.attributes = remaining;
    popts.size_threshold = partitioning_->size_threshold;
    popts.radius_limit = partitioning_->radius_limit;
    PAQL_ASSIGN_OR_RETURN(Partitioning projected,
                          partition::PartitionTable(*table_, popts));
    auto result =
        RunSketchRefine(*table_, projected, options_.sketch_refine, query);
    if (result.ok()) {
      RemedyReport report;
      report.result = std::move(*result);
      report.rounds = rounds;
      report.dropped_attributes = dropped;
      return report;
    }
    if (!result.status().IsInfeasible()) return result.status();
    last = result.status();
  }
  return last;
}

Result<RemedyReport> RobustSketchRefineEvaluator::TryGroupMerging(
    const CompiledQuery& query) const {
  // Merge groups pairwise per round. Groups are ordered by their centroid
  // on the first partitioning attribute so merges combine neighbors and
  // representatives stay meaningful. With one group left, SKETCHREFINE
  // degenerates to DIRECT on the full problem (paper remedy 4: "in the
  // worst case, this process reduces the problem to the original problem
  // ... guaranteed to find a solution to any feasible query").
  std::vector<std::vector<RowId>> groups = partitioning_->groups;
  auto rep_attr = partitioning_->representatives.schema().FindColumn(
      partitioning_->attributes.front());
  PAQL_CHECK(rep_attr.has_value());
  // Order group indices by representative value once; merging preserves
  // neighborhood ordering well enough across rounds.
  std::vector<size_t> order(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double va = partitioning_->representatives.GetDouble(
        static_cast<RowId>(a), *rep_attr);
    double vb = partitioning_->representatives.GetDouble(
        static_cast<RowId>(b), *rep_attr);
    if (va != vb) return va < vb;
    return a < b;
  });
  std::vector<std::vector<RowId>> current;
  current.reserve(groups.size());
  for (size_t g : order) current.push_back(std::move(groups[g]));

  int round = 0;
  while (current.size() > 1) {
    ++round;
    std::vector<std::vector<RowId>> merged;
    merged.reserve((current.size() + 1) / 2);
    for (size_t i = 0; i < current.size(); i += 2) {
      if (i + 1 < current.size()) {
        current[i].insert(current[i].end(), current[i + 1].begin(),
                          current[i + 1].end());
      }
      merged.push_back(std::move(current[i]));
    }
    current = std::move(merged);
    if (current.size() == 1) break;  // handled by the exact final step
    size_t max_size = 0;
    for (const auto& g : current) max_size = std::max(max_size, g.size());
    PAQL_ASSIGN_OR_RETURN(
        Partitioning coarser,
        partition::MakePartitioningFromGroups(
            *table_, partitioning_->attributes, max_size,
            std::numeric_limits<double>::infinity(), current));
    auto result =
        RunSketchRefine(*table_, coarser, options_.sketch_refine, query);
    if (result.ok()) {
      RemedyReport report;
      report.result = std::move(*result);
      report.rounds = round;
      return report;
    }
    if (!result.status().IsInfeasible()) return result.status();
    // Unlike the other remedies, merging runs to exhaustion: the final
    // step is exact, so stopping early would forfeit the guarantee.
    // max_rounds_per_remedy is intentionally not applied.
  }
  // One group left: "this process reduces the problem to the original
  // problem (i.e., with no partitioning)" — solve it directly, under the
  // same subproblem budgets SKETCHREFINE would use.
  engine::ExecContext direct_opts;
  direct_opts.limits = options_.sketch_refine.limits;
  direct_opts.branch_and_bound = options_.sketch_refine.branch_and_bound;
  DirectEvaluator direct(*table_, direct_opts);
  PAQL_ASSIGN_OR_RETURN(EvalResult exact, direct.Evaluate(query));
  RemedyReport report;
  report.result = std::move(exact);
  report.rounds = round + 1;
  return report;
}

}  // namespace paql::core
