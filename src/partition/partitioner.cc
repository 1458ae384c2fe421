#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "relation/chunk.h"
#include "relation/csv.h"

namespace paql::partition {

using relation::ColumnDef;
using relation::DataType;
using relation::RowId;
using relation::Schema;
using relation::ColumnSource;
using relation::Table;
using relation::Value;

namespace {

/// Mean of `col` over `rows` (chunked gather, relation/chunk.h).
double ColumnMean(const ColumnSource& table, const std::vector<RowId>& rows,
                  size_t col) {
  return relation::GatherMean(table, col, rows);
}

/// Run fn(i) for i in [0, n), in parallel off the shared pool when
/// `threads` > 1. Every i writes its own slot, so results never depend on
/// the worker count; the float work inside each i is serial.
template <typename Fn>
void ParallelIndexFor(size_t n, int threads, const Fn& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool::Global().ParallelFor(n, 1, threads,
                                   [&](size_t begin, size_t end) {
                                     for (size_t i = begin; i < end; ++i) {
                                       fn(i);
                                     }
                                   });
}

/// Per-attribute means over `rows` (the group centroid), computed in
/// parallel across attributes: each mean's accumulation stays serial, so
/// the centroid is bit-identical for any worker count.
std::vector<double> GroupCentroid(const ColumnSource& table,
                                  const std::vector<RowId>& rows,
                                  const std::vector<size_t>& cols,
                                  int threads) {
  std::vector<double> centroid(cols.size());
  ParallelIndexFor(cols.size(), threads, [&](size_t k) {
    centroid[k] = ColumnMean(table, rows, cols[k]);
  });
  return centroid;
}

/// Max |centroid - value| over `rows` across the partitioning columns.
/// The per-attribute max folds run morsel-parallel (max is exactly
/// associative, so the result is unchanged).
double GroupRadius(const ColumnSource& table, const std::vector<RowId>& rows,
                   const std::vector<size_t>& cols,
                   const std::vector<double>& centroid, int threads = 1) {
  std::vector<double> per_attr(cols.size(), 0.0);
  ParallelIndexFor(cols.size(), threads, [&](size_t k) {
    per_attr[k] =
        relation::GatherMaxAbsDeviation(table, cols[k], rows, centroid[k]);
  });
  double radius = 0;
  for (double r : per_attr) radius = std::max(radius, r);
  return radius;
}

/// Recursive quad-tree splitter.
class QuadTreeBuilder {
 public:
  QuadTreeBuilder(const ColumnSource& table, const PartitionOptions& options,
                  std::vector<size_t> part_cols)
      : table_(table), options_(options), part_cols_(std::move(part_cols)) {
    // Full-table value range per attribute (split-score normalization),
    // scanned chunk at a time; the min/max folds run morsel-parallel.
    attr_scale_.assign(part_cols_.size(), 0.0);
    for (size_t k = 0; k < part_cols_.size(); ++k) {
      auto [lo, hi] =
          relation::ColumnMinMax(table, part_cols_[k], options.threads);
      attr_scale_[k] = table.num_rows() > 0 ? hi - lo : 0.0;
    }
  }

  Status Build(std::vector<RowId> all_rows, Partitioning* out) {
    PAQL_RETURN_IF_ERROR(Split(std::move(all_rows), 0, out));
    return Status::OK();
  }

 private:
  Status Split(std::vector<RowId> rows, int depth, Partitioning* out) {
    if (rows.empty()) return Status::OK();
    std::vector<double> centroid =
        GroupCentroid(table_, rows, part_cols_, options_.threads);
    double radius =
        GroupRadius(table_, rows, part_cols_, centroid, options_.threads);
    bool size_ok = rows.size() <= options_.size_threshold;
    bool radius_ok = radius <= options_.radius_limit;
    if ((size_ok && radius_ok) || depth >= options_.max_depth) {
      Finalize(std::move(rows), radius, out);
      return Status::OK();
    }
    // Partition around the centroid into sub-quadrants. Splitting on all k
    // attributes at once would create up to 2^k children and shatter the
    // data far below the size threshold when k is large (the Galaxy
    // workload has 12+ attributes); instead each level splits on the
    // attributes that most need it — those with the largest spread (or,
    // when the radius condition binds, the largest per-attribute radius) —
    // using just enough of them to meet the size threshold, with a fan-out
    // cap of 2^4 per level. Deeper levels handle the rest, so the result
    // still satisfies both conditions while keeping groups near tau.
    std::vector<size_t> split_attrs =
        ChooseSplitAttributes(rows, centroid, size_ok);
    std::unordered_map<uint32_t, std::vector<RowId>> quadrants;
    for (RowId r : rows) {
      uint32_t mask = 0;
      for (size_t k = 0; k < split_attrs.size(); ++k) {
        size_t a = split_attrs[k];
        if (table_.GetDouble(r, part_cols_[a]) > centroid[a]) {
          mask |= 1u << k;
        }
      }
      quadrants[mask].push_back(r);
    }
    if (quadrants.size() <= 1) {
      // Degenerate: all rows coincide on the split attributes. Split by
      // size alone into tau-sized chunks — identical tuples are
      // interchangeable, so any chunking is valid.
      size_t chunk = std::max<size_t>(1, options_.size_threshold);
      for (size_t start = 0; start < rows.size(); start += chunk) {
        size_t end = std::min(rows.size(), start + chunk);
        std::vector<RowId> part(rows.begin() + start, rows.begin() + end);
        // Computed like every other group's radius (it is zero only up to
        // the mean's rounding), so the artifact matches
        // MakePartitioningFromGroups on the same groups.
        double part_radius = GroupRadius(
            table_, part, part_cols_,
            GroupCentroid(table_, part, part_cols_, options_.threads),
            options_.threads);
        Finalize(std::move(part), part_radius, out);
      }
      return Status::OK();
    }
    // Deterministic order: sort quadrant masks.
    std::vector<uint32_t> masks;
    masks.reserve(quadrants.size());
    for (const auto& [mask, _] : quadrants) masks.push_back(mask);
    std::sort(masks.begin(), masks.end());
    for (uint32_t mask : masks) {
      PAQL_RETURN_IF_ERROR(Split(std::move(quadrants[mask]), depth + 1, out));
    }
    return Status::OK();
  }

  /// Indices (into part_cols_) of the attributes to split on at this level.
  /// `size_ok` tells whether only the radius condition is violated.
  std::vector<size_t> ChooseSplitAttributes(const std::vector<RowId>& rows,
                                            const std::vector<double>& centroid,
                                            bool size_ok) const {
    // Score each attribute by its radius around the centroid. For size
    // violations the radius is normalized by the attribute's full-table
    // scale so wide-scaled attributes (flux in the thousands) do not starve
    // narrow ones (redshift near zero) of splits; for radius violations the
    // raw radius is the binding quantity.
    std::vector<std::pair<double, size_t>> scored(part_cols_.size());
    ParallelIndexFor(part_cols_.size(), options_.threads, [&](size_t k) {
      double radius = relation::GatherMaxAbsDeviation(table_, part_cols_[k],
                                                      rows, centroid[k]);
      double score = size_ok ? radius
                             : (attr_scale_[k] > 0 ? radius / attr_scale_[k]
                                                   : 0.0);
      scored[k] = {score, k};
    });
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;  // deterministic tie-break
    });
    size_t want;
    if (!size_ok) {
      // Enough binary splits to bring size under tau (assuming balanced
      // children), capped at 4 (16-way fan-out per level).
      double excess = static_cast<double>(rows.size()) /
                      static_cast<double>(options_.size_threshold);
      want = static_cast<size_t>(std::ceil(std::log2(std::max(excess, 2.0))));
    } else {
      // Only the radius condition binds: split every attribute whose radius
      // exceeds the limit (capped).
      want = 0;
      for (const auto& [radius, _] : scored) {
        if (radius > options_.radius_limit) ++want;
      }
    }
    want = std::clamp<size_t>(want, 1, std::min<size_t>(4, part_cols_.size()));
    std::vector<size_t> out;
    for (size_t k = 0; k < want; ++k) out.push_back(scored[k].second);
    return out;
  }

  void Finalize(std::vector<RowId> rows, double radius, Partitioning* out) {
    uint32_t g = static_cast<uint32_t>(out->groups.size());
    for (RowId r : rows) out->gid[r] = g;
    out->groups.push_back(std::move(rows));
    out->radius.push_back(radius);
  }

  const ColumnSource& table_;
  const PartitionOptions& options_;
  std::vector<size_t> part_cols_;
  std::vector<double> attr_scale_;
};

/// Build the representative relation: centroid over every numeric column of
/// each group (strings become NULL) plus a trailing gid column. The
/// (group, column) means are independent, so they fill a per-group value
/// grid in parallel; rows are appended serially in group order. A group
/// with `inherited[g] != kNoGroup` has the membership of group
/// inherited[g] of `previous`, so every mean would come out the same: it
/// copies that representative row instead, with only its gid cell
/// rewritten.
Result<Table> BuildRepresentatives(
    const ColumnSource& table, const Partitioning& partitioning,
    int threads = 1, const Partitioning* previous = nullptr,
    const std::vector<uint32_t>* inherited = nullptr) {
  std::vector<ColumnDef> defs = table.schema().columns();
  // The trailing group-id column is conventionally "gid"; when the source
  // already has one (e.g. partitioning a representative relation during
  // recursive SketchRefine), pick the first free suffixed name.
  std::string gid_name = "gid";
  for (int suffix = 2; table.schema().FindColumn(gid_name).has_value();
       ++suffix) {
    gid_name = StrCat("gid_", suffix);
  }
  defs.push_back({gid_name, DataType::kInt64});
  Table reps{Schema(std::move(defs))};
  const size_t num_groups = partitioning.groups.size();
  reps.Reserve(num_groups);
  std::vector<std::vector<Value>> grid(num_groups);
  std::vector<size_t> fresh;  // groups whose means are computed here
  for (size_t g = 0; g < num_groups; ++g) {
    grid[g].resize(table.num_columns() + 1);
    if (previous != nullptr && (*inherited)[g] != kNoGroup) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        grid[g][c] = previous->representatives.GetValue((*inherited)[g], c);
      }
    } else {
      fresh.push_back(g);
    }
    grid[g][table.num_columns()] = Value(static_cast<int64_t>(g));
  }
  // Column-major over the grid: every group's mean for one column before
  // the next column. Each (group, column) cell is the same ColumnMean call
  // in either loop order, but an out-of-core source decodes one column's
  // blocks per pass — a working set an LRU block cache actually holds —
  // whereas group-major re-decodes nearly the whole table per group (the
  // groups' row lists are value-clustered, so each one touches most
  // blocks of every column).
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type == DataType::kString) {
      for (size_t g : fresh) grid[g][c] = Value::Null();
      continue;
    }
    ParallelIndexFor(fresh.size(), threads, [&](size_t i) {
      // Averaging ignores NULLs? For simplicity, NULLs read as 0 here; the
      // benchmark workloads pre-filter NULL rows per the paper's setup.
      const size_t g = fresh[i];
      grid[g][c] = Value(ColumnMean(table, partitioning.groups[g], c));
    });
  }
  for (size_t g = 0; g < num_groups; ++g) {
    reps.AppendRowUnchecked(grid[g]);
  }
  return reps;
}

std::vector<size_t> ResolveNumericColumns(const ColumnSource& table,
                                          const std::vector<std::string>& names,
                                          Status* status) {
  std::vector<size_t> cols;
  for (const auto& name : names) {
    auto idx = table.schema().ResolveColumn(name);
    if (!idx.ok()) {
      *status = idx.status();
      return {};
    }
    if (table.schema().column(*idx).type == DataType::kString) {
      *status = Status::InvalidArgument(
          StrCat("partitioning attribute '", name, "' is not numeric"));
      return {};
    }
    cols.push_back(*idx);
  }
  *status = Status::OK();
  return cols;
}

}  // namespace

size_t Partitioning::max_group_size() const {
  size_t best = 0;
  for (const auto& g : groups) best = std::max(best, g.size());
  return best;
}

bool Partitioning::CoversLiveRows(const ColumnSource& table) const {
  if (gid.size() != table.num_rows()) return false;
  size_t grouped = 0;
  for (const auto& g : groups) grouped += g.size();
  if (grouped == gid.size()) return true;  // no kNoGroup entries at all
  for (RowId r = 0; r < gid.size(); ++r) {
    if (gid[r] == kNoGroup && !table.RowDeleted(r)) return false;
  }
  return true;
}

Result<std::vector<std::vector<RowId>>> Partitioning::GroupRows(
    const std::vector<RowId>& rows) const {
  std::vector<std::vector<RowId>> out(num_groups());
  for (RowId r : rows) {
    const uint32_t g = r < gid.size() ? gid[r] : kNoGroup;
    if (g == kNoGroup) {
      return Status::InvalidArgument(
          StrCat("row ", r, " is in no group of the partitioning; it was "
                 "built or absorbed for another version of the table"));
    }
    out[g].push_back(r);
  }
  return out;
}

Result<Partitioning> PartitionTable(const ColumnSource& table,
                                    const PartitionOptions& options) {
  if (options.size_threshold == 0) {
    return Status::InvalidArgument("size_threshold must be positive");
  }
  if (options.attributes.empty()) {
    return Status::InvalidArgument("no partitioning attributes given");
  }
  Status status;
  std::vector<size_t> cols = ResolveNumericColumns(table, options.attributes,
                                                   &status);
  PAQL_RETURN_IF_ERROR(status);

  Partitioning out;
  out.attributes = options.attributes;
  out.size_threshold = options.size_threshold;
  out.radius_limit = options.radius_limit;
  out.gid.assign(table.num_rows(), 0);

  std::vector<RowId> all(table.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) all[r] = r;
  QuadTreeBuilder builder(table, options, cols);
  PAQL_RETURN_IF_ERROR(builder.Build(std::move(all), &out));
  PAQL_ASSIGN_OR_RETURN(out.representatives,
                        BuildRepresentatives(table, out, options.threads));
  return out;
}

namespace {

/// MakePartitioningFromGroups and RebuildPartitioningFromGroups: the
/// latter passes the artifact the groups derive from and, per group, the
/// group of it whose statistics carry over (kNoGroup = compute them).
Result<Partitioning> AssemblePartitioning(
    const ColumnSource& table, const std::vector<std::string>& attributes,
    size_t size_threshold, double radius_limit,
    std::vector<std::vector<RowId>> groups, int threads,
    const Partitioning* previous, const std::vector<uint32_t>* inherited) {
  Status status;
  std::vector<size_t> cols = ResolveNumericColumns(table, attributes, &status);
  PAQL_RETURN_IF_ERROR(status);

  Partitioning out;
  out.attributes = attributes;
  out.size_threshold = size_threshold;
  out.radius_limit = radius_limit;
  out.gid.assign(table.num_rows(), kNoGroup);
  out.groups = std::move(groups);
  out.radius.resize(out.groups.size());
  for (size_t g = 0; g < out.groups.size(); ++g) {
    if (out.groups[g].empty()) {
      return Status::InvalidArgument(StrCat("group ", g, " is empty"));
    }
    for (RowId r : out.groups[g]) {
      if (r >= table.num_rows()) {
        return Status::InvalidArgument(StrCat("row ", r, " out of range"));
      }
      if (out.gid[r] != kNoGroup) {
        return Status::InvalidArgument(StrCat("row ", r, " in two groups"));
      }
      out.gid[r] = static_cast<uint32_t>(g);
    }
  }
  // Per-group radii, one group per worker (each group's float accumulation
  // stays serial, so the artifact is identical for any worker count).
  ParallelIndexFor(out.groups.size(), threads, [&](size_t g) {
    if (previous != nullptr && (*inherited)[g] != kNoGroup) {
      out.radius[g] = previous->radius[(*inherited)[g]];
      return;
    }
    std::vector<double> centroid =
        GroupCentroid(table, out.groups[g], cols, 1);
    out.radius[g] = GroupRadius(table, out.groups[g], cols, centroid);
  });
  for (RowId r = 0; r < table.num_rows(); ++r) {
    if (out.gid[r] == kNoGroup && !table.RowDeleted(r)) {
      return Status::InvalidArgument(
          StrCat("live row ", r, " not covered by any group"));
    }
  }
  PAQL_ASSIGN_OR_RETURN(
      out.representatives,
      BuildRepresentatives(table, out, threads, previous, inherited));
  return out;
}

}  // namespace

Result<Partitioning> MakePartitioningFromGroups(
    const ColumnSource& table, const std::vector<std::string>& attributes,
    size_t size_threshold, double radius_limit,
    std::vector<std::vector<RowId>> groups, int threads) {
  return AssemblePartitioning(table, attributes, size_threshold, radius_limit,
                              std::move(groups), threads, nullptr, nullptr);
}

Result<Partitioning> RebuildPartitioningFromGroups(
    const ColumnSource& table, const Partitioning& previous,
    std::vector<std::vector<RowId>> groups,
    const std::vector<uint32_t>& inherited) {
  if (inherited.size() != groups.size()) {
    return Status::InvalidArgument(
        StrCat(inherited.size(), " inherited ids for ", groups.size(),
               " groups"));
  }
  if (previous.radius.size() != previous.num_groups() ||
      previous.representatives.num_rows() != previous.num_groups() ||
      previous.representatives.num_columns() != table.num_columns() + 1) {
    return Status::InvalidArgument(
        "previous partitioning's statistics do not match its groups and "
        "this table's schema");
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const uint32_t from = inherited[g];
    if (from == kNoGroup) continue;
    if (from >= previous.num_groups() || groups[g] != previous.groups[from]) {
      return Status::InvalidArgument(
          StrCat("group ", g, " does not have the rows of previous group ",
                 from));
    }
  }
  return AssemblePartitioning(table, previous.attributes,
                              previous.size_threshold, previous.radius_limit,
                              std::move(groups), /*threads=*/1, &previous,
                              &inherited);
}

Result<Partitioning> ShrinkToSubset(const ColumnSource& table,
                                    const Partitioning& partitioning,
                                    const std::vector<RowId>& subset,
                                    int threads) {
  for (RowId old_row : subset) {
    if (old_row >= partitioning.gid.size()) {
      return Status::InvalidArgument("subset row out of range");
    }
  }
  Table sub = relation::MaterializeRows(table, subset);
  // Remap groups onto the subset, dropping emptied groups.
  std::vector<std::vector<RowId>> new_groups;
  std::vector<uint32_t> dense_id(partitioning.num_groups(), UINT32_MAX);
  Partitioning out;
  out.attributes = partitioning.attributes;
  out.size_threshold = partitioning.size_threshold;
  out.radius_limit = partitioning.radius_limit;
  out.gid.assign(subset.size(), 0);
  for (size_t k = 0; k < subset.size(); ++k) {
    uint32_t old_g = partitioning.gid[subset[k]];
    if (dense_id[old_g] == UINT32_MAX) {
      dense_id[old_g] = static_cast<uint32_t>(new_groups.size());
      new_groups.emplace_back();
    }
    uint32_t g = dense_id[old_g];
    out.gid[k] = g;
    new_groups[g].push_back(static_cast<RowId>(k));
  }
  out.groups = std::move(new_groups);

  // Recompute radii over the subset.
  Status status;
  std::vector<size_t> cols =
      ResolveNumericColumns(sub, out.attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  out.radius.resize(out.groups.size());
  // One group per worker, serial float work within each (see
  // MakePartitioningFromGroups).
  ParallelIndexFor(out.groups.size(), threads, [&](size_t g) {
    std::vector<double> centroid = GroupCentroid(sub, out.groups[g], cols, 1);
    out.radius[g] = GroupRadius(sub, out.groups[g], cols, centroid);
  });
  PAQL_ASSIGN_OR_RETURN(out.representatives,
                        BuildRepresentatives(sub, out, threads));
  return out;
}

Result<double> RadiusLimitForEpsilon(const ColumnSource& table,
                                     const std::vector<std::string>& attributes,
                                     double epsilon, bool maximize) {
  if (epsilon < 0 || (maximize && epsilon >= 1)) {
    return Status::InvalidArgument(
        "epsilon must be >= 0 (and < 1 for maximization queries)");
  }
  Status status;
  std::vector<size_t> cols = ResolveNumericColumns(table, attributes, &status);
  PAQL_RETURN_IF_ERROR(status);
  double min_abs = std::numeric_limits<double>::infinity();
  for (size_t c : cols) {
    min_abs = std::min(min_abs, relation::ColumnMinAbs(table, c));
  }
  if (std::isinf(min_abs)) {
    return Status::InvalidArgument("empty table");
  }
  double gamma = maximize ? epsilon : epsilon / (1.0 + epsilon);
  return gamma * min_abs;
}

Status SavePartitioning(const Partitioning& partitioning,
                        const std::string& path_prefix) {
  // gid assignment as a single-column table.
  Table gid_table{Schema({{"gid", DataType::kInt64}})};
  gid_table.Reserve(partitioning.gid.size());
  for (uint32_t g : partitioning.gid) {
    gid_table.AppendRowUnchecked({Value(static_cast<int64_t>(g))});
  }
  PAQL_RETURN_IF_ERROR(
      relation::WriteCsv(gid_table, path_prefix + ".gid.csv"));
  return relation::WriteCsv(partitioning.representatives,
                            path_prefix + ".reps.csv");
}

Result<Partitioning> LoadPartitioning(const ColumnSource& table,
                                      const std::string& path_prefix) {
  PAQL_ASSIGN_OR_RETURN(Table gid_table,
                        relation::ReadCsv(path_prefix + ".gid.csv"));
  PAQL_ASSIGN_OR_RETURN(Table reps,
                        relation::ReadCsv(path_prefix + ".reps.csv"));
  if (gid_table.num_rows() != table.num_rows()) {
    return Status::InvalidArgument(
        StrCat("partitioning covers ", gid_table.num_rows(),
               " rows but the table has ", table.num_rows()));
  }
  Partitioning out;
  out.representatives = std::move(reps);
  out.gid.resize(table.num_rows());
  out.groups.resize(out.representatives.num_rows());
  for (RowId r = 0; r < table.num_rows(); ++r) {
    int64_t g = gid_table.GetInt64(r, 0);
    if (g < 0 || static_cast<size_t>(g) >= out.groups.size()) {
      return Status::InvalidArgument(StrCat("row ", r, " has bad gid ", g));
    }
    out.gid[r] = static_cast<uint32_t>(g);
    out.groups[static_cast<size_t>(g)].push_back(r);
  }
  out.radius.assign(out.groups.size(), 0.0);  // radii are not persisted
  out.size_threshold = out.max_group_size();
  out.radius_limit = std::numeric_limits<double>::infinity();
  return out;
}

}  // namespace paql::partition
