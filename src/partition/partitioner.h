// Offline data partitioning for SKETCHREFINE (Section 4.1 of the paper).
//
// The input relation is recursively split with a k-dimensional quad-tree:
// each oversized (or over-radius) group is divided into up to 2^k
// sub-quadrants around its centroid, until every group satisfies the size
// threshold tau and the radius limit omega. Each group's representative is
// its centroid. Representatives are stored in a representative relation
// R~(attr1..attrn, gid) whose row g corresponds to group g, mirroring the
// paper's construction.
//
// Two paper details are implemented faithfully:
//  * "no radius condition" mode (omega = +inf), which the paper uses for
//    most experiments;
//  * deriving partitionings for smaller dataset fractions by dropping rows
//    while keeping group boundaries (this preserves the size condition).
#ifndef PAQL_PARTITION_PARTITIONER_H_
#define PAQL_PARTITION_PARTITIONER_H_

#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/column_source.h"
#include "relation/table.h"

namespace paql::partition {

struct PartitionOptions {
  /// Partitioning attributes A (numeric columns of the input relation).
  std::vector<std::string> attributes;

  /// Size threshold tau: every group ends up with at most this many rows.
  size_t size_threshold = 0;

  /// Radius limit omega: max |representative.attr - tuple.attr| allowed
  /// within a group, per partitioning attribute. Infinity = no radius
  /// condition (the paper's default experimental setting).
  double radius_limit = std::numeric_limits<double>::infinity();

  /// Safety valve against pathological recursion.
  int max_depth = 64;

  /// Workers for the offline statistics (per-attribute centroids and
  /// radii, per-group representative rows, full-column min/max scans),
  /// drawn from the shared pool. <= 1 = serial. Parallelism is across
  /// independent statistics and across morsels of exactly-associative
  /// (min/max) folds only — order-sensitive float sums stay inside one
  /// worker — so the partitioning is bit-for-bit identical for any
  /// worker count.
  int threads = 1;
};

/// Sentinel gid for rows outside every group. Only deleted rows of a
/// versioned table (relation/table_version.h) may carry it: live rows are
/// always covered (MakePartitioningFromGroups enforces this).
inline constexpr uint32_t kNoGroup = UINT32_MAX;

/// The partitioning artifact P = {(G_j, t~_j)}.
struct Partitioning {
  std::vector<std::string> attributes;  // copy of the partitioning attrs
  size_t size_threshold = 0;
  double radius_limit = 0;

  /// Per-row group id, dense in [0, num_groups()); kNoGroup for deleted
  /// rows of a versioned table.
  std::vector<uint32_t> gid;

  /// Rows of each group.
  std::vector<std::vector<relation::RowId>> groups;

  /// Group radii over the partitioning attributes.
  std::vector<double> radius;

  /// Representative relation: same columns as the source table (numeric
  /// columns hold the group centroid, string columns are NULL) plus a
  /// trailing INT64 `gid` column. Row g is the representative of group g.
  relation::Table representatives;

  size_t num_groups() const { return groups.size(); }

  /// Largest group size (must be <= size_threshold).
  size_t max_group_size() const;

  /// True when every live row of `table` has a group: the row spaces
  /// match and no live row carries kNoGroup. A partitioning absorbed past
  /// a delete-only batch keeps the row count but fails this for the
  /// snapshot before the batch, where the deleted rows are still live.
  bool CoversLiveRows(const relation::ColumnSource& table) const;

  /// `rows` bucketed by group id (num_groups() buckets, input order kept
  /// within each). Fails with InvalidArgument on a row this partitioning
  /// does not cover — a snapshot it was not built or absorbed for.
  Result<std::vector<std::vector<relation::RowId>>> GroupRows(
      const std::vector<relation::RowId>& rows) const;
};

/// Partition `table` per `options`.
Result<Partitioning> PartitionTable(const relation::ColumnSource& table,
                                    const PartitionOptions& options);

/// Assemble a Partitioning artifact from an explicit group assignment:
/// computes gids, centroids, radii, and the representative relation. Groups
/// must be disjoint and cover every live row of `table` (deleted rows of a
/// versioned table may be left out; they get gid == kNoGroup). Shared by
/// all partitioning methods (quad tree, k-means, k-d tree, grid) so that
/// they produce interchangeable artifacts.
Result<Partitioning> MakePartitioningFromGroups(
    const relation::ColumnSource& table, const std::vector<std::string>& attributes,
    size_t size_threshold, double radius_limit,
    std::vector<std::vector<relation::RowId>> groups, int threads = 1);

/// MakePartitioningFromGroups for groups derived from `previous` (same
/// attributes, tau and omega) over a table whose first
/// previous.gid.size() rows are the rows `previous` was built on. Group g
/// with `inherited[g] != kNoGroup` must hold exactly the rows, in order, of
/// group inherited[g] of `previous`; it copies that group's radius and
/// representative row (gid cell rewritten to g) instead of recomputing
/// them. The result is bit-identical to MakePartitioningFromGroups on the
/// same groups whenever `previous` is itself such an artifact (built by
/// PartitionTable, MakePartitioningFromGroups or AbsorbBatch).
Result<Partitioning> RebuildPartitioningFromGroups(
    const relation::ColumnSource& table, const Partitioning& previous,
    std::vector<std::vector<relation::RowId>> groups,
    const std::vector<uint32_t>& inherited);

/// Restrict a partitioning to a row subset of the same table (used by the
/// scalability experiments, which shrink datasets to 10%..100%). Group
/// boundaries are preserved; centroids, radii, and sizes are recomputed on
/// the surviving rows; emptied groups are dropped. `subset` maps new row
/// ids to old ones: new table row k == old table row subset[k].
Result<Partitioning> ShrinkToSubset(const relation::ColumnSource& table,
                                    const Partitioning& partitioning,
                                    const std::vector<relation::RowId>& subset,
                                    int threads = 1);

/// Conservative radius limit for a target approximation factor epsilon
/// (Theorem 3, Eq. 1): omega = gamma * min over representatives and
/// attributes of |t~.attr|. Since representatives are unknown before
/// partitioning, this helper lower-bounds the formula with the minimum
/// absolute attribute value over the *tuples* (valid when each attribute
/// keeps a constant sign, which the guarantee-test workloads ensure).
/// gamma = epsilon for maximization, epsilon / (1 + epsilon) otherwise.
Result<double> RadiusLimitForEpsilon(const relation::ColumnSource& table,
                                     const std::vector<std::string>& attributes,
                                     double epsilon, bool maximize);

/// Persistence: gid assignment + representatives, as two CSV files.
Status SavePartitioning(const Partitioning& partitioning,
                        const std::string& path_prefix);
Result<Partitioning> LoadPartitioning(const relation::ColumnSource& table,
                                      const std::string& path_prefix);

}  // namespace paql::partition

#endif  // PAQL_PARTITION_PARTITIONER_H_
