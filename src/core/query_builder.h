#ifndef PARADISE_CORE_QUERY_BUILDER_H_
#define PARADISE_CORE_QUERY_BUILDER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel_ops.h"

namespace paradise::core {

/// A declarative query description over ParallelTables, and a small
/// cost-based optimizer that makes the physical decisions Section 2.4
/// describes:
///   - access path: sequential scan vs B+-tree probe vs R*-tree probe,
///     driven by the predicates and the catalog's index metadata;
///   - join algorithm: broadcast + indexed nested loops when one input is
///     small and the other has a spatial index, PBSM with spatial
///     redeclustering otherwise;
///   - aggregate placement: always two-phase (local per node, single
///     global operator at the coordinator).
///
/// Usage:
///   auto result = Query::On(&landCover)
///                     .WhereOverlaps(2, region)
///                     .WhereIntEquals(1, kOilField)
///                     .Select({exec::Col(0), exec::AreaOf(exec::Col(2))})
///                     .Run(&coord);
class Query {
 public:
  static Query On(const ParallelTable* table);

  /// Sargable predicates the optimizer understands. Several can be
  /// combined; the optimizer picks the most selective indexed one as the
  /// access path and applies the rest as residual filters.
  Query&& WhereStringEquals(size_t column, std::string value) &&;
  Query&& WhereIntEquals(size_t column, int64_t value) &&;
  Query&& WhereIntBetween(size_t column, int64_t lo, int64_t hi) &&;
  Query&& WhereDateBetween(size_t column, Date lo, Date hi) &&;
  Query&& WhereOverlaps(size_t column, geom::Polygon region) &&;
  Query&& WhereWithinCircle(size_t column, geom::Circle circle) &&;

  /// Opaque residual predicate (always evaluated after the access path).
  Query&& Where(exec::ExprPtr predicate) &&;

  /// Spatial join with another table on shape columns. The optimizer
  /// chooses indexed nested loops (broadcasting this query's — the
  /// outer's — rows) or a redeclustered PBSM join, by estimated cost.
  Query&& SpatialJoinWith(const ParallelTable* right, size_t left_column,
                          size_t right_column) &&;

  /// Projection applied after predicates (and after any join, over the
  /// concatenated tuple).
  Query&& Select(std::vector<exec::ExprPtr> exprs) &&;

  /// Two-phase grouped aggregation (terminal: replaces projection).
  Query&& GroupBy(std::vector<size_t> group_cols,
                  std::vector<exec::AggregatePtr> aggs) &&;

  /// Sorts the result at the coordinator on output column `column` — a
  /// position in the projection, or in [group keys..., aggregates...].
  Query&& OrderBy(size_t column, bool ascending = true) &&;

  /// The physical plan the optimizer chose, as text — inspect before
  /// running.
  std::string Explain() const;

  /// Optimizes, executes, and gathers the result at the coordinator.
  StatusOr<exec::TupleVec> Run(QueryCoordinator* coord) &&;

 private:
  Query() = default;

  struct SargPredicate {
    enum Kind {
      kStringEq,
      kIntEq,
      kIntRange,
      kOverlaps,
      kWithinCircle,
    } kind = kStringEq;
    size_t column = 0;
    std::string string_value;
    int64_t lo = 0, hi = 0;
    bool is_date = false;  // lo/hi are days-since-epoch
    std::optional<geom::Polygon> region;
    std::optional<geom::Circle> circle;

    /// Rough selectivity guess used for access-path ranking.
    double EstimatedSelectivity(const ParallelTable& table) const;
    exec::ExprPtr AsExpr() const;
  };

  struct AccessPath {
    enum Kind { kSeqScan, kBTreeProbe, kRTreeProbe } kind = kSeqScan;
    const SargPredicate* driver = nullptr;  // predicate the index serves
    double estimated_cost = 0.0;            // modeled seconds, coarse
  };

  struct JoinChoice {
    enum Algo { kNone, kBroadcastIndexNL, kPbsm } algo = kNone;
    const ParallelTable* right = nullptr;
    size_t left_column = 0;
    size_t right_column = 0;
  };

  AccessPath ChooseAccessPath() const;
  JoinChoice ChooseJoin(double outer_rows) const;
  double EstimatedDriverRows() const;

  StatusOr<PerNode> ExecuteAccess(QueryCoordinator* coord,
                                  const AccessPath& path) const;
  StatusOr<PerNode> ExecuteJoin(QueryCoordinator* coord, const JoinChoice& jc,
                                const PerNode& outer) const;

  const ParallelTable* table_ = nullptr;
  std::vector<SargPredicate> sargs_;
  std::vector<exec::ExprPtr> residuals_;
  JoinChoice join_;
  std::vector<exec::ExprPtr> projection_;
  std::vector<size_t> group_cols_;
  std::vector<exec::AggregatePtr> aggregates_;
  bool has_aggregate_ = false;
  std::optional<exec::SortKey> order_by_;
};

}  // namespace paradise::core

#endif  // PARADISE_CORE_QUERY_BUILDER_H_
