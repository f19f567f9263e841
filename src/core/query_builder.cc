#include "core/query_builder.h"

#include <cmath>

#include "common/logging.h"

namespace paradise::core {

using exec::CompareOp;
using exec::ExprPtr;
using exec::Tuple;
using exec::TupleVec;
using exec::Value;

Query Query::On(const ParallelTable* table) {
  Query q;
  q.table_ = table;
  return q;
}

Query&& Query::WhereStringEquals(size_t column, std::string value) && {
  SargPredicate p;
  p.kind = SargPredicate::kStringEq;
  p.column = column;
  p.string_value = std::move(value);
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::WhereIntEquals(size_t column, int64_t value) && {
  SargPredicate p;
  p.kind = SargPredicate::kIntEq;
  p.column = column;
  p.lo = value;
  p.hi = value;
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::WhereIntBetween(size_t column, int64_t lo, int64_t hi) && {
  SargPredicate p;
  p.kind = SargPredicate::kIntRange;
  p.column = column;
  p.lo = lo;
  p.hi = hi;
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::WhereDateBetween(size_t column, Date lo, Date hi) && {
  SargPredicate p;
  p.kind = SargPredicate::kIntRange;
  p.column = column;
  p.lo = lo.days_since_epoch();
  p.hi = hi.days_since_epoch();
  p.is_date = true;
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::WhereOverlaps(size_t column, geom::Polygon region) && {
  SargPredicate p;
  p.kind = SargPredicate::kOverlaps;
  p.column = column;
  p.region = std::move(region);
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::WhereWithinCircle(size_t column, geom::Circle circle) && {
  SargPredicate p;
  p.kind = SargPredicate::kWithinCircle;
  p.column = column;
  p.circle = circle;
  sargs_.push_back(std::move(p));
  return std::move(*this);
}

Query&& Query::Where(ExprPtr predicate) && {
  residuals_.push_back(std::move(predicate));
  return std::move(*this);
}

Query&& Query::SpatialJoinWith(const ParallelTable* right, size_t left_column,
                               size_t right_column) && {
  join_.right = right;
  join_.left_column = left_column;
  join_.right_column = right_column;
  return std::move(*this);
}

Query&& Query::Select(std::vector<ExprPtr> exprs) && {
  projection_ = std::move(exprs);
  return std::move(*this);
}

Query&& Query::GroupBy(std::vector<size_t> group_cols,
                       std::vector<exec::AggregatePtr> aggs) && {
  group_cols_ = std::move(group_cols);
  aggregates_ = std::move(aggs);
  has_aggregate_ = true;
  return std::move(*this);
}

Query&& Query::OrderBy(size_t column, bool ascending) && {
  order_by_ = exec::SortKey{column, ascending};
  return std::move(*this);
}

double Query::SargPredicate::EstimatedSelectivity(
    const ParallelTable& table) const {
  switch (kind) {
    case kStringEq:
      // Assume near-unique strings (names, ids).
      return 4.0 / std::max<double>(1.0, static_cast<double>(table.num_rows()));
    case kIntEq:
      return 1.0 / 16.0;  // categorical attributes in the benchmark schema
    case kIntRange: {
      double width = static_cast<double>(hi - lo + 1);
      return std::min(1.0, width / 4096.0);
    }
    case kOverlaps: {
      const geom::Box& u = table.def().universe;
      if (u.IsEmpty() || u.Area() <= 0) return 0.1;
      return std::min(1.0, region->Mbr().Area() / u.Area());
    }
    case kWithinCircle: {
      const geom::Box& u = table.def().universe;
      if (u.IsEmpty() || u.Area() <= 0) return 0.1;
      return std::min(1.0, circle->Mbr().Area() / u.Area());
    }
  }
  return 1.0;
}

ExprPtr Query::SargPredicate::AsExpr() const {
  switch (kind) {
    case kStringEq:
      return exec::Cmp(CompareOp::kEq, exec::Col(column),
                       exec::Lit(Value(string_value)));
    case kIntEq:
      return exec::Cmp(CompareOp::kEq, exec::Col(column),
                       exec::Lit(Value(lo)));
    case kIntRange: {
      Value vlo = is_date ? Value(Date(static_cast<int32_t>(lo))) : Value(lo);
      Value vhi = is_date ? Value(Date(static_cast<int32_t>(hi))) : Value(hi);
      return exec::And(exec::Cmp(CompareOp::kGe, exec::Col(column),
                                 exec::Lit(std::move(vlo))),
                       exec::Cmp(CompareOp::kLe, exec::Col(column),
                                 exec::Lit(std::move(vhi))));
    }
    case kOverlaps:
      return exec::Overlaps(exec::Col(column), exec::Lit(Value(*region)));
    case kWithinCircle:
      return exec::WithinCircle(exec::Col(column), *circle);
  }
  return nullptr;
}

namespace {

/// Coarse modeled-cost constants (seconds) for plan ranking only.
constexpr double kSeekSeconds = 0.011;
constexpr double kBytesPerSecond = 8e6;
constexpr double kOpsPerSecond = 90e6;
constexpr double kOpsPerTuple = 2000;  // deserialize + evaluate predicate

double ScanCostSeconds(const ParallelTable& table) {
  int nodes = std::max(1, table.num_fragments());
  double rows = static_cast<double>(table.num_stored()) / nodes;
  double bytes = table.avg_tuple_bytes() * rows;
  return kSeekSeconds + bytes / kBytesPerSecond +
         rows * kOpsPerTuple / kOpsPerSecond;
}

double ProbeCostSeconds(double matching_rows) {
  // Index descent plus fetches; matches cluster onto shared pages (the
  // buffer pool pays one read per page, spatial declustering keeps
  // matches of one region together).
  return kSeekSeconds * (2 + matching_rows / 16) +
         matching_rows * kOpsPerTuple / kOpsPerSecond;
}

}  // namespace

Query::AccessPath Query::ChooseAccessPath() const {
  AccessPath best;
  best.kind = AccessPath::kSeqScan;
  best.estimated_cost = ScanCostSeconds(*table_);

  // A predicate's date columns are stored as int keys in the B+-tree.
  for (const SargPredicate& p : sargs_) {
    const catalog::TableDef& def = table_->def();
    double rows = p.EstimatedSelectivity(*table_) *
                  static_cast<double>(table_->num_rows()) /
                  std::max(1, table_->num_fragments());
    switch (p.kind) {
      case SargPredicate::kStringEq:
      case SargPredicate::kIntEq:
      case SargPredicate::kIntRange: {
        if (def.FindIndexOn(p.column, /*spatial=*/false) == nullptr) break;
        double cost = ProbeCostSeconds(rows);
        if (cost < best.estimated_cost) {
          best.kind = AccessPath::kBTreeProbe;
          best.driver = &p;
          best.estimated_cost = cost;
        }
        break;
      }
      case SargPredicate::kOverlaps:
      case SargPredicate::kWithinCircle: {
        if (def.FindIndexOn(p.column, /*spatial=*/true) == nullptr) break;
        double cost = ProbeCostSeconds(rows);
        if (cost < best.estimated_cost) {
          best.kind = AccessPath::kRTreeProbe;
          best.driver = &p;
          best.estimated_cost = cost;
        }
        break;
      }
    }
  }
  return best;
}

double Query::EstimatedDriverRows() const {
  double sel = 1.0;
  for (const SargPredicate& p : sargs_) {
    sel *= p.EstimatedSelectivity(*table_);
  }
  return sel * static_cast<double>(table_->num_rows());
}

Query::JoinChoice Query::ChooseJoin(double outer_rows) const {
  JoinChoice jc = join_;
  if (jc.right == nullptr) return jc;
  bool inner_has_rtree = false;
  for (int n = 0; n < jc.right->num_fragments(); ++n) {
    if (jc.right->fragment(n).rtree != nullptr) inner_has_rtree = true;
  }
  // Replicating a small outer and probing the inner's index beats
  // redeclustering both sides while the outer stays small relative to
  // the inner ("the optimizer will consider replicating small outer
  // tables when an index exists on the join column of the inner table").
  double inner_rows = static_cast<double>(jc.right->num_rows());
  if (inner_has_rtree && outer_rows * 50.0 < inner_rows) {
    jc.algo = JoinChoice::kBroadcastIndexNL;
  } else {
    jc.algo = JoinChoice::kPbsm;
  }
  return jc;
}

StatusOr<PerNode> Query::ExecuteAccess(QueryCoordinator* coord,
                                       const AccessPath& path) const {
  // Residual predicate = every sarg except the driver, plus opaque ones.
  ExprPtr residual;
  auto add = [&](ExprPtr e) {
    residual = residual == nullptr ? e : exec::And(residual, e);
  };
  for (const SargPredicate& p : sargs_) {
    if (&p != path.driver) add(p.AsExpr());
  }
  for (const ExprPtr& e : residuals_) add(e);

  switch (path.kind) {
    case AccessPath::kSeqScan:
      return ParallelScan(coord, *table_, residual, {});
    case AccessPath::kBTreeProbe: {
      const SargPredicate& d = *path.driver;
      PerNode out;
      if (d.kind == SargPredicate::kStringEq) {
        PARADISE_ASSIGN_OR_RETURN(
            out, ParallelIndexSelectString(coord, *table_, d.column,
                                           d.string_value));
      } else {
        PARADISE_ASSIGN_OR_RETURN(
            out, ParallelIndexSelectIntRange(coord, *table_, d.column, d.lo,
                                             d.hi));
      }
      if (residual == nullptr) return out;
      // Apply the residual locally.
      Cluster* cluster = coord->cluster();
      PerNode filtered(cluster->num_nodes());
      PARADISE_RETURN_IF_ERROR(
          coord->RunPhase("residual filter", [&](int n) -> Status {
            NodeExecContext nc = MakeNodeContext(cluster, n);
            PARADISE_ASSIGN_OR_RETURN(filtered[n],
                                      exec::Filter(out[n], residual, nc.ctx));
            return Status::OK();
          }));
      return filtered;
    }
    case AccessPath::kRTreeProbe: {
      const SargPredicate& d = *path.driver;
      geom::Box probe = d.kind == SargPredicate::kOverlaps
                            ? d.region->Mbr()
                            : d.circle->Mbr();
      ExprPtr exact = d.AsExpr();
      if (residual != nullptr) exact = exec::And(exact, residual);
      return ParallelSpatialIndexSelect(coord, *table_, probe, exact);
    }
  }
  return Status::Internal("unreachable access path");
}

StatusOr<PerNode> Query::ExecuteJoin(QueryCoordinator* coord,
                                     const JoinChoice& jc,
                                     const PerNode& outer) const {
  if (jc.algo == JoinChoice::kBroadcastIndexNL) {
    return ParallelIndexSpatialJoin(
        coord, outer, *jc.right, jc.right_column,
        [&](const Tuple& o) { return o.at(jc.left_column); },
        [](const Tuple& o, const Tuple& inner) {
          Tuple joined;
          joined.values = o.values;
          joined.values.insert(joined.values.end(), inner.values.begin(),
                               inner.values.end());
          return joined;
        });
  }
  // PBSM: a spatially declustered inner is joined where it lies, with the
  // outer redeclustered onto its grid; otherwise both sides go to a fresh
  // grid.
  PARADISE_ASSIGN_OR_RETURN(PerNode inner,
                            ParallelScanAll(coord, *jc.right, nullptr));
  ParallelSpatialJoinOptions opts;
  opts.right_predeclustered =
      catalog::IsSpatialPartitioning(jc.right->def().partitioning);
  opts.two_layer =
      jc.right->def().partitioning == catalog::PartitioningKind::kTwoLayer;
  if (opts.right_predeclustered) opts.routing_grid = &jc.right->grid();
  geom::Box universe = jc.right->def().universe;
  if (universe.IsEmpty()) {
    for (const exec::TupleVec& v : outer) {
      for (const Tuple& t : v) {
        universe.ExpandToInclude(t.at(jc.left_column).Mbr());
      }
    }
    for (const exec::TupleVec& v : inner) {
      for (const Tuple& t : v) {
        universe.ExpandToInclude(t.at(jc.right_column).Mbr());
      }
    }
  }
  return ParallelSpatialJoin(coord, outer, jc.left_column, inner,
                             jc.right_column, universe, opts);
}

std::string Query::Explain() const {
  AccessPath path = ChooseAccessPath();
  std::string out = "plan for " + table_->def().name + ":\n";
  switch (path.kind) {
    case AccessPath::kSeqScan:
      out += "  access: parallel sequential scan";
      break;
    case AccessPath::kBTreeProbe:
      out += "  access: B+-tree probe on column " +
             std::to_string(path.driver->column);
      break;
    case AccessPath::kRTreeProbe:
      out += "  access: R*-tree probe on column " +
             std::to_string(path.driver->column);
      break;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), " (est. %.4f s/node)\n",
                path.estimated_cost);
  out += buf;
  size_t residual_count = residuals_.size() + sargs_.size() -
                          (path.driver != nullptr ? 1 : 0);
  if (residual_count > 0) {
    out += "  residual filter: " + std::to_string(residual_count) +
           " predicate(s)\n";
  }
  if (join_.right != nullptr) {
    JoinChoice jc = ChooseJoin(EstimatedDriverRows());
    out += std::string("  join: ") +
           (jc.algo == JoinChoice::kBroadcastIndexNL
                ? "broadcast outer + indexed nested loops"
                : "spatial redecluster + PBSM") +
           " with " + jc.right->def().name + "\n";
  }
  if (has_aggregate_) {
    out += "  aggregate: two-phase (local per node, global at coordinator)\n";
  } else if (!projection_.empty()) {
    out += "  project: " + std::to_string(projection_.size()) + " column(s)\n";
  }
  if (order_by_.has_value()) {
    out += "  sort at coordinator on column " +
           std::to_string(order_by_->column) + "\n";
  }
  return out;
}

StatusOr<TupleVec> Query::Run(QueryCoordinator* coord) && {
  if (table_ == nullptr) return Status::FailedPrecondition("no table");
  PARADISE_RETURN_IF_ERROR(coord->BeginQuery());

  AccessPath path = ChooseAccessPath();
  PARADISE_ASSIGN_OR_RETURN(PerNode rows, ExecuteAccess(coord, path));

  if (join_.right != nullptr) {
    JoinChoice jc = ChooseJoin(EstimatedDriverRows());
    PARADISE_ASSIGN_OR_RETURN(rows, ExecuteJoin(coord, jc, rows));
  }

  TupleVec gathered;
  if (has_aggregate_) {
    PARADISE_ASSIGN_OR_RETURN(
        gathered, ParallelAggregate(coord, rows, group_cols_, aggregates_));
  } else {
    if (!projection_.empty()) {
      Cluster* cluster = coord->cluster();
      PerNode projected(cluster->num_nodes());
      PARADISE_RETURN_IF_ERROR(
          coord->RunPhase("project", [&](int n) -> Status {
            NodeExecContext nc = MakeNodeContext(cluster, n);
            PARADISE_ASSIGN_OR_RETURN(
                projected[n], exec::Project(rows[n], projection_, nc.ctx));
            return Status::OK();
          }));
      rows = std::move(projected);
    }
    PARADISE_ASSIGN_OR_RETURN(gathered, Gather(coord, std::move(rows)));
  }
  if (order_by_.has_value()) {
    PARADISE_RETURN_IF_ERROR(coord->RunSequential("sort", [&]() -> Status {
      NodeExecContext cc = MakeCoordinatorContext(coord->cluster());
      exec::SortTuples(&gathered, {*order_by_}, cc.ctx);
      return Status::OK();
    }));
  }
  return gathered;
}

}  // namespace paradise::core
