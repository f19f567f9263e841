#ifndef PARADISE_EXEC_AGGREGATE_H_
#define PARADISE_EXEC_AGGREGATE_H_

#include <any>
#include <memory>
#include <vector>

#include "exec/exec_context.h"
#include "exec/expr.h"
#include "exec/tuple.h"

namespace paradise::exec {

/// Extensible aggregate defined by a *local* and a *global* function
/// (Section 2.4): the local function folds tuples into a partial state on
/// each node during phase one; the global function merges partial states
/// during phase two. A new aggregate (e.g. `closest` for the point ADT) is
/// one more subclass: the scheduler and execution engine only ever call
/// these functions, so neither changes.
///
/// Partial states must cross node boundaries, so every aggregate can
/// round-trip its state through plain Values (SaveState/LoadState).
class Aggregate {
 public:
  virtual ~Aggregate() = default;

  virtual std::any Init() const = 0;

  /// Phase 1: fold one input tuple into the state.
  virtual Status Local(std::any* state, const Tuple& tuple,
                       const ExecContext& ctx) const = 0;

  /// Phase 2: merge another partial state into `acc`.
  virtual Status Global(std::any* acc, const std::any& partial) const = 0;

  /// Final result columns this aggregate contributes.
  virtual StatusOr<std::vector<Value>> Final(const std::any& state) const = 0;
  virtual size_t FinalWidth() const { return 1; }

  /// State (de)marshalling for shipping partials between nodes.
  virtual std::vector<Value> SaveState(const std::any& state) const = 0;
  virtual std::any LoadState(const std::vector<Value>& values,
                             size_t* cursor) const = 0;
  virtual size_t StateWidth() const = 0;
};

using AggregatePtr = std::shared_ptr<const Aggregate>;

// ---- The standard SQL aggregates ----

AggregatePtr MakeCount();
AggregatePtr MakeSum(ExprPtr input);
AggregatePtr MakeAvg(ExprPtr input);
AggregatePtr MakeMin(ExprPtr input);
AggregatePtr MakeMax(ExprPtr input);

/// The spatial aggregate `closest(shape, POINT)` (Queries 11-12): keeps
/// the input tuple's shape with the minimum distance to `point`. Final()
/// yields [shape, distance].
AggregatePtr MakeClosest(ExprPtr shape, geom::Point point);

// ---- The two-phase (partitioned) aggregation operators ----

/// Phase 1 on one node: groups `input` by `group_cols` and folds every
/// aggregate. Output tuples: [group values..., agg states...] — suitable
/// for redistribution by group key.
StatusOr<std::vector<Tuple>> AggregateLocal(
    const std::vector<Tuple>& input, const std::vector<size_t>& group_cols,
    const std::vector<AggregatePtr>& aggs, const ExecContext& ctx);

/// Phase 2: merges partial tuples produced by AggregateLocal (possibly
/// from many nodes). Output tuples: [group values..., final values...].
StatusOr<std::vector<Tuple>> AggregateGlobal(
    const std::vector<Tuple>& partials, size_t num_group_cols,
    const std::vector<AggregatePtr>& aggs, const ExecContext& ctx);

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_AGGREGATE_H_
