#ifndef PARADISE_EXEC_OPERATORS_H_
#define PARADISE_EXEC_OPERATORS_H_

#include <vector>

#include "exec/exec_context.h"
#include "exec/expr.h"
#include "exec/tuple.h"

namespace paradise::exec {

/// Keeps tuples satisfying `predicate`.
StatusOr<TupleVec> Filter(const TupleVec& input, const ExprPtr& predicate,
                          const ExecContext& ctx);

/// Evaluates one expression per output column.
StatusOr<TupleVec> Project(const TupleVec& input,
                           const std::vector<ExprPtr>& exprs,
                           const ExecContext& ctx);

struct SortKey {
  size_t column = 0;
  bool ascending = true;
};

/// In-memory sort; charges n log n comparisons.
void SortTuples(TupleVec* tuples, const std::vector<SortKey>& keys,
                const ExecContext& ctx);

/// Tuple-at-a-time nested loops join with an arbitrary predicate over the
/// concatenated tuple.
StatusOr<TupleVec> NestedLoopsJoin(const TupleVec& left, const TupleVec& right,
                                   const ExprPtr& predicate,
                                   const ExecContext& ctx);

}  // namespace paradise::exec

#endif  // PARADISE_EXEC_OPERATORS_H_
