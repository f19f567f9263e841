#include "exec/operators.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/cost_model.h"

namespace paradise::exec {

StatusOr<TupleVec> Filter(const TupleVec& input, const ExprPtr& predicate,
                          const ExecContext& ctx) {
  TupleVec out;
  for (const Tuple& t : input) {
    ctx.ChargeCpu(sim::cpu_cost::kTupleOverhead);
    PARADISE_ASSIGN_OR_RETURN(bool keep, EvalPredicate(predicate, t, ctx));
    if (keep) out.push_back(t);
  }
  return out;
}

StatusOr<TupleVec> Project(const TupleVec& input,
                           const std::vector<ExprPtr>& exprs,
                           const ExecContext& ctx) {
  TupleVec out;
  out.reserve(input.size());
  for (const Tuple& t : input) {
    ctx.ChargeCpu(sim::cpu_cost::kTupleOverhead);
    Tuple o;
    o.values.reserve(exprs.size());
    for (const ExprPtr& e : exprs) {
      PARADISE_ASSIGN_OR_RETURN(Value v, e->Eval(t, ctx));
      o.values.push_back(std::move(v));
    }
    out.push_back(std::move(o));
  }
  return out;
}

void SortTuples(TupleVec* tuples, const std::vector<SortKey>& keys,
                const ExecContext& ctx) {
  if (tuples->size() > 1) {
    double n = static_cast<double>(tuples->size());
    ctx.ChargeCpu(n * std::log2(n) * sim::cpu_cost::kCompare *
                  static_cast<double>(keys.size()));
  }
  std::stable_sort(tuples->begin(), tuples->end(),
                   [&](const Tuple& a, const Tuple& b) {
                     for (const SortKey& k : keys) {
                       int c = a.at(k.column).Compare(b.at(k.column));
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
}

StatusOr<TupleVec> NestedLoopsJoin(const TupleVec& left, const TupleVec& right,
                                   const ExprPtr& predicate,
                                   const ExecContext& ctx) {
  TupleVec out;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      ctx.ChargeCpu(sim::cpu_cost::kTupleOverhead);
      Tuple joined;
      joined.values = l.values;
      joined.values.insert(joined.values.end(), r.values.begin(),
                           r.values.end());
      PARADISE_ASSIGN_OR_RETURN(bool keep,
                                EvalPredicate(predicate, joined, ctx));
      if (keep) out.push_back(std::move(joined));
    }
  }
  return out;
}

}  // namespace paradise::exec
