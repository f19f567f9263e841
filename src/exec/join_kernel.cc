#include "exec/join_kernel.h"

#include "common/logging.h"
#include "exec/expr.h"
#include "sim/cost_model.h"

namespace paradise::exec::join_kernel {

namespace {

/// Order-preserving bit image of a double: negatives reverse (flip all
/// bits), non-negatives shift above them (set the sign bit). The +0.0
/// turns -0.0 into +0.0 first, so the two zeros share one image and their
/// tie falls to the ordinal, exactly as comparing the doubles would.
uint64_t OrderedBits(double d) {
  d += 0.0;
  uint64_t u;
  static_assert(sizeof(u) == sizeof(d));
  __builtin_memcpy(&u, &d, sizeof(u));
  return (u >> 63) ? ~u : (u | 0x8000000000000000ull);
}

}  // namespace

std::vector<uint32_t> ArgsortByXlo(const MbrColumns& cols) {
  const size_t n = cols.size();
  std::vector<uint32_t> order(n);
  if (n == 0) return order;
  // Radix passes run on the high 32 bits only — that is sign, exponent,
  // and the top 20 mantissa bits, which already orders any two keys that
  // are not nearly identical. Runs of equal high words (rare for real
  // coordinates, common for degenerate all-equal inputs) are finished
  // with a comparison sort on the full key below.
  struct Item {
    uint32_t key_hi;
    uint32_t ord;
  };
  std::vector<Item> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = {static_cast<uint32_t>(OrderedBits(cols.xlo[i]) >> 32),
            static_cast<uint32_t>(i)};
  }
  Item* src = a.data();
  Item* dst = b.data();
  for (int shift = 0; shift < 32; shift += 8) {
    uint32_t hist[256] = {0};
    for (size_t i = 0; i < n; ++i) ++hist[(src[i].key_hi >> shift) & 0xff];
    if (hist[(src[0].key_hi >> shift) & 0xff] == n) continue;  // constant
    uint32_t sum = 0;
    for (uint32_t& h : hist) {
      uint32_t c = h;
      h = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[hist[(src[i].key_hi >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  // LSD radix is stable and the input was in ordinal order, so inside an
  // equal-high-word run the full (key, ordinal) sort below starts from
  // ordinal order and only reorders when low mantissa bits differ.
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && src[j].key_hi == src[i].key_hi) ++j;
    if (j - i > 1) {
      std::sort(src + i, src + j, [&cols](const Item& x, const Item& y) {
        const uint64_t kx = OrderedBits(cols.xlo[x.ord]);
        const uint64_t ky = OrderedBits(cols.xlo[y.ord]);
        if (kx != ky) return kx < ky;
        return x.ord < y.ord;
      });
    }
    i = j;
  }
  for (size_t i = 0; i < n; ++i) order[i] = src[i].ord;
  return order;
}

void SweepSide::GatherSorted(const MbrColumns& cols, const uint32_t* rows,
                             size_t n) {
  sort_scratch_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sort_scratch_[i] = {cols.xlo[rows[i]], rows[i]};
  }
  // (xlo, ordinal) pairs: operator< on std::pair gives the tie-break.
  std::sort(sort_scratch_.begin(), sort_scratch_.end());

  xlo_.resize(n + 1);
  xhi_.resize(n);
  ylo_.resize(n);
  yhi_.resize(n);
  ord_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = sort_scratch_[i].second;
    xlo_[i] = sort_scratch_[i].first;
    xhi_[i] = cols.xhi[row];
    ylo_[i] = cols.ylo[row];
    yhi_[i] = cols.yhi[row];
    ord_[i] = row;
  }
  xlo_[n] = std::numeric_limits<double>::infinity();  // scan sentinel
}

void SweepSide::GatherPresorted(const MbrColumns& cols, const uint32_t* rows,
                                size_t n) {
  xlo_.resize(n + 1);
  xhi_.resize(n);
  ylo_.resize(n);
  yhi_.resize(n);
  ord_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows[i];
    xlo_[i] = cols.xlo[row];
    xhi_[i] = cols.xhi[row];
    ylo_[i] = cols.ylo[row];
    yhi_[i] = cols.yhi[row];
    ord_[i] = row;
  }
  xlo_[n] = std::numeric_limits<double>::infinity();  // scan sentinel
}

int64_t SweepForCandidates(const SweepSide& left, const SweepSide& right,
                           CandidateBatch* batch) {
  const size_t nl = left.size();
  const size_t nr = right.size();
  if (nl == 0 || nr == 0) return 0;
  const double* lxlo = left.xlo();
  const double* lxhi = left.xhi();
  const double* lylo = left.ylo();
  const double* lyhi = left.yhi();
  const double* rxlo = right.xlo();
  const double* rxhi = right.xhi();
  const double* rylo = right.ylo();
  const double* ryhi = right.yhi();

  int64_t compares = 0;
  size_t i = 0, j = 0;
  while (i < nl && j < nr) {
    if (lxlo[i] <= rxlo[j]) {
      // Scan right items starting at j while their xlo is under left[i]'s
      // xhi. Every pair visited x-overlaps by construction, so the hit
      // test is y-only — two flat compares over contiguous arrays.
      const double xhi = lxhi[i];
      const double ylo = lylo[i];
      const double yhi = lyhi[i];
      const uint32_t lpos = static_cast<uint32_t>(i);
      size_t k = j;
      for (; rxlo[k] <= xhi; ++k) {
        const bool hit = (rylo[k] <= yhi) & (ylo <= ryhi[k]);
        batch->Push(lpos, static_cast<uint32_t>(k), hit);
      }
      compares += static_cast<int64_t>(k - j);
      ++i;
    } else {
      const double xhi = rxhi[j];
      const double ylo = rylo[j];
      const double yhi = ryhi[j];
      const uint32_t rpos = static_cast<uint32_t>(j);
      size_t k = i;
      for (; lxlo[k] <= xhi; ++k) {
        const bool hit = (lylo[k] <= yhi) & (ylo <= lyhi[k]);
        batch->Push(static_cast<uint32_t>(k), rpos, hit);
      }
      compares += static_cast<int64_t>(k - i);
      ++j;
    }
  }
  return compares;
}

Status ExactJoinBatch(const TupleVec& left, size_t left_col,
                      const TupleVec& right, size_t right_col,
                      const OrdinalPair* pairs, size_t count,
                      const ExecContext& ctx, TupleVec* out) {
  // The batch's per-segment test CPU lands as one charge after the loop:
  // kPerSegmentTest is integer-valued, so the sum over the batch is
  // exactly the per-pair charge sequence's total (see
  // ExecContext::ChargeCpuOps), and a clock only ever reports totals.
  // The candidate list makes upcoming accesses known ahead of time, so the
  // pointer chains (tuple -> values -> shared geometry -> point array) are
  // staged into cache before the test needs them. Pure prefetch: no
  // observable effect beyond wall clock.
  const auto prefetch_tuples = [&](size_t idx) {
    __builtin_prefetch(left[pairs[idx].left_row].values.data());
    __builtin_prefetch(right[pairs[idx].right_row].values.data());
  };
  const auto prefetch_geoms = [&](size_t idx) {
    const Value& lv = left[pairs[idx].left_row].at(left_col);
    const Value& rv = right[pairs[idx].right_row].at(right_col);
    if (lv.type() == ValueType::kPolyline) {
      __builtin_prefetch(lv.AsPolyline().get());
    }
    if (rv.type() == ValueType::kPolyline) {
      __builtin_prefetch(rv.AsPolyline().get());
    }
  };
  const auto prefetch_points = [&](size_t idx) {
    const Value& lv = left[pairs[idx].left_row].at(left_col);
    const Value& rv = right[pairs[idx].right_row].at(right_col);
    if (lv.type() == ValueType::kPolyline) {
      __builtin_prefetch(lv.AsPolyline()->points().data());
    }
    if (rv.type() == ValueType::kPolyline) {
      __builtin_prefetch(rv.AsPolyline()->points().data());
    }
  };
  constexpr size_t kTupleDist = 8, kGeomDist = 4, kPointsDist = 2;
  for (size_t idx = 0; idx < std::min(count, kTupleDist); ++idx) {
    prefetch_tuples(idx);
    if (idx < kGeomDist) prefetch_geoms(idx);
  }
  int64_t total_segments = 0;
  for (size_t idx = 0; idx < count; ++idx) {
    if (idx + kTupleDist < count) prefetch_tuples(idx + kTupleDist);
    if (idx + kGeomDist < count) prefetch_geoms(idx + kGeomDist);
    if (idx + kPointsDist < count) prefetch_points(idx + kPointsDist);
    const Tuple& lt = left[pairs[idx].left_row];
    const Tuple& rt = right[pairs[idx].right_row];
    const Value& lv = lt.at(left_col);
    const Value& rv = rt.at(right_col);
    total_segments += static_cast<int64_t>(SpatialSegmentCount(lv) +
                                           SpatialSegmentCount(rv));
    PARADISE_ASSIGN_OR_RETURN(bool hit, SpatialIntersectsExact(lv, rv, ctx));
    if (!hit) continue;
    Tuple joined;
    joined.values.reserve(lt.values.size() + rt.values.size());
    joined.values.insert(joined.values.end(), lt.values.begin(),
                         lt.values.end());
    joined.values.insert(joined.values.end(), rt.values.begin(),
                         rt.values.end());
    out->push_back(std::move(joined));
  }
  ctx.ChargeCpuOps(total_segments, sim::cpu_cost::kPerSegmentTest);
  return Status::OK();
}

}  // namespace paradise::exec::join_kernel
