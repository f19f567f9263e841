#ifndef PARADISE_EXEC_JOIN_KERNEL_H_
#define PARADISE_EXEC_JOIN_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/tuple.h"
#include "geom/box.h"

namespace paradise::exec::join_kernel {

/// In-memory MBR join kernel (Tsitsigkos et al., "Parallel In-Memory
/// Evaluation of Spatial Joins"): struct-of-arrays MBR buffers, a
/// branch-light forward sweep that the compiler can vectorize, and batched
/// exact-geometry tests. The kernel is pure data-plane — it never touches
/// `Tuple`/`Value` or the cost model during the sweep; candidate pairs are
/// handed to a flush callback in deterministic order, and the exact tests
/// (with their CPU charges) run once per surviving pair in a second pass.

/// Column-major MBR storage for one join side: four contiguous coordinate
/// arrays plus nothing else, so a sweep touches 32 sequential bytes per
/// item instead of a 40-byte box-plus-ordinal record. Coordinates stay
/// `double` — the candidate set and the reference-point
/// duplicate-elimination decisions must agree with Box::Intersects
/// bit-for-bit, so no narrowing to float.
struct MbrColumns {
  std::vector<double> xlo, xhi, ylo, yhi;

  size_t size() const { return xlo.size(); }

  void Resize(size_t n) {
    xlo.resize(n);
    xhi.resize(n);
    ylo.resize(n);
    yhi.resize(n);
  }

  void Set(size_t i, const geom::Box& b) {
    xlo[i] = b.xmin;
    xhi[i] = b.xmax;
    ylo[i] = b.ymin;
    yhi[i] = b.ymax;
  }

  geom::Box BoxAt(size_t i) const {
    return geom::Box(xlo[i], ylo[i], xhi[i], yhi[i]);
  }
};

/// Row ordinals of `cols` argsorted by (xlo, ordinal) — the global sweep
/// order of one side. Runs an LSD radix sort on the order-preserving bit
/// image of the xlo doubles (sign-magnitude flipped to two's-complement
/// order; -0.0 canonicalized to +0.0 so the tie falls to the ordinal, as
/// a `double` comparison sort would tie it); byte positions whose value
/// is constant across the side are skipped. Radix passes are stable and
/// the input order is by ordinal, so equal keys come out ordinal-ordered.
/// Equivalent to std::sort over (xlo, ordinal) pairs, minus the branch
/// mispredicts a comparison sort pays on random coordinates.
std::vector<uint32_t> ArgsortByXlo(const MbrColumns& cols);

/// One sorted sweep input: SoA coordinates in (xlo, ordinal) order plus the
/// ordinal (source row) each position came from. The xlo array carries a
/// trailing +inf sentinel so the inner scan needs no bounds check.
class SweepSide {
 public:
  /// Gathers `rows[0..n)` out of `cols` and sorts by (xlo, ordinal).
  /// The ordinal tie-break makes the sweep's emission order a pure
  /// function of the data — equal xmin values are ordered by source row,
  /// not by whatever std::sort did with them (std::sort is unstable).
  void GatherSorted(const MbrColumns& cols, const uint32_t* rows, size_t n);

  /// GatherSorted minus the sort: `rows` is already in (xlo, ordinal)
  /// order (e.g. a stable counting sort over a globally argsorted side),
  /// so the gather is a straight copy.
  void GatherPresorted(const MbrColumns& cols, const uint32_t* rows,
                       size_t n);

  size_t size() const { return ord_.size(); }
  /// xlo() has size()+1 entries; xlo()[size()] == +inf.
  const double* xlo() const { return xlo_.data(); }
  const double* xhi() const { return xhi_.data(); }
  const double* ylo() const { return ylo_.data(); }
  const double* yhi() const { return yhi_.data(); }
  uint32_t ordinal(size_t pos) const { return ord_[pos]; }

 private:
  std::vector<double> xlo_, xhi_, ylo_, yhi_;
  std::vector<uint32_t> ord_;
  std::vector<std::pair<double, uint32_t>> sort_scratch_;
};

/// A candidate pair, as *positions* into the two sorted sweep sides (the
/// flush callback maps positions back to ordinals / coordinates).
struct Candidate {
  uint32_t left_pos;
  uint32_t right_pos;
};

/// Bounded candidate buffer between the sweep and the exact-test pass.
/// Push is branch-light: it stores unconditionally and bumps the count by
/// `keep`, so the sweep's rarely-taken y-overlap hit costs no branch
/// mispredict. Flushes fire whenever the buffer fills and once more at the
/// caller's final Flush() — the flush boundaries are a pure function of
/// the candidate sequence, so charges replayed inside the callback land in
/// the same order at any thread count.
class CandidateBatch {
 public:
  using FlushFn = std::function<void(const Candidate*, size_t)>;

  CandidateBatch(size_t capacity, FlushFn flush)
      : cap_(capacity == 0 ? 1 : capacity), flush_(std::move(flush)) {
    buf_.resize(cap_);
  }

  void Push(uint32_t left_pos, uint32_t right_pos, bool keep) {
    buf_[n_] = Candidate{left_pos, right_pos};
    n_ += keep;
    if (n_ == cap_) Flush();
  }

  void Flush() {
    if (n_ == 0) return;
    flush_(buf_.data(), n_);
    n_ = 0;
  }

  size_t capacity() const { return cap_; }

 private:
  size_t cap_;
  size_t n_ = 0;
  std::vector<Candidate> buf_;
  FlushFn flush_;
};

/// Default batch size: 4096 pairs = 32 KiB of Candidate — fits L1/L2
/// comfortably while amortizing the flush callback to nothing.
inline constexpr size_t kCandidateBatchSize = 4096;

/// Forward plane sweep over two sorted sides. Emits every pair whose MBRs
/// intersect into `batch` (via Push) and returns the number of x-encounter
/// pair compares performed, so the caller can charge `compares * kCompare`
/// in one op.
///
/// The inner scan is y-only flat-array compares: the sweep order already
/// guarantees x-overlap for every pair the scan visits, and the +inf
/// sentinel removes the bounds check, so the loop is a vectorizable
/// compare-and-compress over contiguous doubles. Empty MBRs (+inf lo,
/// -inf hi) fall out naturally: they terminate or never enter scans and
/// fail every y test.
int64_t SweepForCandidates(const SweepSide& left, const SweepSide& right,
                           CandidateBatch* batch);

/// A surviving candidate pair, as source-row ordinals.
struct OrdinalPair {
  uint32_t left_row;
  uint32_t right_row;
};

/// Batched exact-geometry pass: for each pair, charges the per-segment
/// test CPU and runs the exact `overlaps` dispatch (the pair's MBRs are
/// already known to intersect — the sweep established that), then
/// materializes hits as left⧺right tuples appended to `out`. Charge
/// sequence and output order are exactly the per-pair interleaved path's.
Status ExactJoinBatch(const TupleVec& left, size_t left_col,
                      const TupleVec& right, size_t right_col,
                      const OrdinalPair* pairs, size_t count,
                      const ExecContext& ctx, TupleVec* out);

}  // namespace paradise::exec::join_kernel

#endif  // PARADISE_EXEC_JOIN_KERNEL_H_
