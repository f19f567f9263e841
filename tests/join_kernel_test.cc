#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/join_kernel.h"
#include "geom/polyline.h"

namespace paradise::exec::join_kernel {
namespace {

using geom::Box;
using geom::Point;
using geom::Polyline;

using Pair = std::pair<uint32_t, uint32_t>;

MbrColumns ColumnsOf(const std::vector<Box>& boxes) {
  MbrColumns cols;
  cols.Resize(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) cols.Set(i, boxes[i]);
  return cols;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

/// All MBR-intersecting pairs via the SoA sweep, as (left ordinal, right
/// ordinal) in emission order. `cap` sets the candidate-batch capacity so
/// tests can force flush boundaries mid-sweep.
struct SweepRun {
  std::vector<Pair> pairs;
  std::vector<size_t> flush_sizes;
  int64_t compares = 0;
};

SweepRun RunSoa(const MbrColumns& lcols, const MbrColumns& rcols, size_t cap) {
  SweepSide ls, rs;
  const std::vector<uint32_t> lrows = Iota(lcols.size());
  const std::vector<uint32_t> rrows = Iota(rcols.size());
  ls.GatherSorted(lcols, lrows.data(), lrows.size());
  rs.GatherSorted(rcols, rrows.data(), rrows.size());
  SweepRun run;
  CandidateBatch batch(cap, [&](const Candidate* c, size_t n) {
    run.flush_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) {
      run.pairs.emplace_back(ls.ordinal(c[i].left_pos),
                             rs.ordinal(c[i].right_pos));
    }
  });
  run.compares = SweepForCandidates(ls, rs, &batch);
  batch.Flush();
  return run;
}

/// Reference sweep for the differential tests: the array-of-structs layout
/// with Box::Intersects per x-encounter, the sweep the SoA kernel replaced.
/// The SoA kernel must emit the same candidate sequence and count the same
/// compares.
struct AosItem {
  Box box;
  uint32_t ordinal;
};

/// Sorts `items` by (box.xmin, ordinal) — the AoS mirror of GatherSorted.
void SortAosByXmin(std::vector<AosItem>* items) {
  std::sort(items->begin(), items->end(),
            [](const AosItem& a, const AosItem& b) {
              if (a.box.xmin != b.box.xmin) return a.box.xmin < b.box.xmin;
              return a.ordinal < b.ordinal;
            });
}

/// AoS mirror of SweepForCandidates over pre-sorted item vectors.
int64_t SweepForCandidatesAos(const std::vector<AosItem>& left,
                              const std::vector<AosItem>& right,
                              CandidateBatch* batch) {
  int64_t compares = 0;
  size_t i = 0, j = 0;
  while (i < left.size() && j < right.size()) {
    if (left[i].box.xmin <= right[j].box.xmin) {
      for (size_t k = j;
           k < right.size() && right[k].box.xmin <= left[i].box.xmax; ++k) {
        ++compares;
        batch->Push(static_cast<uint32_t>(i), static_cast<uint32_t>(k),
                    left[i].box.Intersects(right[k].box));
      }
      ++i;
    } else {
      for (size_t k = i;
           k < left.size() && left[k].box.xmin <= right[j].box.xmax; ++k) {
        ++compares;
        batch->Push(static_cast<uint32_t>(k), static_cast<uint32_t>(j),
                    left[k].box.Intersects(right[j].box));
      }
      ++j;
    }
  }
  return compares;
}

SweepRun RunAos(const MbrColumns& lcols, const MbrColumns& rcols, size_t cap) {
  std::vector<AosItem> litems(lcols.size()), ritems(rcols.size());
  for (size_t i = 0; i < lcols.size(); ++i) {
    litems[i] = {lcols.BoxAt(i), static_cast<uint32_t>(i)};
  }
  for (size_t i = 0; i < rcols.size(); ++i) {
    ritems[i] = {rcols.BoxAt(i), static_cast<uint32_t>(i)};
  }
  SortAosByXmin(&litems);
  SortAosByXmin(&ritems);
  SweepRun run;
  CandidateBatch batch(cap, [&](const Candidate* c, size_t n) {
    run.flush_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) {
      run.pairs.emplace_back(litems[c[i].left_pos].ordinal,
                             ritems[c[i].right_pos].ordinal);
    }
  });
  run.compares = SweepForCandidatesAos(litems, ritems, &batch);
  batch.Flush();
  return run;
}

std::vector<Pair> BruteForce(const std::vector<Box>& left,
                             const std::vector<Box>& right) {
  std::vector<Pair> out;
  for (uint32_t i = 0; i < left.size(); ++i) {
    for (uint32_t j = 0; j < right.size(); ++j) {
      if (left[i].Intersects(right[j])) out.emplace_back(i, j);
    }
  }
  return out;
}

std::vector<Pair> Sorted(std::vector<Pair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Box> RandomBoxes(Rng* rng, int n, double extent, double max_size) {
  std::vector<Box> out;
  for (int i = 0; i < n; ++i) {
    double x = rng->NextDouble(-extent, extent);
    double y = rng->NextDouble(-extent, extent);
    double w = rng->NextDouble(0, max_size);
    double h = rng->NextDouble(0, max_size);
    out.push_back(Box(x, y, x + w, y + h));
  }
  return out;
}

TEST(ArgsortByXloTest, MatchesStableSortOnDuplicatesAndSignedZeros) {
  // A stable sort by xlo alone, over rows in ordinal order, is exactly the
  // (xlo, ordinal) order the kernel promises. Keys are drawn from a small
  // lattice so duplicates are everywhere, and ±0.0 are both planted —
  // their bit images differ but they must tie (and so order by ordinal).
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<Box> boxes;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
      double x = static_cast<double>(rng.NextInt(-8, 8)) * 0.25;
      if (x == 0.0 && rng.NextUint(2) == 0) x = -0.0;
      // Occasionally a nearly-equal key: same high 32 bits, different low
      // mantissa bits, to exercise the radix tie-fix pass.
      if (rng.NextUint(16) == 0) x += 1e-13;
      boxes.push_back(Box(x, 0, x + 1, 1));
    }
    MbrColumns cols = ColumnsOf(boxes);

    std::vector<uint32_t> expected = Iota(boxes.size());
    std::stable_sort(expected.begin(), expected.end(),
                     [&cols](uint32_t a, uint32_t b) {
                       return cols.xlo[a] < cols.xlo[b];
                     });
    EXPECT_EQ(ArgsortByXlo(cols), expected) << "seed " << seed;
  }
}

TEST(ArgsortByXloTest, EmptyAndSingleAndAllEqual) {
  EXPECT_TRUE(ArgsortByXlo(MbrColumns{}).empty());
  EXPECT_EQ(ArgsortByXlo(ColumnsOf({Box(3, 0, 4, 1)})),
            std::vector<uint32_t>({0}));
  // All-identical keys: every radix byte is constant (all passes skip) and
  // the result must be pure ordinal order.
  std::vector<Box> same(257, Box(7.5, 0, 8, 1));
  EXPECT_EQ(ArgsortByXlo(ColumnsOf(same)), Iota(same.size()));
}

TEST(SweepSideTest, GatherPresortedMatchesGatherSorted) {
  Rng rng(11);
  std::vector<Box> boxes = RandomBoxes(&rng, 500, 50, 3);
  MbrColumns cols = ColumnsOf(boxes);
  const std::vector<uint32_t> order = ArgsortByXlo(cols);

  SweepSide sorted, presorted;
  const std::vector<uint32_t> rows = Iota(boxes.size());
  sorted.GatherSorted(cols, rows.data(), rows.size());
  presorted.GatherPresorted(cols, order.data(), order.size());

  ASSERT_EQ(sorted.size(), presorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted.ordinal(i), presorted.ordinal(i)) << "pos " << i;
    EXPECT_EQ(sorted.xlo()[i], presorted.xlo()[i]);
    EXPECT_EQ(sorted.xhi()[i], presorted.xhi()[i]);
    EXPECT_EQ(sorted.ylo()[i], presorted.ylo()[i]);
    EXPECT_EQ(sorted.yhi()[i], presorted.yhi()[i]);
  }
  EXPECT_EQ(sorted.xlo()[sorted.size()],
            std::numeric_limits<double>::infinity());
}

TEST(SweepTest, RandomizedDifferentialAgainstBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed * 13 + 1);
    std::vector<Box> left = RandomBoxes(&rng, 160, 20, 4);
    std::vector<Box> right = RandomBoxes(&rng, 140, 20, 4);
    MbrColumns lcols = ColumnsOf(left), rcols = ColumnsOf(right);

    SweepRun soa = RunSoa(lcols, rcols, kCandidateBatchSize);
    SweepRun aos = RunAos(lcols, rcols, kCandidateBatchSize);
    std::vector<Pair> expected = BruteForce(left, right);

    EXPECT_EQ(Sorted(soa.pairs), Sorted(expected)) << "seed " << seed;
    // The SoA kernel keeps the reference sweep's emission *sequence*, not
    // just its set, and its compare count (it is charged to the clock).
    EXPECT_EQ(soa.pairs, aos.pairs) << "seed " << seed;
    EXPECT_EQ(soa.compares, aos.compares) << "seed " << seed;
  }
}

TEST(SweepTest, DegenerateAndZeroAreaMbrs) {
  // Zero-width, zero-height, and point MBRs, many sharing coordinates
  // exactly: touching edges count as intersecting (closed boxes), and the
  // sweep must agree with Box::Intersects on every such boundary case.
  std::vector<Box> left = {
      Box(0, 0, 0, 5),   // vertical segment at x=0
      Box(0, 0, 5, 0),   // horizontal segment at y=0
      Box(2, 2, 2, 2),   // point
      Box(5, 0, 5, 5),   // vertical segment at x=5 (touches right edges)
      Box(-3, -3, -3, -3),
  };
  std::vector<Box> right = {
      Box(0, 0, 0, 0),    // point at origin: touches segments
      Box(2, 2, 2, 2),    // point equal to left[2]
      Box(0, 0, 5, 5),    // square containing everything
      Box(5, 5, 5, 9),    // touches the square's corner only
      Box(-10, -10, -4, -4),
  };
  MbrColumns lcols = ColumnsOf(left), rcols = ColumnsOf(right);
  SweepRun soa = RunSoa(lcols, rcols, kCandidateBatchSize);
  SweepRun aos = RunAos(lcols, rcols, kCandidateBatchSize);
  EXPECT_EQ(Sorted(soa.pairs), Sorted(BruteForce(left, right)));
  EXPECT_EQ(soa.pairs, aos.pairs);
}

TEST(SweepTest, AllIdenticalXminIsFullCross) {
  // Every MBR shares xmin (the sort is all ties, broken by ordinal) and
  // all boxes y-overlap: the sweep must emit the full n*m cross product,
  // and its order must be the deterministic (xlo, ordinal) order.
  std::vector<Box> left(7, Box(1, 0, 3, 10));
  std::vector<Box> right(5, Box(1, 2, 2, 8));
  MbrColumns lcols = ColumnsOf(left), rcols = ColumnsOf(right);
  SweepRun soa = RunSoa(lcols, rcols, kCandidateBatchSize);
  EXPECT_EQ(soa.pairs.size(), left.size() * right.size());
  EXPECT_EQ(Sorted(soa.pairs), Sorted(BruteForce(left, right)));
  EXPECT_EQ(soa.pairs, RunAos(lcols, rcols, kCandidateBatchSize).pairs);
}

TEST(SweepTest, EmptySidesEmitNothing) {
  MbrColumns empty;
  MbrColumns some = ColumnsOf({Box(0, 0, 1, 1)});
  EXPECT_TRUE(RunSoa(empty, some, 8).pairs.empty());
  EXPECT_TRUE(RunSoa(some, empty, 8).pairs.empty());
  EXPECT_TRUE(RunSoa(empty, empty, 8).pairs.empty());
  EXPECT_EQ(RunSoa(empty, some, 8).compares, 0);
}

TEST(SweepTest, EmptyBoxesNeverMatch) {
  // Default-constructed (empty) boxes carry inverted ±inf bounds; they
  // must produce no candidates against anything, including each other.
  std::vector<Box> left = {Box(), Box(0, 0, 4, 4), Box()};
  std::vector<Box> right = {Box(1, 1, 2, 2), Box()};
  MbrColumns lcols = ColumnsOf(left), rcols = ColumnsOf(right);
  SweepRun soa = RunSoa(lcols, rcols, kCandidateBatchSize);
  EXPECT_EQ(Sorted(soa.pairs), Sorted(BruteForce(left, right)));
  EXPECT_EQ(soa.pairs, std::vector<Pair>({{1, 0}}));
}

TEST(CandidateBatchTest, FlushBoundariesPartitionTheSequence) {
  // Capacity 3 with 8 hits: flushes must fire at exactly 3, 3, then the
  // final Flush() delivers the remaining 2 — and misses (keep=false) at
  // any position, including one landing exactly on a boundary, must not
  // show up or shift the split.
  std::vector<Pair> got;
  std::vector<size_t> flush_sizes;
  CandidateBatch batch(3, [&](const Candidate* c, size_t n) {
    flush_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) got.emplace_back(c[i].left_pos, c[i].right_pos);
  });
  std::vector<Pair> expected;
  for (uint32_t i = 0; i < 12; ++i) {
    const bool keep = (i % 3) != 2;  // drop every third push
    batch.Push(i, 100 + i, keep);
    if (keep) expected.emplace_back(i, 100 + i);
  }
  ASSERT_EQ(expected.size(), 8u);
  EXPECT_EQ(flush_sizes, std::vector<size_t>({3, 3}));
  batch.Flush();
  EXPECT_EQ(flush_sizes, std::vector<size_t>({3, 3, 2}));
  EXPECT_EQ(got, expected);
  batch.Flush();  // empty: must not call the callback again
  EXPECT_EQ(flush_sizes.size(), 3u);
}

TEST(CandidateBatchTest, ZeroCapacityClampsToOne) {
  size_t flushes = 0;
  CandidateBatch batch(0, [&](const Candidate*, size_t n) {
    EXPECT_EQ(n, 1u);
    ++flushes;
  });
  EXPECT_EQ(batch.capacity(), 1u);
  batch.Push(1, 2, true);
  batch.Push(3, 4, false);
  batch.Push(5, 6, true);
  batch.Flush();
  EXPECT_EQ(flushes, 2u);
}

TEST(SweepTest, FlushBoundariesDoNotChangeResults) {
  // The same sweep at several batch capacities: the concatenated candidate
  // sequence is capacity-invariant (flush boundaries are bookkeeping, not
  // semantics).
  Rng rng(99);
  std::vector<Box> left = RandomBoxes(&rng, 120, 15, 3);
  std::vector<Box> right = RandomBoxes(&rng, 120, 15, 3);
  MbrColumns lcols = ColumnsOf(left), rcols = ColumnsOf(right);
  SweepRun base = RunSoa(lcols, rcols, kCandidateBatchSize);
  ASSERT_GT(base.pairs.size(), 16u) << "test needs multiple flushes";
  for (size_t cap : {1u, 2u, 3u, 7u, 64u}) {
    SweepRun run = RunSoa(lcols, rcols, cap);
    EXPECT_EQ(run.pairs, base.pairs) << "capacity " << cap;
    EXPECT_EQ(run.compares, base.compares);
    for (size_t i = 0; i + 1 < run.flush_sizes.size(); ++i) {
      EXPECT_EQ(run.flush_sizes[i], cap) << "only the last flush may be short";
    }
  }
}

TEST(ExactJoinBatchTest, MatchesPerPairExactTests) {
  // Candidate pairs (every MBR-intersecting pair) through the batched
  // exact pass vs a direct per-pair Polyline::Intersects loop: same hits,
  // same order, left⧺right concatenated columns.
  Rng rng(5);
  auto make_lines = [&rng](int n, int64_t id0) {
    TupleVec out;
    for (int i = 0; i < n; ++i) {
      double x = rng.NextDouble(-10, 10), y = rng.NextDouble(-10, 10);
      std::vector<Point> pts;
      for (int k = 0; k < 5; ++k) {
        pts.push_back(Point{x, y});
        x += rng.NextDouble(-1, 1);
        y += rng.NextDouble(-1, 1);
      }
      out.push_back(
          Tuple({Value(id0 + i), Value(Polyline(std::move(pts)))}));
    }
    return out;
  };
  TupleVec left = make_lines(60, 0);
  TupleVec right = make_lines(60, 1000);

  std::vector<OrdinalPair> pairs;
  for (uint32_t i = 0; i < left.size(); ++i) {
    for (uint32_t j = 0; j < right.size(); ++j) {
      if (left[i].at(1).Mbr().Intersects(right[j].at(1).Mbr())) {
        pairs.push_back({i, j});
      }
    }
  }
  ASSERT_GT(pairs.size(), 20u);

  ExecContext ctx;
  TupleVec out;
  ASSERT_TRUE(ExactJoinBatch(left, 1, right, 1, pairs.data(), pairs.size(),
                             ctx, &out)
                  .ok());

  std::vector<Pair> got, expected;
  for (const Tuple& t : out) {
    ASSERT_EQ(t.values.size(), 4u);
    got.emplace_back(static_cast<uint32_t>(t.at(0).AsInt()),
                     static_cast<uint32_t>(t.at(2).AsInt()));
  }
  for (const OrdinalPair& p : pairs) {
    if (left[p.left_row].at(1).AsPolyline()->Intersects(
            *right[p.right_row].at(1).AsPolyline())) {
      expected.emplace_back(static_cast<uint32_t>(p.left_row),
                            static_cast<uint32_t>(1000 + p.right_row));
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace paradise::exec::join_kernel
