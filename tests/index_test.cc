#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "index/b_plus_tree.h"
#include "index/r_star_tree.h"

namespace paradise::index {
namespace {

using geom::Box;
using geom::Circle;
using geom::Point;

// ---------- B+-tree ----------

TEST(BPlusTreeTest, InsertAndFind) {
  BPlusTree<int64_t> tree;
  for (int64_t i = 0; i < 1000; ++i) tree.Insert(i * 2, static_cast<uint64_t>(i));
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.Find(10).size(), 1u);
  EXPECT_EQ(tree.Find(10)[0], 5u);
  EXPECT_TRUE(tree.Find(11).empty());
  EXPECT_GT(tree.height(), 1u);
}

TEST(BPlusTreeTest, Duplicates) {
  BPlusTree<std::string> tree;
  for (uint64_t i = 0; i < 500; ++i) tree.Insert("dup", i);
  tree.Insert("other", 1);
  EXPECT_EQ(tree.Find("dup").size(), 500u);
  EXPECT_TRUE(tree.CheckInvariants());
  // All values present exactly once.
  std::set<uint64_t> vals;
  for (uint64_t v : tree.Find("dup")) vals.insert(v);
  EXPECT_EQ(vals.size(), 500u);
}

TEST(BPlusTreeTest, RangeScanOrdered) {
  BPlusTree<int64_t> tree;
  Rng rng(5);
  std::multimap<int64_t, uint64_t> reference;
  for (uint64_t i = 0; i < 3000; ++i) {
    int64_t key = rng.NextInt(0, 500);
    tree.Insert(key, i);
    reference.emplace(key, i);
  }
  // Compare full scans.
  std::vector<int64_t> tree_keys;
  tree.ScanAll([&](const int64_t& k, const uint64_t&) {
    tree_keys.push_back(k);
    return true;
  });
  ASSERT_EQ(tree_keys.size(), reference.size());
  EXPECT_TRUE(std::is_sorted(tree_keys.begin(), tree_keys.end()));
  // Range [100, 200].
  size_t expected = 0;
  for (auto& [k, v] : reference) {
    if (k >= 100 && k <= 200) ++expected;
  }
  size_t got = 0;
  tree.RangeScan(100, 200, [&](const int64_t& k, const uint64_t&) {
    EXPECT_GE(k, 100);
    EXPECT_LE(k, 200);
    ++got;
    return true;
  });
  EXPECT_EQ(got, expected);
}

TEST(BPlusTreeTest, EarlyStopScan) {
  BPlusTree<int64_t> tree;
  for (int64_t i = 0; i < 100; ++i) tree.Insert(i, static_cast<uint64_t>(i));
  int count = 0;
  tree.ScanAll([&](const int64_t&, const uint64_t&) {
    return ++count < 10;
  });
  EXPECT_EQ(count, 10);
}

// ---------- R*-tree ----------

Box RandomBox(Rng* rng, double extent, double max_side) {
  double x = rng->NextDouble(-extent, extent);
  double y = rng->NextDouble(-extent, extent);
  return Box(x, y, x + rng->NextDouble(0.01, max_side),
             y + rng->NextDouble(0.01, max_side));
}

TEST(RStarTreeTest, InsertSearchSmall) {
  RStarTree tree;
  tree.Insert(Box(0, 0, 1, 1), 1);
  tree.Insert(Box(5, 5, 6, 6), 2);
  tree.Insert(Box(0.5, 0.5, 5.5, 5.5), 3);
  std::set<uint64_t> hits;
  tree.SearchOverlap(Box(0.9, 0.9, 1.1, 1.1), [&](const Box&, uint64_t id) {
    hits.insert(id);
    return true;
  });
  EXPECT_EQ(hits, (std::set<uint64_t>{1, 3}));
}

class RStarPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RStarPropertyTest, SearchMatchesLinearScan) {
  Rng rng(GetParam());
  RStarTree tree;
  std::vector<std::pair<Box, uint64_t>> all;
  int n = 500 + GetParam() * 700;
  for (int i = 0; i < n; ++i) {
    Box b = RandomBox(&rng, 100, 10);
    tree.Insert(b, static_cast<uint64_t>(i));
    all.emplace_back(b, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  EXPECT_TRUE(tree.CheckInvariants());
  for (int q = 0; q < 30; ++q) {
    Box query = RandomBox(&rng, 100, 40);
    std::set<uint64_t> expected;
    for (auto& [b, id] : all) {
      if (b.Intersects(query)) expected.insert(id);
    }
    std::set<uint64_t> got;
    tree.SearchOverlap(query, [&](const Box&, uint64_t id) {
      got.insert(id);
      return true;
    });
    EXPECT_EQ(got, expected);
  }
}

TEST_P(RStarPropertyTest, CircleSearchIsSuperset) {
  Rng rng(GetParam() * 13 + 1);
  RStarTree tree;
  std::vector<std::pair<Box, uint64_t>> all;
  for (int i = 0; i < 800; ++i) {
    Box b = RandomBox(&rng, 50, 5);
    tree.Insert(b, static_cast<uint64_t>(i));
    all.emplace_back(b, static_cast<uint64_t>(i));
  }
  for (int q = 0; q < 20; ++q) {
    Circle c(Point{rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)},
             rng.NextDouble(1, 20));
    std::set<uint64_t> expected;
    for (auto& [b, id] : all) {
      if (b.DistanceTo(c.center) <= c.radius) expected.insert(id);
    }
    std::set<uint64_t> got;
    tree.SearchCircle(c, [&](const Box&, uint64_t id) {
      got.insert(id);
      return true;
    });
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarPropertyTest, ::testing::Values(1, 2, 3));

TEST(RStarTreeTest, BulkLoadMatchesDynamic) {
  Rng rng(31);
  std::vector<std::pair<Box, uint64_t>> entries;
  RStarTree dynamic;
  for (int i = 0; i < 5000; ++i) {
    Box b = RandomBox(&rng, 200, 8);
    entries.emplace_back(b, static_cast<uint64_t>(i));
    dynamic.Insert(b, static_cast<uint64_t>(i));
  }
  std::unique_ptr<RStarTree> packed = RStarTree::BulkLoadStr(entries);
  EXPECT_EQ(packed->size(), 5000u);
  EXPECT_TRUE(packed->CheckInvariants());
  // Packed trees should not be taller than dynamically built ones.
  EXPECT_LE(packed->height(), dynamic.height());
  for (int q = 0; q < 20; ++q) {
    Box query = RandomBox(&rng, 200, 50);
    std::set<uint64_t> a, b;
    packed->SearchOverlap(query, [&](const Box&, uint64_t id) {
      a.insert(id);
      return true;
    });
    dynamic.SearchOverlap(query, [&](const Box&, uint64_t id) {
      b.insert(id);
      return true;
    });
    EXPECT_EQ(a, b);
  }
  // A packed probe should touch no more nodes than a dynamic one, on
  // average over queries.
  int64_t packed_nodes = 0, dynamic_nodes = 0;
  for (int q = 0; q < 50; ++q) {
    Box query = RandomBox(&rng, 200, 10);
    packed->SearchOverlap(query, [](const Box&, uint64_t) { return true; },
                          &packed_nodes);
    dynamic.SearchOverlap(query, [](const Box&, uint64_t) { return true; },
                          &dynamic_nodes);
  }
  EXPECT_LE(packed_nodes, dynamic_nodes * 2);
}

TEST(RStarTreeTest, BulkLoadEmptyAndTiny) {
  std::unique_ptr<RStarTree> empty = RStarTree::BulkLoadStr({});
  EXPECT_EQ(empty->size(), 0u);
  std::unique_ptr<RStarTree> one =
      RStarTree::BulkLoadStr({{Box(0, 0, 1, 1), 9}});
  EXPECT_EQ(one->size(), 1u);
  int found = 0;
  one->SearchOverlap(Box(0, 0, 2, 2), [&](const Box&, uint64_t id) {
    EXPECT_EQ(id, 9u);
    ++found;
    return true;
  });
  EXPECT_EQ(found, 1);
}

TEST(RStarTreeTest, EarlyTermination) {
  RStarTree tree;
  for (int i = 0; i < 100; ++i) {
    tree.Insert(Box(0, 0, 1, 1), static_cast<uint64_t>(i));
  }
  int visits = 0;
  tree.SearchOverlap(Box(0, 0, 1, 1), [&](const Box&, uint64_t) {
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

}  // namespace
}  // namespace paradise::index
