#include "index/r_star_tree.h"

#include <algorithm>
#include <cmath>

namespace paradise::index {

using geom::Box;
using geom::Circle;
using geom::Point;

RStarTree::RStarTree() : root_(std::make_unique<Node>(0)) {}
RStarTree::~RStarTree() = default;

RStarTree::Node* RStarTree::ChooseSubtree(Node* node, const Box& box,
                                          int target_level,
                                          std::vector<Node*>* path) {
  while (node->level > target_level) {
    path->push_back(node);
    size_t best = 0;
    if (node->level == target_level + 1) {
      // Children are at the target level: minimize overlap enlargement
      // (the R* leaf-level rule), ties by area enlargement.
      double best_overlap_inc = 0.0, best_area_inc = 0.0;
      bool first = true;
      for (size_t i = 0; i < node->entries.size(); ++i) {
        Box enlarged = node->entries[i].box.Union(box);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (size_t j = 0; j < node->entries.size(); ++j) {
          if (j == i) continue;
          overlap_before +=
              node->entries[i].box.Intersection(node->entries[j].box).Area();
          overlap_after +=
              enlarged.Intersection(node->entries[j].box).Area();
        }
        double overlap_inc = overlap_after - overlap_before;
        double area_inc = enlarged.Area() - node->entries[i].box.Area();
        if (first || overlap_inc < best_overlap_inc ||
            (overlap_inc == best_overlap_inc && area_inc < best_area_inc)) {
          first = false;
          best = i;
          best_overlap_inc = overlap_inc;
          best_area_inc = area_inc;
        }
      }
    } else {
      // Minimize area enlargement, ties by area.
      double best_area_inc = 0.0, best_area = 0.0;
      bool first = true;
      for (size_t i = 0; i < node->entries.size(); ++i) {
        double area = node->entries[i].box.Area();
        double area_inc = node->entries[i].box.Union(box).Area() - area;
        if (first || area_inc < best_area_inc ||
            (area_inc == best_area_inc && area < best_area)) {
          first = false;
          best = i;
          best_area_inc = area_inc;
          best_area = area;
        }
      }
    }
    node = node->entries[best].child.get();
  }
  path->push_back(node);
  return node;
}

std::pair<std::vector<RStarTree::Entry>, std::vector<RStarTree::Entry>>
RStarTree::SplitEntries(std::vector<Entry> entries) {
  // R* split: pick the axis with the least margin sum over candidate
  // distributions, then the distribution with least overlap (ties: area).
  const size_t total = entries.size();
  const size_t min_k = kMinEntries;
  const size_t max_k = total - kMinEntries;

  auto margin_sum_for_axis = [&](bool by_x, std::vector<Entry>* sorted) {
    std::sort(sorted->begin(), sorted->end(),
              [&](const Entry& a, const Entry& b) {
                double alo = by_x ? a.box.xmin : a.box.ymin;
                double blo = by_x ? b.box.xmin : b.box.ymin;
                if (alo != blo) return alo < blo;
                double ahi = by_x ? a.box.xmax : a.box.ymax;
                double bhi = by_x ? b.box.xmax : b.box.ymax;
                return ahi < bhi;
              });
    // Prefix/suffix MBRs.
    std::vector<Box> prefix(total), suffix(total);
    Box b;
    for (size_t i = 0; i < total; ++i) {
      b.ExpandToInclude((*sorted)[i].box);
      prefix[i] = b;
    }
    b = Box();
    for (size_t i = total; i-- > 0;) {
      b.ExpandToInclude((*sorted)[i].box);
      suffix[i] = b;
    }
    double margin = 0.0;
    for (size_t k = min_k; k <= max_k; ++k) {
      margin += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    return std::make_tuple(margin, prefix, suffix);
  };

  // Child pointers make entries move-only, so evaluate both axes by
  // sorting the one real vector twice.
  std::vector<Entry> work = std::move(entries);
  auto [margin_x, prefix_x, suffix_x] = margin_sum_for_axis(true, &work);
  auto [margin_y, prefix_y, suffix_y] = margin_sum_for_axis(false, &work);

  bool use_x = margin_x <= margin_y;
  if (use_x) {
    // Re-sort back to x order.
    auto [m, p, s] = margin_sum_for_axis(true, &work);
    prefix_x = std::move(p);
    suffix_x = std::move(s);
    (void)m;
  }
  const std::vector<Box>& prefix = use_x ? prefix_x : prefix_y;
  const std::vector<Box>& suffix = use_x ? suffix_x : suffix_y;

  size_t best_k = min_k;
  double best_overlap = 0.0, best_area = 0.0;
  bool first = true;
  for (size_t k = min_k; k <= max_k; ++k) {
    double overlap = prefix[k - 1].Intersection(suffix[k]).Area();
    double area = prefix[k - 1].Area() + suffix[k].Area();
    if (first || overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      first = false;
      best_k = k;
      best_overlap = overlap;
      best_area = area;
    }
  }

  std::vector<Entry> left, right;
  left.reserve(best_k);
  right.reserve(total - best_k);
  for (size_t i = 0; i < total; ++i) {
    if (i < best_k) {
      left.push_back(std::move(work[i]));
    } else {
      right.push_back(std::move(work[i]));
    }
  }
  return {std::move(left), std::move(right)};
}

void RStarTree::InsertEntry(Entry entry, int target_level,
                            bool allow_reinsert) {
  std::vector<Node*> path;
  Node* node = ChooseSubtree(root_.get(), entry.box, target_level, &path);
  node->entries.push_back(std::move(entry));

  std::vector<Entry> reinserts;
  int reinsert_level = -1;

  // Walk back up handling overflows.
  for (size_t i = path.size(); i-- > 0;) {
    Node* cur = path[i];
    if (cur->entries.size() <= kMaxEntries) continue;

    bool is_root = (i == 0);
    if (!is_root && allow_reinsert && reinserts.empty()) {
      // Forced reinsert: remove the kReinsertCount entries whose centers
      // are farthest from the node MBR center.
      Box mbr = cur->Mbr();
      Point center = mbr.Center();
      std::vector<size_t> order(cur->entries.size());
      for (size_t j = 0; j < order.size(); ++j) order[j] = j;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return geom::DistanceSquared(cur->entries[a].box.Center(), center) >
               geom::DistanceSquared(cur->entries[b].box.Center(), center);
      });
      std::vector<bool> remove(cur->entries.size(), false);
      for (size_t j = 0; j < kReinsertCount; ++j) remove[order[j]] = true;
      std::vector<Entry> kept;
      kept.reserve(cur->entries.size() - kReinsertCount);
      for (size_t j = 0; j < cur->entries.size(); ++j) {
        if (remove[j]) {
          reinserts.push_back(std::move(cur->entries[j]));
        } else {
          kept.push_back(std::move(cur->entries[j]));
        }
      }
      cur->entries = std::move(kept);
      reinsert_level = cur->level;
      continue;
    }

    // Split.
    auto [left_entries, right_entries] = SplitEntries(std::move(cur->entries));
    cur->entries = std::move(left_entries);
    auto sibling = std::make_unique<Node>(cur->level);
    sibling->entries = std::move(right_entries);

    Entry sibling_entry;
    sibling_entry.box = sibling->Mbr();
    sibling_entry.child = std::move(sibling);

    if (is_root) {
      auto new_root = std::make_unique<Node>(cur->level + 1);
      Entry old_root_entry;
      old_root_entry.box = root_->Mbr();
      old_root_entry.child = std::move(root_);
      new_root->entries.push_back(std::move(old_root_entry));
      new_root->entries.push_back(std::move(sibling_entry));
      root_ = std::move(new_root);
      ++height_;
    } else {
      path[i - 1]->entries.push_back(std::move(sibling_entry));
    }
  }

  // Refresh MBRs along the path (cheap: recompute child entry boxes).
  for (size_t i = path.size(); i-- > 1;) {
    Node* parent = path[i - 1];
    for (Entry& e : parent->entries) {
      if (e.child.get() == path[i]) {
        e.box = path[i]->Mbr();
        break;
      }
    }
  }
  // The split may have replaced root_; also refresh the top-level boxes.
  if (!root_->entries.empty() && root_->level > 0) {
    for (Entry& e : root_->entries) {
      if (e.child != nullptr) e.box = e.child->Mbr();
    }
  }

  for (Entry& r : reinserts) {
    InsertEntry(std::move(r), reinsert_level, /*allow_reinsert=*/false);
  }
}

void RStarTree::Insert(const Box& box, RowId id) {
  Entry e;
  e.box = box;
  e.id = id;
  InsertEntry(std::move(e), /*target_level=*/0, /*allow_reinsert=*/true);
  ++size_;
}

void RStarTree::SearchOverlap(
    const Box& query, const std::function<bool(const Box&, RowId)>& fn,
    int64_t* nodes_visited) const {
  // Entry boxes are tested with raw min/max compares, skipping
  // Box::Intersects' IsEmpty checks: stored boxes are either well-formed
  // or the ±inf empty default, and both an empty entry box and an empty
  // query fail the raw compares just as Intersects reports.
  std::vector<const Node*> stack{root_.get()};
  const double qxmin = query.xmin, qymin = query.ymin;
  const double qxmax = query.xmax, qymax = query.ymax;
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (nodes_visited != nullptr) ++*nodes_visited;
    for (const Entry& e : node->entries) {
      if (e.box.xmin > qxmax || qxmin > e.box.xmax || e.box.ymin > qymax ||
          qymin > e.box.ymax) {
        continue;
      }
      if (node->level == 0) {
        if (!fn(e.box, e.id)) return;
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
}

void RStarTree::SearchCircle(
    const Circle& circle, const std::function<bool(const Box&, RowId)>& fn,
    int64_t* nodes_visited) const {
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (nodes_visited != nullptr) ++*nodes_visited;
    for (const Entry& e : node->entries) {
      if (e.box.DistanceTo(circle.center) > circle.radius) continue;
      if (node->level == 0) {
        if (!fn(e.box, e.id)) return;
      } else {
        stack.push_back(e.child.get());
      }
    }
  }
}

size_t RStarTree::CountNodes(const Node* node) const {
  size_t n = 1;
  if (node->level > 0) {
    for (const Entry& e : node->entries) n += CountNodes(e.child.get());
  }
  return n;
}

size_t RStarTree::num_nodes() const { return CountNodes(root_.get()); }

bool RStarTree::CheckNode(const Node* node, int expected_leaf_level,
                          bool is_root) const {
  if (!is_root) {
    if (node->entries.size() < kMinEntries ||
        node->entries.size() > kMaxEntries) {
      return false;
    }
  } else if (node->entries.size() > kMaxEntries) {
    return false;
  }
  if (node->level == 0) return node->level == expected_leaf_level;
  for (const Entry& e : node->entries) {
    if (e.child == nullptr) return false;
    if (e.child->level != node->level - 1) return false;
    if (!e.box.Contains(e.child->Mbr())) return false;
    if (!CheckNode(e.child.get(), expected_leaf_level, false)) return false;
  }
  return true;
}

bool RStarTree::CheckInvariants() const {
  if (static_cast<int>(height_) != root_->level + 1) return false;
  return CheckNode(root_.get(), 0, true);
}

std::unique_ptr<RStarTree> RStarTree::BulkLoadStr(
    std::vector<std::pair<Box, RowId>> entries) {
  auto tree = std::make_unique<RStarTree>();
  if (entries.empty()) return tree;

  // Sort-Tile-Recursive: sort by x-center, cut into vertical slabs of
  // ~sqrt(P) pages each, sort each slab by y-center, pack runs of
  // kMaxEntries into leaves; then build upper levels the same way over
  // node MBR centers.
  struct Item {
    Box box;
    Entry entry;
  };
  std::vector<Item> items;
  items.reserve(entries.size());
  for (auto& [box, id] : entries) {
    Item it;
    it.box = box;
    it.entry.box = box;
    it.entry.id = id;
    items.push_back(std::move(it));
  }

  int level = 0;
  while (items.size() > kMaxEntries) {
    size_t pages = (items.size() + kMaxEntries - 1) / kMaxEntries;
    size_t slabs = static_cast<size_t>(std::ceil(std::sqrt(
        static_cast<double>(pages))));
    size_t per_slab = (items.size() + slabs - 1) / slabs;

    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.box.Center().x < b.box.Center().x;
    });
    std::vector<Item> next;
    for (size_t s = 0; s * per_slab < items.size(); ++s) {
      size_t lo = s * per_slab;
      size_t hi = std::min(items.size(), lo + per_slab);
      std::sort(items.begin() + lo, items.begin() + hi,
                [](const Item& a, const Item& b) {
                  return a.box.Center().y < b.box.Center().y;
                });
      for (size_t i = lo; i < hi; i += kMaxEntries) {
        size_t end = std::min(hi, i + kMaxEntries);
        auto node = std::make_unique<Node>(level);
        for (size_t j = i; j < end; ++j) {
          node->entries.push_back(std::move(items[j].entry));
        }
        Item parent_item;
        parent_item.box = node->Mbr();
        parent_item.entry.box = parent_item.box;
        parent_item.entry.child = std::move(node);
        next.push_back(std::move(parent_item));
      }
    }
    items = std::move(next);
    ++level;
  }

  auto root = std::make_unique<Node>(level);
  for (Item& it : items) root->entries.push_back(std::move(it.entry));
  tree->root_ = std::move(root);
  tree->height_ = static_cast<size_t>(level) + 1;
  tree->size_ = entries.size();
  return tree;
}

}  // namespace paradise::index
