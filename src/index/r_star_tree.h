#ifndef PARADISE_INDEX_R_STAR_TREE_H_
#define PARADISE_INDEX_R_STAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geom/box.h"
#include "geom/circle.h"
#include "geom/point.h"

namespace paradise::index {

/// R*-tree [Beck90] over (MBR, row-id) entries — the spatial access method
/// SHORE provides to Paradise. Supports dynamic insertion with forced
/// reinsertion, R* splits, deletion with reinsert-on-underflow, overlap and
/// circle queries, and branch-and-bound nearest neighbour.
///
/// Like the B+-tree, nodes are memory resident and sized to a page; probe
/// cost is charged by the executor per level / per node visited, using the
/// `nodes_visited` out-parameters.
class RStarTree {
 private:
  struct Node;  // fwd: ProbeScratch stores (opaque) node pointers

 public:
  using RowId = uint64_t;

  /// ~Page-sized nodes: an entry is an MBR (32 B) plus a pointer/id.
  static constexpr size_t kMaxEntries = 64;
  static constexpr size_t kMinEntries = kMaxEntries * 4 / 10;  // 40% (R*)
  static constexpr size_t kReinsertCount = kMaxEntries * 3 / 10;  // 30% (R*)

  RStarTree();
  ~RStarTree();

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  void Insert(const geom::Box& box, RowId id);

  /// Removes one (box, id) entry; returns false if absent.
  bool Erase(const geom::Box& box, RowId id);

  /// Calls `fn(box, id)` for every entry whose MBR intersects `query`.
  /// Return false from `fn` to stop. `nodes_visited`, when non-null, is
  /// incremented per tree node touched (the probe's I/O footprint).
  void SearchOverlap(const geom::Box& query,
                     const std::function<bool(const geom::Box&, RowId)>& fn,
                     int64_t* nodes_visited = nullptr) const;

  /// Caller-owned traversal stack for batched probes: reusing one across
  /// a probe loop makes each ForEachOverlap allocation-free.
  struct ProbeScratch {
    std::vector<const Node*> stack;
  };

  /// SearchOverlap with the callback as a template parameter (inlined, no
  /// std::function dispatch) and an optional reusable stack — the hot
  /// probe path of the index spatial join. Traversal order and
  /// `nodes_visited` counting are identical to SearchOverlap. Entry boxes
  /// are tested with raw min/max compares, skipping Box::Intersects'
  /// IsEmpty checks: stored boxes are either well-formed or the ±inf
  /// empty default, and both an empty entry box and an empty query fail
  /// the raw compares just as Intersects reports.
  template <typename Fn>
  void ForEachOverlap(const geom::Box& query, Fn&& fn,
                      int64_t* nodes_visited = nullptr,
                      ProbeScratch* scratch = nullptr) const {
    ProbeScratch local;
    ProbeScratch& s = scratch != nullptr ? *scratch : local;
    s.stack.clear();
    s.stack.push_back(root_.get());
    const double qxmin = query.xmin, qymin = query.ymin;
    const double qxmax = query.xmax, qymax = query.ymax;
    while (!s.stack.empty()) {
      const Node* node = s.stack.back();
      s.stack.pop_back();
      if (nodes_visited != nullptr) ++*nodes_visited;
      for (const Entry& e : node->entries) {
        if (e.box.xmin > qxmax || qxmin > e.box.xmax || e.box.ymin > qymax ||
            qymin > e.box.ymax) {
          continue;
        }
        if (node->level == 0) {
          if (!fn(e.box, e.id)) return;
        } else {
          s.stack.push_back(e.child.get());
        }
      }
    }
  }

  /// Entries whose MBR lies within `circle`'s reach (MBR min-distance to
  /// the center <= radius). The exact geometry test is the caller's.
  void SearchCircle(const geom::Circle& circle,
                    const std::function<bool(const geom::Box&, RowId)>& fn,
                    int64_t* nodes_visited = nullptr) const;

  struct NearestResult {
    bool found = false;
    geom::Box box;
    RowId id = 0;
    double distance = 0.0;  // MBR min-distance to the query point
  };
  /// Branch-and-bound nearest entry by MBR distance [Rous95].
  NearestResult Nearest(const geom::Point& p,
                        int64_t* nodes_visited = nullptr) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t height() const { return height_; }
  size_t num_nodes() const;
  geom::Box bounds() const;

  /// Structural invariants for property tests: parent MBRs cover children,
  /// occupancy bounds, uniform leaf depth.
  bool CheckInvariants() const;

  /// Sort-Tile-Recursive bulk load — the packed build used when loading
  /// the benchmark database (Query 1, [DeWi94]-style packing).
  static std::unique_ptr<RStarTree> BulkLoadStr(
      std::vector<std::pair<geom::Box, RowId>> entries);

 private:
  struct Node;
  struct Entry {
    geom::Box box;
    RowId id = 0;                  // leaf payload
    std::unique_ptr<Node> child;   // internal payload
  };
  struct Node {
    explicit Node(int lvl) : level(lvl) {}
    int level;  // 0 = leaf
    std::vector<Entry> entries;
    geom::Box Mbr() const {
      geom::Box b;
      for (const Entry& e : entries) b.ExpandToInclude(e.box);
      return b;
    }
  };

  void InsertEntry(Entry entry, int target_level, bool allow_reinsert);
  Node* ChooseSubtree(Node* node, const geom::Box& box, int target_level,
                      std::vector<Node*>* path);
  void HandleOverflow(std::vector<Node*>& path, size_t node_index,
                      bool allow_reinsert, std::vector<Entry>* reinserts);
  static std::pair<std::vector<Entry>, std::vector<Entry>> SplitEntries(
      std::vector<Entry> entries);
  bool EraseRec(Node* node, const geom::Box& box, RowId id,
                std::vector<Entry>* orphans);
  size_t CountNodes(const Node* node) const;
  bool CheckNode(const Node* node, int expected_leaf_level,
                 bool is_root) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace paradise::index

#endif  // PARADISE_INDEX_R_STAR_TREE_H_
