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
/// reinsertion and R* splits, and overlap and circle queries. A tree only
/// grows: it has no deletion, so the entries of a row its table dropped
/// stay, and every consumer of a hit filters on the table's live flags.
///
/// Like the B+-tree, nodes are memory resident and sized to a page; probe
/// cost is charged by the executor per level / per node visited, using the
/// `nodes_visited` out-parameters.
class RStarTree {
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

  /// Calls `fn(box, id)` for every entry whose MBR intersects `query`.
  /// Return false from `fn` to stop. `nodes_visited`, when non-null, is
  /// incremented per tree node touched (the probe's I/O footprint).
  void SearchOverlap(const geom::Box& query,
                     const std::function<bool(const geom::Box&, RowId)>& fn,
                     int64_t* nodes_visited = nullptr) const;

  /// Entries whose MBR lies within `circle`'s reach (MBR min-distance to
  /// the center <= radius). The exact geometry test is the caller's.
  void SearchCircle(const geom::Circle& circle,
                    const std::function<bool(const geom::Box&, RowId)>& fn,
                    int64_t* nodes_visited = nullptr) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t height() const { return height_; }
  size_t num_nodes() const;

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
  size_t CountNodes(const Node* node) const;
  bool CheckNode(const Node* node, int expected_leaf_level,
                 bool is_root) const;

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace paradise::index

#endif  // PARADISE_INDEX_R_STAR_TREE_H_
