#ifndef PARADISE_INDEX_B_PLUS_TREE_H_
#define PARADISE_INDEX_B_PLUS_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace paradise::index {

/// In-memory B+-tree with page-sized nodes, supporting duplicate keys and
/// ordered range scans. Non-spatial indexed selections (Queries 5, 8's
/// outer probe) run through this. A tree only grows: it has no deletion,
/// so the entries of a row its table dropped stay, and every consumer of
/// a hit filters on the table's live flags.
///
/// The tree is the memory-resident image of a SHORE B+-tree; the executor
/// charges one random page I/O per level for cold probes (see
/// exec/cost_charges.h) so index cost scales with height() exactly as the
/// paper discusses ("the index size decreases at a logarithmic rate").
///
/// Duplicate keys are handled by ordering entries on (key, value).
template <typename K, typename V = uint64_t, typename Less = std::less<K>>
class BPlusTree {
 public:
  /// Fanout chosen so a node is roughly one 8 KB page.
  static constexpr size_t kMaxEntries = 128;

  BPlusTree() : root_(std::make_unique<Node>(/*leaf=*/true)) {}

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  void Insert(const K& key, const V& value) {
    SplitResult split = InsertInto(root_.get(), key, value);
    if (split.happened) {
      auto new_root = std::make_unique<Node>(/*leaf=*/false);
      new_root->keys.push_back(split.separator);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
      ++height_;
    }
    ++size_;
  }

  /// All values stored under `key`.
  std::vector<V> Find(const K& key) const {
    std::vector<V> out;
    RangeScan(key, key, [&](const K&, const V& v) {
      out.push_back(v);
      return true;
    });
    return out;
  }

  /// Visits entries with lo <= key <= hi in key order; the callback
  /// returns false to stop early.
  void RangeScan(const K& lo, const K& hi,
                 const std::function<bool(const K&, const V&)>& fn) const {
    // Descend to the leftmost leaf that could hold `lo`: duplicates equal
    // to a separator may live in the child left of it, so use a strict
    // lower bound here (inserts send equal keys right of the separator).
    const Node* node = root_.get();
    while (!node->leaf) {
      size_t i = 0;
      while (i < node->keys.size() && less_(node->keys[i], lo)) ++i;
      node = node->children[i].get();
    }
    // Iterate within this leaf, then continue through the leaf chain.
    while (node != nullptr) {
      for (size_t i = 0; i < node->keys.size(); ++i) {
        if (less_(node->keys[i], lo)) continue;
        if (less_(hi, node->keys[i])) return;
        if (!fn(node->keys[i], node->values[i])) return;
      }
      node = node->next_leaf;
    }
  }

  /// Visits every entry in key order.
  void ScanAll(const std::function<bool(const K&, const V&)>& fn) const {
    const Node* node = root_.get();
    while (!node->leaf) node = node->children[0].get();
    while (node != nullptr) {
      for (size_t i = 0; i < node->keys.size(); ++i) {
        if (!fn(node->keys[i], node->values[i])) return;
      }
      node = node->next_leaf;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels (1 = just a leaf). The executor charges one page
  /// read per level on a cold probe.
  size_t height() const { return height_; }

  /// Structural invariants, for property tests: ordering within nodes,
  /// separator correctness, and occupancy bounds.
  bool CheckInvariants() const { return CheckNode(root_.get(), true); }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
    bool leaf;
    std::vector<K> keys;
    // Leaf payload:
    std::vector<V> values;
    Node* next_leaf = nullptr;
    // Internal payload: children.size() == keys.size() + 1.
    std::vector<std::unique_ptr<Node>> children;
  };

  struct SplitResult {
    bool happened = false;
    K separator{};
    std::unique_ptr<Node> right;
  };

  bool KeyValueLess(const K& a, const V& va, const K& b, const V& vb) const {
    if (less_(a, b)) return true;
    if (less_(b, a)) return false;
    return va < vb;
  }

  // Child index to descend into for `key` (first child whose range may
  // contain it).
  size_t UpperBoundChild(const Node* node, const K& key) const {
    size_t i = 0;
    while (i < node->keys.size() && !less_(key, node->keys[i])) ++i;
    return i;
  }

  SplitResult InsertInto(Node* node, const K& key, const V& value) {
    if (node->leaf) {
      size_t pos = 0;
      while (pos < node->keys.size() &&
             KeyValueLess(node->keys[pos], node->values[pos], key, value)) {
        ++pos;
      }
      node->keys.insert(node->keys.begin() + pos, key);
      node->values.insert(node->values.begin() + pos, value);
      if (node->keys.size() <= kMaxEntries) return {};
      return SplitLeaf(node);
    }
    size_t i = UpperBoundChild(node, key);
    SplitResult child_split = InsertInto(node->children[i].get(), key, value);
    if (!child_split.happened) return {};
    node->keys.insert(node->keys.begin() + i, child_split.separator);
    node->children.insert(node->children.begin() + i + 1,
                          std::move(child_split.right));
    if (node->children.size() <= kMaxEntries) return {};
    return SplitInternal(node);
  }

  SplitResult SplitLeaf(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/true);
    size_t mid = node->keys.size() / 2;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->values.assign(node->values.begin() + mid, node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right.get();
    SplitResult r;
    r.happened = true;
    r.separator = right->keys.front();
    r.right = std::move(right);
    return r;
  }

  SplitResult SplitInternal(Node* node) {
    auto right = std::make_unique<Node>(/*leaf=*/false);
    size_t mid = node->keys.size() / 2;
    K separator = node->keys[mid];
    right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
    for (size_t i = mid + 1; i < node->children.size(); ++i) {
      right->children.push_back(std::move(node->children[i]));
    }
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    SplitResult r;
    r.happened = true;
    r.separator = separator;
    r.right = std::move(right);
    return r;
  }

  bool CheckNode(const Node* node, bool is_root) const {
    if (node->leaf) {
      if (!is_root && node->keys.size() < 1) return false;
      for (size_t i = 1; i < node->keys.size(); ++i) {
        if (less_(node->keys[i], node->keys[i - 1])) return false;
      }
      return node->keys.size() == node->values.size();
    }
    if (node->children.size() != node->keys.size() + 1) return false;
    if (!is_root && node->children.size() < 2) return false;
    for (size_t i = 1; i < node->keys.size(); ++i) {
      if (less_(node->keys[i], node->keys[i - 1])) return false;
    }
    for (const auto& c : node->children) {
      if (!CheckNode(c.get(), false)) return false;
    }
    return true;
  }

  Less less_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace paradise::index

#endif  // PARADISE_INDEX_B_PLUS_TREE_H_
