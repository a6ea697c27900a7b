// Dense leaf numbering with per-node leaf-set bitmasks, and a leaf-pair bit
// matrix built on top of it, for the structural engine
// (structural/tree_match.h):
//   * every TreeMatch lays its dense leaf-pair matrices out over a
//     LeafIndex per tree, streaming a subtree's leaves as one dense range;
//   * a cold sweep keeps its strong-link bits in LeafPairBits' row layout
//     (one row of column-index words per row leaf), and every Section 7
//     recompute counts a node's linked leaves against its mask over the
//     mask's word span;
//   * the warm start keeps per-leaf *dirtiness* bitsets and asks "does the
//     block leaves(ns) x leaves(nt) contain any dirty pair?" for every node
//     pair.
//
// Leaves of a subtree are id-clustered (trees are built in DFS order), so
// every node mask occupies a short [begin, end) word span; block queries
// scan a few words instead of the full bitset width.

#ifndef CUPID_PERF_LEAF_BITSET_INDEX_H_
#define CUPID_PERF_LEAF_BITSET_INDEX_H_

#include <cstdint>
#include <vector>

#include "tree/schema_tree.h"

namespace cupid {

/// \brief Dense numbering of a tree's leaves plus, per tree node, the bitset
/// mask of its leaf set in that dense space.
class LeafIndex {
 public:
  static constexpr size_t kWordBits = 64;
  static constexpr size_t WordsFor(size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  /// The tree must outlive the index (node masks are derived from its
  /// leaves() sets).
  explicit LeafIndex(const SchemaTree& tree);

  size_t num_leaves() const { return leaf_ids_.size(); }
  /// Words per node mask (WordsFor(num_leaves)).
  size_t words() const { return words_; }

  /// Dense index of leaf `id`; -1 for non-leaf nodes.
  int32_t dense(TreeNodeId id) const {
    return dense_[static_cast<size_t>(id)];
  }
  /// Leaf node behind a dense index.
  TreeNodeId leaf(size_t j) const { return leaf_ids_[j]; }

  /// Bitset of node `id`'s leaf set (words() words).
  const uint64_t* mask(TreeNodeId id) const {
    return &node_masks_[static_cast<size_t>(id) * words_];
  }
  /// [begin, end) word span actually occupied by `id`'s mask.
  uint32_t mask_begin(TreeNodeId id) const {
    return mask_begin_[static_cast<size_t>(id)];
  }
  uint32_t mask_end(TreeNodeId id) const {
    return mask_end_[static_cast<size_t>(id)];
  }

  /// [begin, end) of node `id`'s leaf set in dense space. Subtree node ids
  /// are contiguous in DFS trees, so the range is normally gapless and
  /// dense-matrix consumers (the gather engine's block scaling and scans)
  /// can iterate it directly; range_contiguous distinguishes the DAG-shaped
  /// exceptions (join views), where the range is a bounding interval only.
  int32_t range_begin(TreeNodeId id) const {
    return range_begin_[static_cast<size_t>(id)];
  }
  int32_t range_end(TreeNodeId id) const {
    return range_end_[static_cast<size_t>(id)];
  }
  bool range_contiguous(TreeNodeId id) const {
    return range_contiguous_[static_cast<size_t>(id)] != 0;
  }

 private:
  std::vector<int32_t> dense_;        // TreeNodeId -> dense leaf index
  std::vector<TreeNodeId> leaf_ids_;  // dense index -> TreeNodeId
  size_t words_ = 0;
  std::vector<uint64_t> node_masks_;  // per node, `words_` words
  std::vector<uint32_t> mask_begin_;
  std::vector<uint32_t> mask_end_;
  std::vector<int32_t> range_begin_;  // dense leaf range per node
  std::vector<int32_t> range_end_;
  std::vector<uint8_t> range_contiguous_;
};

/// \brief Bit matrix over (row-side leaf, column-side leaf) pairs with
/// block-level queries against node leaf sets. Used as the dirty-pair set of
/// the incremental TreeMatch warm start.
class LeafPairBits {
 public:
  /// Both indexes must outlive this object.
  LeafPairBits(const LeafIndex* rows, const LeafIndex* cols)
      : rows_(rows),
        cols_(cols),
        bits_(rows->num_leaves() * cols->words(), 0),
        row_any_(LeafIndex::WordsFor(rows->num_leaves()), 0) {}

  /// Marks pair (row leaf x, column leaf y).
  void Set(TreeNodeId x, TreeNodeId y);

  /// Marks every pair in row leaf `x`'s row.
  void SetRowAll(TreeNodeId x);

  /// Marks every pair in column leaf `y`'s column.
  void SetColAll(TreeNodeId y);

  /// Marks the whole block leaves(ns) x leaves(nt), given as node masks of
  /// the respective indexes.
  void SetBlock(TreeNodeId ns, TreeNodeId nt);

  /// True iff some marked pair lies in leaves(ns) x leaves(nt). Two-level:
  /// a summary bitset of non-empty rows rejects clean regions in a few word
  /// ANDs; only flagged rows are probed against the column mask.
  bool AnyInBlock(TreeNodeId ns, TreeNodeId nt) const;

 private:
  const uint64_t* row(size_t dense_row) const {
    return &bits_[dense_row * cols_->words()];
  }
  uint64_t* row(size_t dense_row) { return &bits_[dense_row * cols_->words()]; }
  void FlagRow(size_t dense_row) {
    row_any_[dense_row / LeafIndex::kWordBits] |=
        uint64_t{1} << (dense_row % LeafIndex::kWordBits);
  }

  const LeafIndex* rows_;
  const LeafIndex* cols_;
  std::vector<uint64_t> bits_;     // per row leaf, cols_->words() words
  std::vector<uint64_t> row_any_;  // summary: rows with any bit set
};

}  // namespace cupid

#endif  // CUPID_PERF_LEAF_BITSET_INDEX_H_
