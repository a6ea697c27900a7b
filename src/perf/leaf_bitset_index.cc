#include "perf/leaf_bitset_index.h"

#include <algorithm>

namespace cupid {

LeafIndex::LeafIndex(const SchemaTree& tree) {
  const size_t n = static_cast<size_t>(tree.num_nodes());
  dense_.assign(n, -1);
  for (TreeNodeId id = 0; id < tree.num_nodes(); ++id) {
    if (tree.IsLeaf(id)) {
      dense_[static_cast<size_t>(id)] = static_cast<int32_t>(leaf_ids_.size());
      leaf_ids_.push_back(id);
    }
  }
  words_ = WordsFor(leaf_ids_.size());
  node_masks_.assign(n * words_, 0);
  mask_begin_.assign(n, 0);
  mask_end_.assign(n, 0);
  range_begin_.assign(n, 0);
  range_end_.assign(n, 0);
  range_contiguous_.assign(n, 0);
  for (TreeNodeId id = 0; id < tree.num_nodes(); ++id) {
    uint64_t* mask = &node_masks_[static_cast<size_t>(id) * words_];
    uint32_t lo = static_cast<uint32_t>(words_), hi = 0;
    int32_t dlo = static_cast<int32_t>(leaf_ids_.size()), dhi = 0;
    size_t count = 0;
    for (const LeafRef& lr : tree.leaves(id)) {
      int32_t j = dense_[static_cast<size_t>(lr.leaf)];
      uint32_t w = static_cast<uint32_t>(j) / kWordBits;
      mask[w] |= uint64_t{1} << (static_cast<uint32_t>(j) % kWordBits);
      lo = std::min(lo, w);
      hi = std::max(hi, w + 1);
      dlo = std::min(dlo, j);
      dhi = std::max(dhi, j + 1);
      ++count;
    }
    mask_begin_[static_cast<size_t>(id)] = lo;
    mask_end_[static_cast<size_t>(id)] = hi;
    if (count == 0) {
      dlo = dhi = 0;
    }
    range_begin_[static_cast<size_t>(id)] = dlo;
    range_end_[static_cast<size_t>(id)] = dhi;
    // Gapless iff the bounding interval holds exactly the member count
    // (DFS id clustering makes this the common case; DAG sharing breaks it).
    range_contiguous_[static_cast<size_t>(id)] =
        static_cast<size_t>(dhi - dlo) == count ? 1 : 0;
  }
}

void LeafPairBits::Set(TreeNodeId x, TreeNodeId y) {
  size_t r = static_cast<size_t>(rows_->dense(x));
  size_t c = static_cast<size_t>(cols_->dense(y));
  row(r)[c / LeafIndex::kWordBits] |= uint64_t{1}
                                      << (c % LeafIndex::kWordBits);
  FlagRow(r);
}

void LeafPairBits::SetRowAll(TreeNodeId x) {
  size_t r = static_cast<size_t>(rows_->dense(x));
  size_t full = cols_->num_leaves() / LeafIndex::kWordBits;
  uint64_t* bits = row(r);
  for (size_t w = 0; w < full; ++w) bits[w] = ~uint64_t{0};
  size_t rest = cols_->num_leaves() % LeafIndex::kWordBits;
  if (rest > 0) bits[full] = (uint64_t{1} << rest) - 1;
  FlagRow(r);
}

void LeafPairBits::SetColAll(TreeNodeId y) {
  size_t c = static_cast<size_t>(cols_->dense(y));
  uint64_t bit = uint64_t{1} << (c % LeafIndex::kWordBits);
  size_t w = c / LeafIndex::kWordBits;
  for (size_t r = 0; r < rows_->num_leaves(); ++r) {
    row(r)[w] |= bit;
    FlagRow(r);
  }
}

void LeafPairBits::SetBlock(TreeNodeId ns, TreeNodeId nt) {
  const uint64_t* row_mask = rows_->mask(ns);
  const uint64_t* col_mask = cols_->mask(nt);
  uint32_t cb = cols_->mask_begin(nt), ce = cols_->mask_end(nt);
  for (uint32_t rw = rows_->mask_begin(ns); rw < rows_->mask_end(ns); ++rw) {
    uint64_t word = row_mask[rw];
    while (word != 0) {
      size_t r = static_cast<size_t>(rw) * LeafIndex::kWordBits +
                 static_cast<size_t>(__builtin_ctzll(word));
      word &= word - 1;
      uint64_t* bits = row(r);
      for (uint32_t w = cb; w < ce; ++w) bits[w] |= col_mask[w];
      FlagRow(r);
    }
  }
}

bool LeafPairBits::AnyInBlock(TreeNodeId ns, TreeNodeId nt) const {
  const uint64_t* row_mask = rows_->mask(ns);
  for (uint32_t rw = rows_->mask_begin(ns); rw < rows_->mask_end(ns); ++rw) {
    uint64_t flagged = row_mask[rw] & row_any_[rw];
    while (flagged != 0) {
      size_t r = static_cast<size_t>(rw) * LeafIndex::kWordBits +
                 static_cast<size_t>(__builtin_ctzll(flagged));
      flagged &= flagged - 1;
      const uint64_t* bits = row(r);
      const uint64_t* col_mask = cols_->mask(nt);
      for (uint32_t w = cols_->mask_begin(nt); w < cols_->mask_end(nt); ++w) {
        if (bits[w] & col_mask[w]) return true;
      }
    }
  }
  return false;
}

}  // namespace cupid
