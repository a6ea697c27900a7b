#include "structural/tree_match.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>

#include "obs/trace.h"
#include "perf/leaf_bitset_index.h"
#include "tree/lazy_expansion.h"
#include "util/id_runs.h"

namespace cupid {

/// The leaf indexes and visit list the visit-list engine lays one tree pair
/// out over. The sweep builds it and leaves it on its result for the
/// Section 7 recompute.
struct TreeMatchLayout {
  TreeMatchLayout(const SchemaTree& source_tree, const SchemaTree& target_tree,
                  const TreeMatchOptions& options)
      : source(source_tree),
        target(target_tree),
        leaf_count_ratio(options.leaf_count_ratio),
        source_leaves(source_tree),
        target_leaves(target_tree) {}

  /// True iff laid out over these trees under this leaf-count prune. Copies
  /// of a tree share its state, so the address of its post-order identifies
  /// it; the copies held here keep that address from being reused.
  bool BuiltFor(const SchemaTree& source_tree, const SchemaTree& target_tree,
                const TreeMatchOptions& options) const {
    return &source.post_order() == &source_tree.post_order() &&
           &target.post_order() == &target_tree.post_order() &&
           leaf_count_ratio == options.leaf_count_ratio;
  }

  SchemaTree source, target;
  double leaf_count_ratio;
  /// Dense leaf indexes over the two trees.
  LeafIndex source_leaves, target_leaves;
  /// The sweep/recompute visit list: per source node, [visit_begin[ns],
  /// visit_end[ns]) spans into visit_data (target nodes in post-order that
  /// form a non-pruned non-leaf pair with ns).
  std::vector<int32_t> visit_begin, visit_end;
  std::vector<TreeNodeId> visit_data;
};

namespace {

/// Collects the depth-limited frontier of `node`: descendants that are
/// either true leaves or sit exactly `depth` levels below `node`, with
/// path-relative optionality. Mirrors tree-cached leaves() when depth is
/// large enough.
void CollectFrontier(const SchemaTree& tree, TreeNodeId node, int depth,
                     bool optional_so_far, std::vector<LeafRef>* out) {
  const TreeNode& n = tree.node(node);
  if (n.children.empty() || depth == 0) {
    out->push_back({node, optional_so_far});
    return;
  }
  for (TreeNodeId c : n.children) {
    CollectFrontier(tree, c, depth - 1,
                    optional_so_far || tree.node(c).optional, out);
  }
}

/// Per-tree access to the leaf set used for structural similarity: the
/// cached true leaves, or precomputed depth-k frontiers.
class FrontierProvider {
 public:
  FrontierProvider(const SchemaTree& tree, int max_depth) : tree_(tree) {
    if (max_depth > 0) {
      frontiers_.resize(static_cast<size_t>(tree.num_nodes()));
      for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
        CollectFrontier(tree, n, max_depth, /*optional_so_far=*/false,
                        &frontiers_[static_cast<size_t>(n)]);
        // Deduplicate shared (DAG) frontier nodes; required beats optional.
        auto& f = frontiers_[static_cast<size_t>(n)];
        std::sort(f.begin(), f.end(), [](const LeafRef& a, const LeafRef& b) {
          return a.leaf < b.leaf || (a.leaf == b.leaf && !a.optional);
        });
        f.erase(std::unique(f.begin(), f.end(),
                            [](const LeafRef& a, const LeafRef& b) {
                              return a.leaf == b.leaf;
                            }),
                f.end());
      }
    }
  }

  const std::vector<LeafRef>& of(TreeNodeId n) const {
    return frontiers_.empty() ? tree_.leaves(n)
                              : frontiers_[static_cast<size_t>(n)];
  }

 private:
  const SchemaTree& tree_;
  std::vector<std::vector<LeafRef>> frontiers_;
};

/// Set bits of one word. Portable bit arithmetic: without a -m flag the
/// compiler lowers __builtin_popcountll to a library call.
inline int64_t PopCount(uint64_t x) {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int64_t>((x * 0x0101010101010101ULL) >> 56);
}

/// One side of a structural-similarity fraction, counted over the word span
/// [begin, end) of a node's leaf mask: every leaf in `mask` that is also in
/// `linked` is strong and included; an unlinked leaf is included when it is
/// in `counted` (its non-optional leaves, or all of them when optional
/// discounting is off).
inline void CountLinkedLeaves(const uint64_t* linked, const uint64_t* mask,
                              const uint64_t* counted, uint32_t begin,
                              uint32_t end, int64_t* strong,
                              int64_t* included) {
  for (uint32_t w = begin; w < end; ++w) {
    const uint64_t hit = linked[w] & mask[w];
    const int64_t n = PopCount(hit);
    *strong += n;
    *included += n + PopCount(counted[w] & ~hit);
  }
}

/// Groups of duplicated subtrees on the source side, for lazy expansion:
/// for each top canonical node, the aligned (canonical descendant, copy
/// descendant) node pairs across all its copies.
struct LazyGroups {
  std::unordered_map<TreeNodeId,
                     std::vector<std::pair<TreeNodeId, TreeNodeId>>>
      propagation;
  std::vector<bool> skip;  // outer-loop skip flags (copy-subtree nodes)

  static LazyGroups Analyze(const SchemaTree& tree) {
    LazyGroups g;
    DuplicateInfo dup = AnalyzeDuplicates(tree);
    g.skip.assign(static_cast<size_t>(tree.num_nodes()), false);
    if (!dup.has_duplicates) return g;
    for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
      if (!dup.is_copy(n)) continue;
      g.skip[static_cast<size_t>(n)] = true;
      // This node's copy-subtree root: walk up while the parent is a copy.
      TreeNodeId root = n;
      while (true) {
        TreeNodeId p = tree.node(root).parent;
        if (p == kNoTreeNode || !dup.is_copy(p)) break;
        root = p;
      }
      g.propagation[dup.canon(root)].push_back({dup.canon(n), n});
    }
    return g;
  }
};

/// State and arithmetic shared by the reference sweep and the visit-list
/// engine: the wsim mix, the feedback classification, and the structural
/// similarity scan over node-pair similarities.
class MatcherBase {
 protected:
  MatcherBase(const SchemaTree& source, const SchemaTree& target,
              const TypeCompatibilityTable& types,
              const TreeMatchOptions& options)
      : s_(source), t_(target), types_(types), opt_(options) {}

  enum class Feedback { kNone, kIncrease, kDecrease };

  Feedback Classify(double wsim) const {
    if (wsim > opt_.th_high) return Feedback::kIncrease;
    if (wsim < opt_.th_low) return Feedback::kDecrease;
    return Feedback::kNone;
  }

  double MixWsim(const NodeSimilarities& sims, TreeNodeId ns, TreeNodeId nt,
                 double ssim, bool leaf_pair) const {
    double w = leaf_pair ? opt_.wstruct_leaf : opt_.wstruct_nonleaf;
    return w * ssim + (1.0 - w) * sims.lsim(ns, nt);
  }

  /// Strength of a potential leaf-level link. For true leaf pairs this is
  /// recomputed from the *current* ssim (it evolves); for depth-pruned
  /// frontier nodes the stored wsim snapshot is used (post-order guarantees
  /// it was computed before any pair that consults it).
  double LinkStrength(const NodeSimilarities& sims, TreeNodeId x,
                      TreeNodeId y) const {
    if (s_.IsLeaf(x) && t_.IsLeaf(y)) {
      return MixWsim(sims, x, y, sims.ssim(x, y), true);
    }
    return sims.wsim(x, y);
  }

  /// The Section 6 / 8.4 structural similarity: fraction of the union of the
  /// two leaf sets with at least one strong link into the other set;
  /// optional leaves without strong links are dropped from both numerator
  /// and denominator when optional_discount is on.
  double StructuralSimilarity(const NodeSimilarities& sims,
                              const std::vector<LeafRef>& ls,
                              const std::vector<LeafRef>& lt) const {
    int64_t strong = 0, included = 0;
    for (const LeafRef& x : ls) {
      bool has_link = false;
      for (const LeafRef& y : lt) {
        ++link_tests_;
        if (LinkStrength(sims, x.leaf, y.leaf) >= opt_.th_accept) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && x.optional)) {
        ++included;
      }
    }
    for (const LeafRef& y : lt) {
      bool has_link = false;
      for (const LeafRef& x : ls) {
        ++link_tests_;
        if (LinkStrength(sims, x.leaf, y.leaf) >= opt_.th_accept) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && y.optional)) {
        ++included;
      }
    }
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  const SchemaTree& s_;
  const SchemaTree& t_;
  const TypeCompatibilityTable& types_;
  TreeMatchOptions opt_;
  /// Work counters surfaced through TreeMatchStats (mutable: the scans run
  /// from const query paths).
  mutable int64_t link_tests_ = 0;
  mutable int64_t scale_ops_ = 0;
};

/// \brief The reference implementation of Figure 3: a full-grid sweep over
/// every (source, target) node pair in post-order, with all similarity
/// state in NodeSimilarities, and the matching full-grid Section 7 pass.
/// The only engine for the Section 8.4 variants the visit-list engine does
/// not support (depth-k frontiers, the skip-leaves fast path, lazy
/// expansion, leaf-pair self-feedback), and the oracle that engine is
/// tested against.
class ReferenceMatcher : private MatcherBase {
 public:
  ReferenceMatcher(const SchemaTree& source, const SchemaTree& target,
                   const TypeCompatibilityTable& types,
                   const TreeMatchOptions& options)
      : MatcherBase(source, target, types, options),
        s_frontier_(source, options.max_leaf_depth),
        t_frontier_(target, options.max_leaf_depth) {}

  TreeMatchResult Run(const Matrix<float>& element_lsim) {
    TreeMatchResult result;
    result.sims = NodeSimilarities(s_.num_nodes(), t_.num_nodes());
    ProjectLsim(element_lsim, &result.sims);
    InitLeafSsim(&result.sims);

    LazyGroups lazy;
    if (opt_.lazy_expansion) lazy = LazyGroups::Analyze(s_);

    for (TreeNodeId ns : s_.post_order()) {
      if (opt_.lazy_expansion && lazy.skip[static_cast<size_t>(ns)]) {
        result.stats.pairs_skipped_lazy += t_.num_nodes();
        continue;
      }
      for (TreeNodeId nt : t_.post_order()) {
        ComparePair(ns, nt, &result);
      }
      if (opt_.lazy_expansion) {
        auto it = lazy.propagation.find(ns);
        if (it != lazy.propagation.end()) {
          PropagateRows(it->second, &result.sims);
        }
      }
    }
    result.stats.link_tests = link_tests_;
    result.stats.scale_ops = scale_ops_;
    return result;
  }

  void Recompute(TreeMatchResult* result) {
    // Second pass (Section 7): leaf similarities are final; refresh every
    // wsim and recompute non-leaf ssim from the final leaf state.
    NodeSimilarities* sims = &result->sims;
    for (TreeNodeId ns : s_.post_order()) {
      for (TreeNodeId nt : t_.post_order()) {
        if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) {
          sims->set_wsim(ns, nt,
                         MixWsim(*sims, ns, nt, sims->ssim(ns, nt), true));
          continue;
        }
        if (PruneByLeafCount(ns, nt)) continue;
        sims->set_ssim(ns, nt,
                       StructuralSimilarity(*sims, s_frontier_.of(ns),
                                            t_frontier_.of(nt)));
        // Mix from the float-stored ssim, exactly as ComparePair does.
        sims->set_wsim(ns, nt,
                       MixWsim(*sims, ns, nt, sims->ssim(ns, nt), false));
      }
    }
  }

 private:
  void ProjectLsim(const Matrix<float>& element_lsim,
                   NodeSimilarities* sims) const {
    for (TreeNodeId ns = 0; ns < s_.num_nodes(); ++ns) {
      ElementId es = s_.node(ns).source;
      if (es == kNoElement) continue;
      for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
        ElementId et = t_.node(nt).source;
        if (et == kNoElement) continue;
        sims->set_lsim(ns, nt, element_lsim(es, et));
      }
    }
  }

  void InitLeafSsim(NodeSimilarities* sims) const {
    for (TreeNodeId ns = 0; ns < s_.num_nodes(); ++ns) {
      if (!s_.IsLeaf(ns)) continue;
      DataType ds = s_.schema().element(s_.node(ns).source).data_type;
      for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
        if (!t_.IsLeaf(nt)) continue;
        DataType dt = t_.schema().element(t_.node(nt).source).data_type;
        sims->set_ssim(ns, nt, types_.Get(ds, dt));
      }
    }
  }

  bool PruneByLeafCount(TreeNodeId ns, TreeNodeId nt) const {
    return PrunedByLeafCount(opt_, s_frontier_.of(ns).size(),
                             t_frontier_.of(nt).size());
  }

  /// Section 8.4 fast path: structural similarity over the immediate
  /// children only (their wsims are already computed, post-order).
  double ChildLevelSimilarity(const NodeSimilarities& sims, TreeNodeId ns,
                              TreeNodeId nt) const {
    std::vector<LeafRef> ls, lt;
    for (TreeNodeId c : s_.node(ns).children) {
      ls.push_back({c, s_.node(c).optional});
    }
    for (TreeNodeId c : t_.node(nt).children) {
      lt.push_back({c, t_.node(c).optional});
    }
    int64_t strong = 0, included = 0;
    auto side = [&](const std::vector<LeafRef>& from,
                    const std::vector<LeafRef>& to, bool from_is_source) {
      for (const LeafRef& x : from) {
        bool has_link = false;
        for (const LeafRef& y : to) {
          double w = from_is_source ? LinkStrength(sims, x.leaf, y.leaf)
                                    : LinkStrength(sims, y.leaf, x.leaf);
          if (w >= opt_.th_accept) {
            has_link = true;
            break;
          }
        }
        if (has_link) {
          ++strong;
          ++included;
        } else if (!(opt_.optional_discount && x.optional)) {
          ++included;
        }
      }
    };
    side(ls, lt, true);
    side(lt, ls, false);
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  void ComparePair(TreeNodeId ns, TreeNodeId nt, TreeMatchResult* result) {
    NodeSimilarities& sims = result->sims;
    const bool leaf_pair = s_.IsLeaf(ns) && t_.IsLeaf(nt);
    if (!leaf_pair) {
      if (PruneByLeafCount(ns, nt)) {
        ++result->stats.pairs_pruned_leaf_count;
        return;
      }
      bool skipped = false;
      if (opt_.skip_leaves_threshold > 0.0 && !s_.IsLeaf(ns) &&
          !t_.IsLeaf(nt)) {
        double child_sim = ChildLevelSimilarity(sims, ns, nt);
        if (child_sim >= opt_.skip_leaves_threshold) {
          sims.set_ssim(ns, nt, child_sim);
          ++result->stats.leaf_scans_skipped;
          skipped = true;
        }
      }
      if (!skipped) {
        sims.set_ssim(ns, nt,
                      StructuralSimilarity(sims, s_frontier_.of(ns),
                                           t_frontier_.of(nt)));
      }
    }
    ++result->stats.pairs_compared;
    double wsim = MixWsim(sims, ns, nt, sims.ssim(ns, nt), leaf_pair);
    sims.set_wsim(ns, nt, wsim);

    if (leaf_pair && !opt_.leaf_pair_feedback) return;
    Feedback f = Classify(wsim);
    if (f == Feedback::kIncrease) {
      ScaleSubtreeLeaves(ns, nt, opt_.c_inc, &sims);
      result->events.push_back({ns, nt, int8_t{1}});
      ++result->stats.increases_applied;
    } else if (f == Feedback::kDecrease) {
      ScaleSubtreeLeaves(ns, nt, opt_.c_dec, &sims);
      result->events.push_back({ns, nt, int8_t{-1}});
      ++result->stats.decreases_applied;
    }
  }

  void ScaleSubtreeLeaves(TreeNodeId ns, TreeNodeId nt, double factor,
                          NodeSimilarities* sims) const {
    for (const LeafRef& x : s_.leaves(ns)) {
      for (const LeafRef& y : t_.leaves(nt)) {
        ++scale_ops_;
        sims->ScaleSsim(x.leaf, y.leaf, factor);
      }
    }
  }

  /// Lazy expansion: every copy descendant inherits the full similarity rows
  /// (ssim and wsim) of its aligned canonical descendant, snapshotted at
  /// canonical-subtree completion. Context-dependent increases from the
  /// copies' ancestors still apply to the copied leaf rows afterwards.
  void PropagateRows(
      const std::vector<std::pair<TreeNodeId, TreeNodeId>>& pairs,
      NodeSimilarities* sims) const {
    for (const auto& [canon, copy] : pairs) {
      for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
        sims->set_ssim(copy, nt, sims->ssim(canon, nt));
        sims->set_wsim(copy, nt, sims->wsim(canon, nt));
      }
    }
  }

  FrontierProvider s_frontier_;
  FrontierProvider t_frontier_;
};

/// Per node, its position in the tree's post-order.
std::vector<int32_t> PostOrderPositions(const SchemaTree& tree) {
  std::vector<int32_t> pos(static_cast<size_t>(tree.num_nodes()), 0);
  int32_t i = 0;
  for (TreeNodeId n : tree.post_order()) pos[static_cast<size_t>(n)] = i++;
  return pos;
}

/// Builds the layout's visit list: per source node, the target nodes forming
/// a non-leaf pair with it that survive the leaf-count prune, in target
/// post-order. Everything off the list is either a leaf pair (fires nothing,
/// final wsim produced by the recompute's leaf re-mix) or pruned (never
/// written by a from-scratch run).
void BuildVisitList(const TreeMatchOptions& options, TreeMatchLayout* lay) {
  const SchemaTree& s = lay->source;
  const SchemaTree& t = lay->target;
  const int64_t num_s = s.num_nodes();
  lay->visit_begin.assign(static_cast<size_t>(num_s), 0);
  lay->visit_end.assign(static_cast<size_t>(num_s), 0);
  lay->visit_data.clear();
  // Target post-order with sizes hoisted; plus the non-leaf-only subset
  // (the only qualifying partners of a source leaf).
  struct Tgt {
    TreeNodeId nt;
    size_t leaves;
  };
  std::vector<Tgt> all, nonleaf;
  all.reserve(static_cast<size_t>(t.num_nodes()));
  for (TreeNodeId nt : t.post_order()) {
    size_t sz = t.leaves(nt).size();
    all.push_back({nt, sz});
    if (!t.IsLeaf(nt)) nonleaf.push_back({nt, sz});
  }
  // Rows depend only on (source leaf count, source is-leaf): the prune test
  // sees sizes alone, and a leaf source just excludes leaf targets.
  // Equal-key rows share one span in visit_data (read-only downstream), so
  // the build is O(distinct keys x targets).
  std::map<std::pair<size_t, bool>, std::pair<int32_t, int32_t>> spans;
  for (TreeNodeId ns = 0; ns < num_s; ++ns) {
    const size_t s_sz = s.leaves(ns).size();
    const bool is_leaf = s.IsLeaf(ns);
    auto [it, inserted] = spans.try_emplace({s_sz, is_leaf});
    if (inserted) {
      it->second.first = static_cast<int32_t>(lay->visit_data.size());
      for (const Tgt& c : is_leaf ? nonleaf : all) {
        if (!PrunedByLeafCount(options, s_sz, c.leaves)) {
          lay->visit_data.push_back(c.nt);
        }
      }
      it->second.second = static_cast<int32_t>(lay->visit_data.size());
    }
    lay->visit_begin[static_cast<size_t>(ns)] = it->second.first;
    lay->visit_end[static_cast<size_t>(ns)] = it->second.second;
  }
}

/// The warm sweep's input: how the current trees relate to a TreeMatchPast
/// (BuildTreeMatchDelta). Feedback divergences mark further leaf blocks
/// dirty as the sweep runs.
struct TreeMatchDelta {
  const TreeMatchPast* past = nullptr;
  /// The layout's dense leaf indexes over the current trees.
  const LeafIndex* source_leaves = nullptr;
  const LeafIndex* target_leaves = nullptr;
  /// Per current tree node, the corresponding node of the previous run's
  /// tree, or kNoTreeNode. One-to-one; read off the past's element maps
  /// and anchored at the parent's counterpart, so a mapped node's parent
  /// is mapped too.
  std::vector<TreeNodeId> source_map;
  std::vector<TreeNodeId> target_map;
  /// Node is mapped AND its leaf set corresponds leaf-for-leaf to the
  /// previous node's (same mapped leaves, same relative optionality). This
  /// certifies leaf-set MEMBERSHIP only: per-cell differences — renamed or
  /// retyped leaves, changed lsim — live in `dirty`, so any reuse decision
  /// must consult the dirty bits as well, never this flag alone.
  std::vector<uint8_t> source_reusable;
  std::vector<uint8_t> target_reusable;
  /// Leaf pairs whose link-relevant inputs (lsim, type-seeded ssim, or
  /// feedback history) may differ from the previous run, row-major over
  /// source leaves.
  std::unique_ptr<LeafPairBits> dirty;
  /// Side-attributed dirt, by DENSE leaf index: a full-row mark dirties
  /// only its source leaf, a full-column mark only its target leaf, and
  /// sparse/block marks both sides. A node pair whose source range has no
  /// attributed source dirt AND whose target range has no attributed target
  /// dirt provably has an empty dirty block (every mark shape implies one
  /// of the two) — the factorized dirty half of the clean-pair test, which
  /// keeps a single edited row from smearing "dirty" across every node of
  /// the other side.
  std::vector<uint8_t> source_leaf_dirty;
  std::vector<uint8_t> target_leaf_dirty;

  /// Marks leaves(ns) x leaves(nt) dirty.
  void MarkBlockDirty(TreeNodeId ns, TreeNodeId nt) {
    dirty->SetBlock(ns, nt);
    // Bounding dense ranges: a superset for DAG-shaped trees, which only
    // forces recomputation.
    for (int32_t r = source_leaves->range_begin(ns);
         r < source_leaves->range_end(ns); ++r) {
      source_leaf_dirty[static_cast<size_t>(r)] = 1;
    }
    for (int32_t c = target_leaves->range_begin(nt);
         c < target_leaves->range_end(nt); ++c) {
      target_leaf_dirty[static_cast<size_t>(c)] = 1;
    }
  }
  void MarkSourceRowDirty(TreeNodeId x) {
    dirty->SetRowAll(x);
    source_leaf_dirty[static_cast<size_t>(source_leaves->dense(x))] = 1;
  }
  void MarkTargetColDirty(TreeNodeId y) {
    dirty->SetColAll(y);
    target_leaf_dirty[static_cast<size_t>(target_leaves->dense(y))] = 1;
  }
  /// Per current tree node: the node is mapped and the past flags its
  /// element unchanged, so every lsim cell between two flagged nodes is
  /// bitwise equal to its previous counterpart. False is always safe (it
  /// only forces recomputation).
  std::vector<uint8_t> source_lsim_same;
  std::vector<uint8_t> target_lsim_same;
};

/// \brief The structural engine for every configuration
/// SupportsIncrementalTreeMatch accepts: the Figure 3 sweep and the
/// Section 7 recompute run over a visit list and dense leaf matrices.
///
/// Leaf-pair state lives in dense (source leaf x target leaf) matrices
/// whose subtree blocks are contiguous, the per-pair loop iterates a
/// precomputed visit list (the non-leaf pairs surviving the leaf-count
/// prune) instead of the full pair grid, and feedback scales contiguous
/// blocks. Leaf pairs never enter the loop: with leaf_pair_feedback off a
/// leaf pair fires nothing, its sweep-stage wsim mixes the type-seeded ssim
/// (no feedback can touch a leaf pair before its own post-order visit), and
/// its final wsim is produced by the recompute pass.
///
/// A cold run is the engine without a delta: every visit-list pair is
/// scanned and nothing is reused, replayed or gathered. Its scans read
/// strong-link bits kept exact beside the dense leaf ssim; Section 6's ssim
/// is a set quantity, so a word of bits answers 64 leaf-link tests. A warm
/// sweep adds reuse of provably clean pairs from the previous run. It
/// rescans only a few dirty pairs, which would not repay an O(leaves^2) bit
/// build, so it keeps the float scans and builds no sweep bits. The
/// Section 7 recompute is the same popcount pass on both. The warm sweep's correctness rests on three
/// facts. (1) Surviving nodes keep their relative post-order across the
/// supported edits (schema children are appended, removals preserve
/// sibling order), so the feedback events touching any clean leaf pair
/// happen in the same order as before. (2) Feedback scalings are replayed
/// physically, so clean leaf cells evolve through exactly the previous
/// run's value sequence and dirty-pair rescans always read a state equal
/// to what a cold sweep would see at that point. (3) Any feedback decision
/// that diverges from the previous run immediately marks its whole leaf
/// block dirty, so downstream consumers never reuse values the divergence
/// invalidated.
class TreeMatcher : private MatcherBase {
 public:
  TreeMatcher(const SchemaTree& source, const SchemaTree& target,
              const TypeCompatibilityTable& types,
              const TreeMatchOptions& options)
      : MatcherBase(source, target, types, options) {}

  /// The Figure 3 sweep over `layout`, whose visit list it builds; warm
  /// when given a `delta`, cold when it is null.
  TreeMatchResult Sweep(const Matrix<float>& element_lsim,
                        TreeMatchLayout* layout, TreeMatchDelta* delta) {
    obs::ScopedSpan span("treematch.sweep");
    lay_ = layout;
    past_ = delta != nullptr;
    TreeMatchResult result;
    result.sims = NodeSimilarities(s_.num_nodes(), t_.num_nodes());
    auto t0 = std::chrono::steady_clock::now();
    ProjectLsimGather(element_lsim, delta, &result.sims);
    auto t1 = std::chrono::steady_clock::now();
    InitLeafSsimDense();
    if (!past_) MixSweepLeafWsim(&result.sims);
    auto t2 = std::chrono::steady_clock::now();
    BuildVisitList(opt_, layout);
    CountVisitList(&result.stats);
    auto t3 = std::chrono::steady_clock::now();
    if (past_) {
      GatherSweepSsim(*delta, &result.sims);
      ZeroNewlyPrunedSsim(*delta, &result.sims);
    }
    auto t4 = std::chrono::steady_clock::now();
    if (past_) {
      DeriveCleanFlags(*delta);
      ReplayLoop(delta, &result);
    } else {
      for (TreeNodeId ns : s_.post_order()) {
        const int32_t begin = lay_->visit_begin[static_cast<size_t>(ns)];
        const int32_t end = lay_->visit_end[static_cast<size_t>(ns)];
        for (int32_t i = begin; i < end; ++i) {
          VisitPair(ns, lay_->visit_data[static_cast<size_t>(i)],
                    Feedback::kNone, delta, &result);
        }
      }
      // A full grid also compares every leaf pair.
      result.stats.pairs_compared +=
          static_cast<int64_t>(sl().num_leaves()) *
          static_cast<int64_t>(tl().num_leaves());
    }
    auto t5 = std::chrono::steady_clock::now();
    ScatterLeafSsim(&result.sims);
    auto t6 = std::chrono::steady_clock::now();
    if (span.enabled()) {
      auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      span.Attr("alloc_proj_ms", ms(t0, t1));
      span.Attr("init_ms", ms(t1, t2));
      span.Attr("visitbuild_ms", ms(t2, t3));
      span.Attr("prepass_ms", ms(t3, t4));
      span.Attr("loop_ms", ms(t4, t5));
      span.Attr("scatter_ms", ms(t5, t6));
      span.Attr("visit", result.stats.visit_list_pairs);
      span.Attr("inc", result.stats.increases_applied);
      span.Attr("dec", result.stats.decreases_applied);
      span.Attr("reused", result.stats.pairs_reused);
      span.Attr("scale_ops", scale_ops_);
      span.Attr("link_tests", link_tests_);
    }
    result.stats.link_tests = link_tests_;
    result.stats.scale_ops = scale_ops_;
    return result;
  }

  /// \brief The Section 7 pass over the visit list, one body for cold and
  /// warm runs: every leaf pair re-mixes its wsim from the final leaf state
  /// and sets its strong-link bit, the bits are unioned into per-node link
  /// sets, and every visit-list pair counts its strong and included leaves
  /// by popcount over them. `layout` holds the leaf indexes and the visit
  /// list (normally the sweep's). Every other cell is a pruned pair, which
  /// the sweep left at zero.
  void Recompute(const TreeMatchLayout& layout, TreeMatchResult* result) {
    obs::ScopedSpan span("treematch.recompute");
    lay_ = &layout;
    NodeSimilarities* sims = &result->sims;
    auto r0 = std::chrono::steady_clock::now();
    MixFinalLeafWsim(sims);
    auto r1 = std::chrono::steady_clock::now();
    BuildNodeLinkSets();
    auto r2 = std::chrono::steady_clock::now();
    for (TreeNodeId ns : s_.post_order()) {
      const int32_t begin = lay_->visit_begin[static_cast<size_t>(ns)];
      const int32_t end = lay_->visit_end[static_cast<size_t>(ns)];
      for (int32_t i = begin; i < end; ++i) {
        TreeNodeId nt = lay_->visit_data[static_cast<size_t>(i)];
        sims->set_ssim(ns, nt, CountedStructuralSimilarity(ns, nt));
        sims->set_wsim(ns, nt,
                       MixWsim(*sims, ns, nt, sims->ssim(ns, nt), false));
      }
    }
    if (span.enabled()) {
      auto r3 = std::chrono::steady_clock::now();
      auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      span.Attr("dirtymix_ms", ms(r0, r1));
      span.Attr("bits_ms", ms(r1, r2));
      span.Attr("walk_ms", ms(r2, r3));
    }
  }

 private:
  const LeafIndex& sl() const { return lay_->source_leaves; }
  const LeafIndex& tl() const { return lay_->target_leaves; }

  /// Recompute: every leaf pair re-mixes wsim from the final leaf
  /// state, and a strong pair (the mix >= th_accept: LinkStrength's test)
  /// sets its bit in both leaves' link sets — the source leaf's row of
  /// target leaves and the target leaf's row of source leaves.
  void MixFinalLeafWsim(NodeSimilarities* sims) {
    const LeafIndex& sl = lay_->source_leaves;
    const LeafIndex& tl = lay_->target_leaves;
    src_links_.assign(static_cast<size_t>(s_.num_nodes()) * tl.words(), 0);
    tgt_links_.assign(static_cast<size_t>(t_.num_nodes()) * sl.words(), 0);
    for (size_t r = 0; r < sl.num_leaves(); ++r) {
      const TreeNodeId x = sl.leaf(r);
      uint64_t* xrow = src_links_.data() + static_cast<size_t>(x) * tl.words();
      const uint64_t rbit = uint64_t{1} << (r % LeafIndex::kWordBits);
      const size_t rword = r / LeafIndex::kWordBits;
      for (size_t c = 0; c < tl.num_leaves(); ++c) {
        const TreeNodeId y = tl.leaf(c);
        const double strength = MixWsim(*sims, x, y, sims->ssim(x, y), true);
        sims->set_wsim(x, y, strength);
        if (strength >= opt_.th_accept) {
          xrow[c / LeafIndex::kWordBits] |= uint64_t{1}
                                            << (c % LeafIndex::kWordBits);
          tgt_links_[static_cast<size_t>(y) * sl.words() + rword] |= rbit;
        }
      }
    }
  }

  /// Recompute: the per-node link sets. A node's set is the union of
  /// its children's (post-order puts children first, and set union keeps
  /// DAG nodes exact: leaves() is deduplicated), plus each side's counted
  /// masks for the optional discount.
  void BuildNodeLinkSets() {
    auto union_children = [](const SchemaTree& tree, size_t words,
                             std::vector<uint64_t>* links) {
      for (TreeNodeId n : tree.post_order()) {
        uint64_t* row = links->data() + static_cast<size_t>(n) * words;
        for (TreeNodeId c : tree.node(n).children) {
          const uint64_t* crow =
              links->data() + static_cast<size_t>(c) * words;
          for (size_t w = 0; w < words; ++w) row[w] |= crow[w];
        }
      }
    };
    union_children(s_, tl().words(), &src_links_);
    union_children(t_, sl().words(), &tgt_links_);
    BuildCountedMasks(s_, sl(), &s_counted_);
    BuildCountedMasks(t_, tl(), &t_counted_);
  }

  /// Per node, the leaves an unlinked member still counts in `included`:
  /// those non-optional relative to the node (path-relative flags of
  /// leaves()). Left empty without optional discounting, where every leaf
  /// counts and the node's LeafIndex mask serves (see Counted).
  void BuildCountedMasks(const SchemaTree& tree, const LeafIndex& li,
                         std::vector<uint64_t>* out) const {
    out->clear();
    if (!opt_.optional_discount) return;
    out->assign(static_cast<size_t>(tree.num_nodes()) * li.words(), 0);
    for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
      uint64_t* row = out->data() + static_cast<size_t>(n) * li.words();
      for (const LeafRef& lr : tree.leaves(n)) {
        if (lr.optional) continue;
        const size_t j = static_cast<size_t>(li.dense(lr.leaf));
        row[j / LeafIndex::kWordBits] |= uint64_t{1}
                                         << (j % LeafIndex::kWordBits);
      }
    }
  }

  static const uint64_t* Counted(const LeafIndex& li,
                                 const std::vector<uint64_t>& counted,
                                 TreeNodeId n) {
    return counted.empty()
               ? li.mask(n)
               : counted.data() + static_cast<size_t>(n) * li.words();
  }

  /// Recompute: StructuralSimilarity from the link sets, by popcount
  /// over the two nodes' mask spans — the source leaves of ns inside
  /// nt's link set and the target leaves of nt inside ns's.
  double CountedStructuralSimilarity(TreeNodeId ns, TreeNodeId nt) const {
    const LeafIndex& sl = lay_->source_leaves;
    const LeafIndex& tl = lay_->target_leaves;
    int64_t strong = 0, included = 0;
    CountLinkedLeaves(tgt_links_.data() + static_cast<size_t>(nt) * sl.words(),
                      sl.mask(ns), Counted(sl, s_counted_, ns),
                      sl.mask_begin(ns), sl.mask_end(ns), &strong, &included);
    CountLinkedLeaves(src_links_.data() + static_cast<size_t>(ns) * tl.words(),
                      tl.mask(nt), Counted(tl, t_counted_, nt),
                      tl.mask_begin(nt), tl.mask_end(nt), &strong, &included);
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  /// Cold sweep: the sweep-stage wsim of every leaf pair. Feedback only
  /// scales leaf pairs under a strictly later non-leaf pair in post-order,
  /// so a full grid mixes each leaf pair from its type-seeded ssim. The same
  /// mix seeds the strong-link bits the cold scans read, and the target
  /// side's counted masks are built beside them.
  void MixSweepLeafWsim(NodeSimilarities* sims) {
    const size_t nsl = sl().num_leaves();
    const size_t ntl = tl().num_leaves();
    const size_t words = tl().words();
    const double w = opt_.wstruct_leaf;
    Matrix<float>* wsim_m = sims->mutable_wsim_matrix();
    leaf_strong_.assign(nsl * words, 0);
    link_acc_.assign(words, 0);
    for (size_t r = 0; r < nsl; ++r) {
      const float* srow = leaf_ssim_.row(static_cast<int64_t>(r));
      const float* lrow = leaf_lsim_.row(static_cast<int64_t>(r));
      float* wrow = wsim_m->row(sl().leaf(r));
      uint64_t* brow = leaf_strong_.data() + r * words;
      for (size_t c = 0; c < ntl; ++c) {
        const double strength = w * srow[c] + (1.0 - w) * lrow[c];
        wrow[tl().leaf(c)] = static_cast<float>(strength);
        if (strength >= opt_.th_accept) {
          brow[c / LeafIndex::kWordBits] |= uint64_t{1}
                                            << (c % LeafIndex::kWordBits);
        }
      }
    }
    BuildCountedMasks(t_, tl(), &t_counted_);
  }

  bool PruneByLeafCount(TreeNodeId ns, TreeNodeId nt) const {
    return PrunedByLeafCount(opt_, s_.leaves(ns).size(),
                             t_.leaves(nt).size());
  }

  /// Clean-pair test: both endpoints reusable, same projected lsim, and no
  /// dirty leaf pair inside the block. lsim is immutable once projected, so
  /// the previous FINAL matrix supplies the old value.
  bool CanReuse(const NodeSimilarities& sims, const TreeMatchDelta& d,
                TreeNodeId ns, TreeNodeId nt) const {
    if (!d.source_reusable[static_cast<size_t>(ns)] ||
        !d.target_reusable[static_cast<size_t>(nt)]) {
      return false;
    }
    TreeNodeId os = d.source_map[static_cast<size_t>(ns)];
    TreeNodeId ot = d.target_map[static_cast<size_t>(nt)];
    if (sims.lsim(ns, nt) != d.past->result->sims.lsim(os, ot)) return false;
    return !d.dirty->AnyInBlock(ns, nt);
  }

  // ------------------------------------------------- dense leaf state --
  //
  // Per-run dense leaf-pair state: ssim/lsim over (dense source leaf, dense
  // target leaf). Subtree leaf sets occupy contiguous dense ranges (DFS id
  // clustering, certified per node by LeafIndex::range_contiguous), so
  // structural-similarity scans stream rows and feedback scales whole
  // blocks with tight clamp loops.

  /// lsim projection (hoisted column->element index, no per-cell pointer
  /// chasing) plus the dense leaf-pair lsim mirror. Warm, feature-same rows
  /// are copied from the previous run instead.
  void ProjectLsimGather(const Matrix<float>& element_lsim,
                         const TreeMatchDelta* d, NodeSimilarities* sims) {
    const int64_t num_t = t_.num_nodes();
    std::vector<ElementId> t_el(static_cast<size_t>(num_t));
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      t_el[static_cast<size_t>(nt)] = t_.node(nt).source;
    }
    Matrix<float>* lsim_m = sims->mutable_lsim_matrix();
    // Feature-same rows under mapped runs are memcpy'd from the previous
    // final lsim (bit-equal by the locality contract); cells at unmapped or
    // feature-changed target columns — the only ones a copied row could get
    // wrong — are re-projected individually, and every other row falls
    // back to the fresh projection.
    std::vector<IdRun> runs;
    std::vector<TreeNodeId> fix_cols;
    if (past_) {
      runs = BuildMappedIdRuns(d->target_map);
      // Unmapped columns (outside every run) and feature-changed mapped
      // columns both need the fresh projection.
      for (TreeNodeId nt = 0; nt < num_t; ++nt) {
        if (!d->target_lsim_same[static_cast<size_t>(nt)] &&
            t_el[static_cast<size_t>(nt)] != kNoElement) {
          fix_cols.push_back(nt);
        }
      }
    }
    const Matrix<float>* prev_lsim =
        past_ ? &d->past->result->sims.lsim_matrix() : nullptr;
    for (TreeNodeId ns = 0; ns < s_.num_nodes(); ++ns) {
      ElementId es = s_.node(ns).source;
      if (es == kNoElement) continue;
      const float* erow = element_lsim.row(es);
      float* lrow = lsim_m->row(ns);
      if (past_ && d->source_lsim_same[static_cast<size_t>(ns)]) {
        const float* prow =
            prev_lsim->row(d->source_map[static_cast<size_t>(ns)]);
        for (const IdRun& run : runs) {
          std::memcpy(lrow + run.dst, prow + run.src,
                      static_cast<size_t>(run.len) * sizeof(float));
        }
        // fix_cols covers unmapped columns too: lsim_same is 0 for them.
        for (TreeNodeId nt : fix_cols) {
          lrow[nt] = erow[t_el[static_cast<size_t>(nt)]];
        }
        continue;
      }
      for (int64_t nt = 0; nt < num_t; ++nt) {
        ElementId et = t_el[static_cast<size_t>(nt)];
        if (et != kNoElement) lrow[nt] = erow[et];
      }
    }
    const size_t nsl = sl().num_leaves();
    const size_t ntl = tl().num_leaves();
    leaf_lsim_ = Matrix<float>(static_cast<int64_t>(nsl),
                               static_cast<int64_t>(ntl));
    for (size_t r = 0; r < nsl; ++r) {
      const float* lrow = lsim_m->row(sl().leaf(r));
      float* drow = leaf_lsim_.row(static_cast<int64_t>(r));
      for (size_t c = 0; c < ntl; ++c) {
        drow[c] = lrow[tl().leaf(c)];
      }
    }
  }

  /// Type-seeded dense leaf ssim: one template row per distinct source leaf
  /// data type (the values InitLeafSsim would store), memcpy'd into every
  /// leaf row of that type.
  void InitLeafSsimDense() {
    const size_t nsl = sl().num_leaves();
    const size_t ntl = tl().num_leaves();
    leaf_ssim_ = Matrix<float>(static_cast<int64_t>(nsl),
                               static_cast<int64_t>(ntl));
    std::vector<DataType> tgt_type(ntl);
    for (size_t c = 0; c < ntl; ++c) {
      tgt_type[c] =
          t_.schema().element(t_.node(tl().leaf(c)).source)
              .data_type;
    }
    std::map<DataType, std::vector<float>> templates;
    for (size_t r = 0; r < nsl; ++r) {
      DataType ds =
          s_.schema().element(s_.node(sl().leaf(r)).source)
              .data_type;
      auto [it, inserted] = templates.try_emplace(ds);
      if (inserted) {
        it->second.resize(ntl);
        for (size_t c = 0; c < ntl; ++c) {
          it->second[c] = static_cast<float>(types_.Get(ds, tgt_type[c]));
        }
      }
      std::memcpy(leaf_ssim_.row(static_cast<int64_t>(r)), it->second.data(),
                  ntl * sizeof(float));
    }
  }

  /// The visit list's counters: its pairs, and the pairs a full
  /// enumeration would have visited and pruned.
  void CountVisitList(TreeMatchStats* stats) const {
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    int64_t list_pairs = 0;
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      list_pairs += lay_->visit_end[static_cast<size_t>(ns)] -
                    lay_->visit_begin[static_cast<size_t>(ns)];
    }
    stats->visit_list_pairs = list_pairs;
    stats->pairs_pruned_leaf_count =
        num_s * num_t -
        static_cast<int64_t>(sl().num_leaves() * tl().num_leaves()) -
        list_pairs;
  }

  /// A pair pruned NOW but not before holds a stale gathered value: a
  /// pair pruned on both runs holds zero there, and a cold sweep leaves
  /// every pruned pair at zero. A prune decision only flips when an
  /// endpoint's leaf count changed, so only those rows/columns are zeroed.
  /// (Such a pair's previous event, if any, is a divergence the replay
  /// merge marks at its post-order position.)
  void ZeroNewlyPrunedSsim(const TreeMatchDelta& d, NodeSimilarities* sims) {
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    Matrix<float>* ssim_m = sims->mutable_ssim_matrix();
    auto zero_pair = [&](TreeNodeId ns, TreeNodeId nt) {
      if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) return;
      if (PruneByLeafCount(ns, nt)) (*ssim_m)(ns, nt) = 0.0f;
    };
    // Mapped, with a leaf count other than its previous counterpart's
    // (unmapped rows and columns gather nothing).
    auto size_changed = [](const SchemaTree& nw, const SchemaTree& old,
                           const std::vector<TreeNodeId>& map, TreeNodeId n) {
      const TreeNodeId o = map[static_cast<size_t>(n)];
      return o != kNoTreeNode && nw.leaves(n).size() != old.leaves(o).size();
    };
    auto source_changed = [&](TreeNodeId ns) {
      return size_changed(s_, *d.past->source, d.source_map, ns);
    };
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      if (!source_changed(ns)) continue;
      for (TreeNodeId nt = 0; nt < num_t; ++nt) zero_pair(ns, nt);
    }
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!size_changed(t_, *d.past->target, d.target_map, nt)) continue;
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        if (!source_changed(ns)) zero_pair(ns, nt);
      }
    }
  }

  /// One visit-list pair of the sweep: scan (or, warm, reuse), feedback.
  /// Identical decisions, leaf-state evolution and sweep-stage ssim/wsim to
  /// the reference ComparePair. Warm runs also check the decision against
  /// `prev`, the previous run's at the counterpart pair as the replay merge
  /// read it off the event stream, and dirty the pair's leaf block on
  /// divergence.
  void VisitPair(TreeNodeId ns, TreeNodeId nt, Feedback prev,
                 TreeMatchDelta* d, TreeMatchResult* result) {
    NodeSimilarities& sims = result->sims;
    bool reused = false;
    if (past_ && CanReuse(sims, *d, ns, nt)) {
      sims.set_ssim(ns, nt,
                    (*d->past->sweep_ssim)(
                        d->source_map[static_cast<size_t>(ns)],
                        d->target_map[static_cast<size_t>(nt)]));
      reused = true;
      ++result->stats.pairs_reused;
    } else {
      sims.set_ssim(ns, nt, past_ ? SweepStructuralSimilarity(ns, nt)
                                  : SweepLinkBits(ns, nt));
    }
    ++result->stats.pairs_compared;
    double wsim = MixWsim(sims, ns, nt, sims.ssim(ns, nt), false);
    sims.set_wsim(ns, nt, wsim);
    Feedback f = Classify(wsim);
    if (past_ && !reused && f != prev) {
      // The feedback history of every leaf pair under this one now differs
      // from the previous run; nothing below may be reused any more — the
      // per-node clean flags must be re-derived before the next skip.
      d->MarkBlockDirty(ns, nt);
      clean_flags_stale_ = true;
      ++result->stats.feedback_divergences;
    }
    if (f == Feedback::kIncrease) {
      ScaleBlockDense(ns, nt, opt_.c_inc);
      result->events.push_back({ns, nt, int8_t{1}});
      ++result->stats.increases_applied;
    } else if (f == Feedback::kDecrease) {
      ScaleBlockDense(ns, nt, opt_.c_dec);
      result->events.push_back({ns, nt, int8_t{-1}});
      ++result->stats.decreases_applied;
    }
  }

  /// Bulk-copies the previous post-sweep ssim into the new matrix for every
  /// mapped row. The replay loop then writes only non-clean pairs; every
  /// skipped pair's snapshot cell already holds its bit-identical value.
  /// Leaf-pair cells are overwritten by ScatterLeafSsim at the end of the
  /// sweep, and ZeroNewlyPrunedSsim zeroes the cells of pairs pruned now
  /// but not before, so the post-sweep ssim equals a cold sweep's cell for
  /// cell.
  void GatherSweepSsim(const TreeMatchDelta& d, NodeSimilarities* sims) {
    Matrix<float>* ssim_m = sims->mutable_ssim_matrix();
    const Matrix<float>& prev = *d.past->sweep_ssim;
    std::vector<IdRun> runs = BuildMappedIdRuns(d.target_map);
    for (TreeNodeId ns = 0; ns < s_.num_nodes(); ++ns) {
      TreeNodeId os = d.source_map[static_cast<size_t>(ns)];
      if (os == kNoTreeNode) continue;
      float* dst = ssim_m->row(ns);
      const float* src = prev.row(os);
      for (const IdRun& run : runs) {
        std::memcpy(dst + run.dst, src + run.src,
                    static_cast<size_t>(run.len) * sizeof(float));
      }
    }
  }

  /// Per-node clean flags: a pair of clean nodes provably satisfies
  /// CanReuse (both reusable, bit-equal lsim by the locality contract, no
  /// dirty leaf pair anywhere in either node's leaf range — a superset of
  /// the pair's block) and keeps its leaf-count prune decision (a reusable
  /// node kept its leaf count). Divergences mark new dirty blocks
  /// mid-sweep, so the flags are re-derived lazily whenever that happens
  /// (divergences are rare; re-derivation is O(nodes) word tests).
  void DeriveCleanFlags(const TreeMatchDelta& d) {
    clean_flags_stale_ = false;
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    s_clean_.assign(static_cast<size_t>(num_s), 0);
    t_clean_.assign(static_cast<size_t>(num_t), 0);
    // The dirty test uses the side-attributed leaf flags: a clean x clean
    // pair provably has an empty dirty block (see TreeMatchDelta), and a
    // single edited row/column only poisons its own side's nodes. Bounding
    // dense intervals over-approximate for DAG-shaped trees, which only
    // forces recomputation.
    auto range_dirty = [](const std::vector<uint8_t>& flags, int32_t begin,
                          int32_t end) {
      for (int32_t r = begin; r < end; ++r) {
        if (flags[static_cast<size_t>(r)]) return true;
      }
      return false;
    };
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      if (!d.source_reusable[static_cast<size_t>(ns)] ||
          !d.source_lsim_same[static_cast<size_t>(ns)]) {
        continue;
      }
      if (range_dirty(d.source_leaf_dirty, sl().range_begin(ns),
                      sl().range_end(ns))) {
        continue;
      }
      s_clean_[static_cast<size_t>(ns)] = 1;
    }
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!d.target_reusable[static_cast<size_t>(nt)] ||
          !d.target_lsim_same[static_cast<size_t>(nt)]) {
        continue;
      }
      if (range_dirty(d.target_leaf_dirty, tl().range_begin(nt),
                      tl().range_end(nt))) {
        continue;
      }
      t_clean_[static_cast<size_t>(nt)] = 1;
    }
  }

  /// The event-replay sweep: post-order over the visit list, merged with
  /// the previous run's event stream (surviving nodes keep their relative
  /// post-order, so both sequences advance monotonically). The merge is the
  /// one reader of previous decisions: a pair meeting an event had that
  /// decision, every other pair had none. Clean pairs with an event replay
  /// it directly; clean pairs without one are skipped; everything else runs
  /// the full per-pair body. An event whose pair is off the visit list now
  /// (pruned) cannot be replayed, so everything it scaled diverges.
  void ReplayLoop(TreeMatchDelta* d, TreeMatchResult* result) {
    const std::vector<FeedbackEvent>& events = d->past->result->events;
    const int64_t num_t = t_.num_nodes();
    const std::vector<int32_t> tpos = PostOrderPositions(t_);
    const std::vector<int32_t> opos = PostOrderPositions(*d->past->source);
    std::vector<TreeNodeId> old2new_t(
        static_cast<size_t>(d->past->target->num_nodes()), kNoTreeNode);
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      TreeNodeId ot = d->target_map[static_cast<size_t>(nt)];
      if (ot != kNoTreeNode) old2new_t[static_cast<size_t>(ot)] = nt;
    }
    size_t ei = 0;
    for (TreeNodeId ns : s_.post_order()) {
      const int32_t begin = lay_->visit_begin[static_cast<size_t>(ns)];
      const int32_t end = lay_->visit_end[static_cast<size_t>(ns)];
      int32_t i = begin;
      TreeNodeId os = d->source_map[static_cast<size_t>(ns)];
      if (os != kNoTreeNode) {
        // Events of earlier old nodes without a counterpart scaled no
        // surviving leaf: the correspondence claims nodes top-down, so
        // nothing under an unclaimed node is claimed. Drop them.
        while (ei < events.size() && events[ei].source != os &&
               opos[static_cast<size_t>(events[ei].source)] <
                   opos[static_cast<size_t>(os)]) {
          ++ei;
        }
        while (ei < events.size() && events[ei].source == os) {
          const FeedbackEvent& e = events[ei];
          ++ei;
          TreeNodeId ntv = old2new_t[static_cast<size_t>(e.target)];
          if (ntv == kNoTreeNode) continue;  // unclaimed: as above
          while (i < end &&
                 tpos[static_cast<size_t>(
                     lay_->visit_data[static_cast<size_t>(i)])] <
                     tpos[static_cast<size_t>(ntv)]) {
            ProcessNonEventPair(ns, lay_->visit_data[static_cast<size_t>(i)],
                                d, result);
            ++i;
          }
          if (i < end && lay_->visit_data[static_cast<size_t>(i)] == ntv) {
            ++i;
            if (clean_flags_stale_) DeriveCleanFlags(*d);
            if (s_clean_[static_cast<size_t>(ns)] &&
                t_clean_[static_cast<size_t>(ntv)]) {
              // Clean: the decision reproduces bit-for-bit; replay it.
              ScaleBlockDense(ns, ntv,
                              e.direction > 0 ? opt_.c_inc : opt_.c_dec);
              result->events.push_back({ns, ntv, e.direction});
              if (e.direction > 0) {
                ++result->stats.increases_applied;
              } else {
                ++result->stats.decreases_applied;
              }
              ++result->stats.pairs_reused;
            } else {
              VisitPair(ns, ntv,
                        e.direction > 0 ? Feedback::kIncrease
                                        : Feedback::kDecrease,
                        d, result);
            }
          } else {
            d->MarkBlockDirty(ns, ntv);
            clean_flags_stale_ = true;
            ++result->stats.feedback_divergences;
          }
        }
      }
      for (; i < end; ++i) {
        ProcessNonEventPair(ns, lay_->visit_data[static_cast<size_t>(i)], d,
                            result);
      }
    }
  }

  /// One visit-list pair with no previous event: a clean pair fired
  /// nothing before, so it fires nothing now (same inputs, same decision)
  /// and its gathered snapshot cell already holds the value the body would
  /// copy — skip. Everything else runs the body.
  void ProcessNonEventPair(TreeNodeId ns, TreeNodeId nt, TreeMatchDelta* d,
                           TreeMatchResult* result) {
    if (clean_flags_stale_) DeriveCleanFlags(*d);
    if (s_clean_[static_cast<size_t>(ns)] &&
        t_clean_[static_cast<size_t>(nt)]) {
      ++result->stats.pairs_reused;
      return;
    }
    VisitPair(ns, nt, Feedback::kNone, d, result);
  }

  /// Structural similarity over the dense leaf state — LinkStrength's exact
  /// arithmetic (w * ssim + (1.0 - w) * lsim on float loads) streamed over
  /// contiguous dense rows.
  double SweepStructuralSimilarity(TreeNodeId ns, TreeNodeId nt) const {
    const std::vector<LeafRef>& ls = s_.leaves(ns);
    const std::vector<LeafRef>& lt = t_.leaves(nt);
    const double w = opt_.wstruct_leaf;
    const double th = opt_.th_accept;
    const bool col_contig = tl().range_contiguous(nt);
    const int32_t cb = tl().range_begin(nt);
    const int32_t ce = tl().range_end(nt);
    int64_t strong = 0, included = 0;
    for (const LeafRef& x : ls) {
      const int64_t r = sl().dense(x.leaf);
      const float* srow = leaf_ssim_.row(r);
      const float* lrow = leaf_lsim_.row(r);
      bool has_link = false;
      if (col_contig) {
        for (int32_t c = cb; c < ce; ++c) {
          ++link_tests_;
          if (w * srow[c] + (1.0 - w) * lrow[c] >= th) {
            has_link = true;
            break;
          }
        }
      } else {
        for (const LeafRef& y : lt) {
          ++link_tests_;
          int32_t c = tl().dense(y.leaf);
          if (w * srow[c] + (1.0 - w) * lrow[c] >= th) {
            has_link = true;
            break;
          }
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && x.optional)) {
        ++included;
      }
    }
    for (const LeafRef& y : lt) {
      const int32_t c = tl().dense(y.leaf);
      bool has_link = false;
      for (const LeafRef& x : ls) {
        ++link_tests_;
        const int64_t r = sl().dense(x.leaf);
        if (w * leaf_ssim_(r, c) + (1.0 - w) * leaf_lsim_(r, c) >= th) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && y.optional)) {
        ++included;
      }
    }
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  /// Cold sweep: SweepStructuralSimilarity over the strong-link bits, in
  /// one pass over the rows of leaves(ns). A row has a link into leaves(nt)
  /// iff it meets nt's mask; the rows' union is the set of target leaves
  /// with a link into leaves(ns), counted against nt's masks. link_tests
  /// counts the 64-bit words tested.
  double SweepLinkBits(TreeNodeId ns, TreeNodeId nt) {
    const LeafIndex& tl = lay_->target_leaves;
    const size_t words = tl.words();
    const uint64_t* tmask = tl.mask(nt);
    const uint32_t cb = tl.mask_begin(nt), ce = tl.mask_end(nt);
    uint64_t* acc = link_acc_.data();
    std::fill(acc + cb, acc + ce, uint64_t{0});
    int64_t strong = 0, included = 0;
    for (const LeafRef& x : s_.leaves(ns)) {
      const uint64_t* row =
          leaf_strong_.data() +
          static_cast<size_t>(sl().dense(x.leaf)) * words;
      uint64_t hit = 0;
      for (uint32_t w = cb; w < ce; ++w) {
        hit |= row[w] & tmask[w];
        acc[w] |= row[w];
      }
      link_tests_ += ce - cb;
      if (hit != 0) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && x.optional)) {
        ++included;
      }
    }
    CountLinkedLeaves(acc, tmask, Counted(tl, t_counted_, nt), cb, ce, &strong,
                      &included);
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  /// Cold sweep: keeps the strong-link bits of block leaves(ns) x
  /// leaves(nt) equal to the scaled floats. Scaling is monotone in ssim and
  /// the strength in ssim, so an increase (factor > 1) can only set clear
  /// bits and a decrease only clear set ones; only those are re-tested, with
  /// the same double expression MixSweepLeafWsim used.
  void RetestBlockBits(TreeNodeId ns, TreeNodeId nt, double factor) {
    const LeafIndex& sl = lay_->source_leaves;
    const LeafIndex& tl = lay_->target_leaves;
    const size_t words = tl.words();
    const bool increase = factor > 1.0;
    const double w = opt_.wstruct_leaf;
    const uint64_t* rmask = sl.mask(ns);
    const uint64_t* cmask = tl.mask(nt);
    const uint32_t cb = tl.mask_begin(nt), ce = tl.mask_end(nt);
    for (uint32_t rw = sl.mask_begin(ns); rw < sl.mask_end(ns); ++rw) {
      for (uint64_t rows = rmask[rw]; rows != 0; rows &= rows - 1) {
        const size_t r = static_cast<size_t>(rw) * LeafIndex::kWordBits +
                         static_cast<size_t>(__builtin_ctzll(rows));
        const float* srow = leaf_ssim_.row(static_cast<int64_t>(r));
        const float* lrow = leaf_lsim_.row(static_cast<int64_t>(r));
        uint64_t* brow = leaf_strong_.data() + r * words;
        for (uint32_t cw = cb; cw < ce; ++cw) {
          uint64_t todo = (increase ? ~brow[cw] : brow[cw]) & cmask[cw];
          for (; todo != 0; todo &= todo - 1) {
            const unsigned b = static_cast<unsigned>(__builtin_ctzll(todo));
            const size_t c = static_cast<size_t>(cw) * LeafIndex::kWordBits + b;
            if (w * srow[c] + (1.0 - w) * lrow[c] >= opt_.th_accept) {
              brow[cw] |= uint64_t{1} << b;
            } else {
              brow[cw] &= ~(uint64_t{1} << b);
            }
          }
        }
      }
    }
  }

  /// Feedback replay as contiguous block scaling over the dense leaf ssim —
  /// ScaleSsim's exact cast-then-clamp arithmetic, without per-cell 2D
  /// indexing or cache-patching branches. A cold sweep re-tests the
  /// block's strong-link bits after the floats.
  void ScaleBlockDense(TreeNodeId ns, TreeNodeId nt, double factor) {
    ScaleBlockFloats(ns, nt, factor);
    if (!past_) RetestBlockBits(ns, nt, factor);
  }

  void ScaleBlockFloats(TreeNodeId ns, TreeNodeId nt, double factor) {
    const bool contig = sl().range_contiguous(ns) && tl().range_contiguous(nt);
    if (contig) {
      const int32_t rb = sl().range_begin(ns);
      const int32_t re = sl().range_end(ns);
      const int32_t cb = tl().range_begin(nt);
      const int32_t ce = tl().range_end(nt);
      for (int32_t r = rb; r < re; ++r) {
        float* row = leaf_ssim_.row(r);
        for (int32_t c = cb; c < ce; ++c) {
          float v = static_cast<float>(row[c] * factor);
          row[c] = v > 1.0f ? 1.0f : (v < 0.0f ? 0.0f : v);
        }
      }
      scale_ops_ += static_cast<int64_t>(re - rb) * (ce - cb);
      return;
    }
    for (const LeafRef& x : s_.leaves(ns)) {
      float* row = leaf_ssim_.row(sl().dense(x.leaf));
      for (const LeafRef& y : t_.leaves(nt)) {
        ++scale_ops_;
        int32_t c = tl().dense(y.leaf);
        float v = static_cast<float>(row[c] * factor);
        row[c] = v > 1.0f ? 1.0f : (v < 0.0f ? 0.0f : v);
      }
    }
  }

  /// Writes the replayed final leaf state back into the node-pair matrix
  /// (the only leaf-pair ssim cells a from-scratch run materializes there).
  void ScatterLeafSsim(NodeSimilarities* sims) {
    Matrix<float>* ssim_m = sims->mutable_ssim_matrix();
    const size_t nsl = sl().num_leaves();
    const size_t ntl = tl().num_leaves();
    for (size_t r = 0; r < nsl; ++r) {
      float* row = ssim_m->row(sl().leaf(r));
      const float* drow = leaf_ssim_.row(static_cast<int64_t>(r));
      for (size_t c = 0; c < ntl; ++c) {
        row[tl().leaf(c)] = drow[c];
      }
    }
  }

  /// The leaf indexes and visit list of the current pass.
  const TreeMatchLayout* lay_ = nullptr;
  /// Dense leaf-pair ssim and lsim over (dense source leaf, dense target
  /// leaf), plus the per-node clean flags of the warm event-replay fast path.
  Matrix<float> leaf_ssim_;
  Matrix<float> leaf_lsim_;
  /// Cold sweeps only: the strong-link bits beside leaf_ssim_, per dense
  /// source leaf target_leaves->words() words (LeafPairBits' layout), plus
  /// the scan's union accumulator. The recompute's per-node link sets: per
  /// source node the target leaves with a strong link into its leaves, per
  /// target node the source leaves likewise. Counted masks per node: see
  /// BuildCountedMasks.
  std::vector<uint64_t> leaf_strong_;
  std::vector<uint64_t> link_acc_;
  std::vector<uint64_t> src_links_, tgt_links_;
  std::vector<uint64_t> s_counted_, t_counted_;
  std::vector<uint8_t> s_clean_, t_clean_;
  /// A mid-sweep divergence dirtied new leaf blocks; re-derive the clean
  /// flags before trusting them again.
  bool clean_flags_stale_ = false;
  /// The sweep runs warm, from a delta; false for a cold run.
  bool past_ = false;
};

}  // namespace

Status ValidateTreeMatchOptions(const TreeMatchOptions& o) {
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in_unit(o.th_high) || !in_unit(o.th_low) || !in_unit(o.th_accept)) {
    return Status::InvalidArgument("thresholds must be within [0,1]");
  }
  if (o.th_low > o.th_accept || o.th_accept > o.th_high) {
    return Status::InvalidArgument(
        "expected th_low <= th_accept <= th_high (Table 1)");
  }
  if (!in_unit(o.wstruct_leaf) || !in_unit(o.wstruct_nonleaf)) {
    return Status::InvalidArgument("wstruct must be within [0,1]");
  }
  if (o.c_inc < 1.0) {
    return Status::InvalidArgument("c_inc must be >= 1");
  }
  if (o.c_dec <= 0.0 || o.c_dec > 1.0) {
    return Status::InvalidArgument("c_dec must be within (0,1]");
  }
  if (o.leaf_count_ratio > 0.0 && o.leaf_count_ratio < 1.0) {
    return Status::InvalidArgument(
        "leaf_count_ratio must be >= 1 (or <= 0 to disable pruning)");
  }
  if (o.max_leaf_depth < 0) {
    return Status::InvalidArgument("max_leaf_depth must be >= 0");
  }
  if (o.skip_leaves_threshold < 0.0 || o.skip_leaves_threshold > 1.0) {
    return Status::InvalidArgument(
        "skip_leaves_threshold must be within [0,1]");
  }
  return Status::OK();
}

namespace {

Status CheckLsimShape(const SchemaTree& source, const SchemaTree& target,
                      const Matrix<float>& element_lsim) {
  if (element_lsim.rows() != source.schema().num_elements() ||
      element_lsim.cols() != target.schema().num_elements()) {
    return Status::InvalidArgument(
        "element_lsim dimensions do not match the schemas");
  }
  return Status::OK();
}

Status CheckSimsShape(const SchemaTree& source, const SchemaTree& target,
                      const TreeMatchResult& result) {
  if (result.sims.source_nodes() != source.num_nodes() ||
      result.sims.target_nodes() != target.num_nodes()) {
    return Status::InvalidArgument(
        "similarity matrix does not match the trees");
  }
  return Status::OK();
}

Status ValidatePast(const SchemaTree& source, const SchemaTree& target,
                    const TreeMatchPast& past) {
  if (past.source == nullptr || past.target == nullptr ||
      past.element_lsim == nullptr || past.result == nullptr ||
      past.sweep_ssim == nullptr || past.source_element_map == nullptr ||
      past.target_element_map == nullptr || past.source_changed == nullptr ||
      past.target_changed == nullptr) {
    return Status::InvalidArgument("TreeMatchPast is incomplete");
  }
  const int64_t prev_s = past.source->num_nodes();
  const int64_t prev_t = past.target->num_nodes();
  if (past.sweep_ssim->rows() != prev_s || past.sweep_ssim->cols() != prev_t ||
      past.result->sims.source_nodes() != prev_s ||
      past.result->sims.target_nodes() != prev_t) {
    return Status::InvalidArgument(
        "TreeMatchPast similarities do not match the previous trees");
  }
  CUPID_RETURN_NOT_OK(
      CheckLsimShape(*past.source, *past.target, *past.element_lsim));
  const size_t elements_s = static_cast<size_t>(source.schema().num_elements());
  const size_t elements_t = static_cast<size_t>(target.schema().num_elements());
  if (past.source_element_map->size() != elements_s ||
      past.source_changed->size() != elements_s ||
      past.target_element_map->size() != elements_t ||
      past.target_changed->size() != elements_t) {
    return Status::InvalidArgument(
        "TreeMatchPast element maps do not cover the schemas");
  }
  return Status::OK();
}

bool HasJoinViews(const SchemaTree& tree) {
  for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.node(n).is_join_view) return true;
  }
  return false;
}

/// Node correspondence new -> old, read off an element map (per new element,
/// its old element or kNoElement) and anchored at the parent: a node maps to
/// the first unclaimed child of its parent's counterpart whose element is
/// the map's counterpart of its own, so the map stays injective and a mapped
/// node's parent is mapped. Type substitution (Section 8.2) expands a shared
/// type once per context, and the parent tells the contexts apart. Parents
/// precede children in id order (the pre-order build of Figure 4), so one
/// ascending pass suffices; the root maps to the old root when its element
/// maps to the old root's element. A node without a source element stays
/// unmapped. Any map is sound: every value-relevant input is verified
/// independently downstream, so a wrong pairing only costs reuse.
void MapNodes(const SchemaTree& nw, const SchemaTree& old,
              const std::vector<ElementId>& element_map,
              std::vector<TreeNodeId>* map) {
  map->assign(static_cast<size_t>(nw.num_nodes()), kNoTreeNode);
  std::vector<uint8_t> claimed(static_cast<size_t>(old.num_nodes()), 0);
  auto claim = [&](TreeNodeId n, TreeNodeId o) {
    (*map)[static_cast<size_t>(n)] = o;
    claimed[static_cast<size_t>(o)] = 1;
  };
  // Per old node, its first child not yet claimed: the supported edits keep
  // sibling order, so the claimed child is usually the one at the cursor.
  std::vector<size_t> cursor(static_cast<size_t>(old.num_nodes()), 0);
  for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
    const ElementId e = nw.node(n).source;
    if (e == kNoElement) continue;
    const ElementId oe = element_map[static_cast<size_t>(e)];
    if (oe == kNoElement) continue;
    if (n == nw.root()) {
      if (old.num_nodes() > 0 && old.node(old.root()).source == oe) {
        claim(n, old.root());
      }
      continue;
    }
    const TreeNodeId op = (*map)[static_cast<size_t>(nw.node(n).parent)];
    if (op == kNoTreeNode) continue;
    const std::vector<TreeNodeId>& kids = old.node(op).children;
    size_t& first = cursor[static_cast<size_t>(op)];
    for (size_t i = first; i < kids.size(); ++i) {
      const TreeNodeId c = kids[i];
      if (claimed[static_cast<size_t>(c)] || old.node(c).source != oe) {
        continue;
      }
      claim(n, c);
      while (first < kids.size() && claimed[static_cast<size_t>(kids[first])]) {
        ++first;
      }
      break;
    }
  }
}

/// The warm-start replay merge assumes mapped nodes keep their RELATIVE
/// post-order across runs (fact (1) of TreeMatcher). A correspondence that
/// violates the order — conceivable when the element map does not come from
/// the edits (identity over shared ids after a removal) — could let the
/// merge's skip pointer run past a pair's recorded event and so lose its
/// previous decision. Verified in O(N) per side; a correspondence that
/// fails runs the cold sweep (bit-identical, just slower).
bool OrderPreserved(const SchemaTree& nw, const SchemaTree& old,
                    const std::vector<TreeNodeId>& map) {
  const std::vector<int32_t> opos = PostOrderPositions(old);
  int32_t last = -1;
  for (TreeNodeId n : nw.post_order()) {
    TreeNodeId o = map[static_cast<size_t>(n)];
    if (o == kNoTreeNode) continue;
    if (opos[static_cast<size_t>(o)] < last) return false;
    last = opos[static_cast<size_t>(o)];
  }
  return true;
}

/// reusable[n]: n is mapped and its leaf list corresponds entry-for-entry
/// to the old node's (same mapped leaf, same relative optionality). This
/// certifies MEMBERSHIP only — per-cell differences (renamed or retyped
/// leaves) are the dirty bitset's job, so they do not clear the flag. Leaf
/// lists are sorted by node id on both sides and the supported edits
/// preserve the relative order of surviving nodes, so the index-wise
/// comparison is exact; any order perturbation fails the check and
/// degrades to recomputation. A reusable node kept its leaf count.
void ComputeReusable(const SchemaTree& nw, const SchemaTree& old,
                     const std::vector<TreeNodeId>& map,
                     std::vector<uint8_t>* out) {
  out->assign(static_cast<size_t>(nw.num_nodes()), 0);
  for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
    TreeNodeId o = map[static_cast<size_t>(n)];
    if (o == kNoTreeNode) continue;
    const std::vector<LeafRef>& ln = nw.leaves(n);
    const std::vector<LeafRef>& lo = old.leaves(o);
    if (ln.size() != lo.size()) continue;
    bool ok = true;
    for (size_t k = 0; k < ln.size(); ++k) {
      if (map[static_cast<size_t>(ln[k].leaf)] != lo[k].leaf ||
          ln[k].optional != lo[k].optional ||
          !old.IsLeaf(lo[k].leaf)) {
        ok = false;
        break;
      }
    }
    (*out)[static_cast<size_t>(n)] = ok ? 1 : 0;
  }
}

/// The warm sweep's delta relating the current trees to `past`: node
/// correspondence and per-node lsim flags read off the past's element maps,
/// reusable flags, and the seed dirty set (new/retyped leaves as whole
/// rows/columns, changed lsim cells pointwise). Feedback fired by old nodes
/// without a counterpart needs no dirt: the correspondence is closed upward,
/// so no leaf under such a node survives into the new trees. Null when the
/// correspondence breaks the relative post-order (OrderPreserved).
std::unique_ptr<TreeMatchDelta> BuildTreeMatchDelta(
    const SchemaTree& snew, const SchemaTree& tnew,
    const Matrix<float>& element_lsim, const TreeMatchPast& past,
    const TreeMatchLayout& layout) {
  const SchemaTree& sold = *past.source;
  const SchemaTree& told = *past.target;
  auto delta = std::make_unique<TreeMatchDelta>();
  TreeMatchDelta& d = *delta;
  d.past = &past;
  MapNodes(snew, sold, *past.source_element_map, &d.source_map);
  MapNodes(tnew, told, *past.target_element_map, &d.target_map);
  if (!OrderPreserved(snew, sold, d.source_map) ||
      !OrderPreserved(tnew, told, d.target_map)) {
    return nullptr;
  }

  d.source_leaves = &layout.source_leaves;
  d.target_leaves = &layout.target_leaves;
  d.dirty = std::make_unique<LeafPairBits>(d.source_leaves, d.target_leaves);
  d.source_leaf_dirty.assign(d.source_leaves->num_leaves(), 0);
  d.target_leaf_dirty.assign(d.target_leaves->num_leaves(), 0);

  // Lsim-locality flags: a mapped node whose element the past flags
  // unchanged. Its counterpart's element is the map's counterpart of its
  // own, so every lsim cell between two flagged nodes is bitwise equal to
  // the previous run's.
  auto lsim_same = [](const SchemaTree& nw,
                      const std::vector<TreeNodeId>& map,
                      const std::vector<uint8_t>& changed,
                      std::vector<uint8_t>* out) {
    out->assign(static_cast<size_t>(nw.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      if (map[static_cast<size_t>(n)] == kNoTreeNode) continue;
      (*out)[static_cast<size_t>(n)] =
          changed[static_cast<size_t>(nw.node(n).source)] ? 0 : 1;
    }
  };
  lsim_same(snew, d.source_map, *past.source_changed, &d.source_lsim_same);
  lsim_same(tnew, d.target_map, *past.target_changed, &d.target_lsim_same);

  // A leaf is valid iff it maps to an old leaf of the same data type: its
  // type-seeded init ssim row then starts out equal to the previous run's.
  // (Mapped nodes have source elements on both sides.)
  auto leaf_valid = [](const SchemaTree& nw, const SchemaTree& old,
                       const std::vector<TreeNodeId>& map, TreeNodeId x) {
    TreeNodeId o = map[static_cast<size_t>(x)];
    return o != kNoTreeNode && old.IsLeaf(o) &&
           nw.schema().element(nw.node(x).source).data_type ==
               old.schema().element(old.node(o).source).data_type;
  };
  std::vector<uint8_t> s_ok(static_cast<size_t>(snew.num_nodes()), 0);
  std::vector<uint8_t> t_ok(static_cast<size_t>(tnew.num_nodes()), 0);
  for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
    TreeNodeId x = d.source_leaves->leaf(j);
    if (leaf_valid(snew, sold, d.source_map, x)) {
      s_ok[static_cast<size_t>(x)] = 1;
    } else {
      d.MarkSourceRowDirty(x);
    }
  }
  for (size_t j = 0; j < d.target_leaves->num_leaves(); ++j) {
    TreeNodeId y = d.target_leaves->leaf(j);
    if (leaf_valid(tnew, told, d.target_map, y)) {
      t_ok[static_cast<size_t>(y)] = 1;
    } else {
      d.MarkTargetColDirty(y);
    }
  }

  // Changed linguistic similarities dirty their leaf pair. The warm lsim
  // kernel copied every cell between two unchanged elements from the past
  // lsim (linguistic/linguistic_matcher.h), so only cells with a changed
  // side can differ: changed valid source rows are diffed against every
  // valid target column, unchanged rows against the changed valid columns
  // only. A changed cell is dirt-attributed to its changed side(s): any
  // pair block containing the cell contains that row/column, so the
  // clean-pair test needs no more, and a single rename cannot smear
  // "dirty" across every node of the other side.
  {
    struct TgtCol {
      TreeNodeId y;
      ElementId et, oet;
      bool changed;
    };
    std::vector<TgtCol> cols, changed_cols;
    for (size_t k = 0; k < d.target_leaves->num_leaves(); ++k) {
      TreeNodeId y = d.target_leaves->leaf(k);
      if (!t_ok[static_cast<size_t>(y)]) continue;
      const TgtCol col{
          y, tnew.node(y).source,
          told.node(d.target_map[static_cast<size_t>(y)]).source,
          !d.target_lsim_same[static_cast<size_t>(y)]};
      cols.push_back(col);
      if (col.changed) changed_cols.push_back(col);
    }
    for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
      TreeNodeId x = d.source_leaves->leaf(j);
      if (!s_ok[static_cast<size_t>(x)]) continue;
      const bool row_changed = !d.source_lsim_same[static_cast<size_t>(x)];
      const float* new_row = element_lsim.row(snew.node(x).source);
      const float* old_row = past.element_lsim->row(
          sold.node(d.source_map[static_cast<size_t>(x)]).source);
      for (const TgtCol& col : row_changed ? cols : changed_cols) {
        if (new_row[col.et] == old_row[col.oet]) continue;
        d.dirty->Set(x, col.y);
        if (row_changed) d.source_leaf_dirty[j] = 1;
        if (col.changed) {
          d.target_leaf_dirty[static_cast<size_t>(
              d.target_leaves->dense(col.y))] = 1;
        }
      }
    }
  }

  ComputeReusable(snew, sold, d.source_map, &d.source_reusable);
  ComputeReusable(tnew, told, d.target_map, &d.target_reusable);

  return delta;
}

}  // namespace

Result<TreeMatchResult> TreeMatch(const SchemaTree& source,
                                  const SchemaTree& target,
                                  const Matrix<float>& element_lsim,
                                  const TypeCompatibilityTable& types,
                                  const TreeMatchOptions& options,
                                  const TreeMatchPast* past) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  CUPID_RETURN_NOT_OK(CheckLsimShape(source, target, element_lsim));
  if (past != nullptr) CUPID_RETURN_NOT_OK(ValidatePast(source, target, *past));
  if (!SupportsIncrementalTreeMatch(options)) {
    return ReferenceMatcher(source, target, types, options).Run(element_lsim);
  }
  auto t0 = std::chrono::steady_clock::now();
  auto layout = std::make_shared<TreeMatchLayout>(source, target, options);
  std::unique_ptr<TreeMatchDelta> delta;
  double delta_ms = 0.0;
  if (past != nullptr && !HasJoinViews(source) && !HasJoinViews(target) &&
      !HasJoinViews(*past->source) && !HasJoinViews(*past->target)) {
    delta = BuildTreeMatchDelta(source, target, element_lsim, *past, *layout);
    delta_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }
  TreeMatchResult result = TreeMatcher(source, target, types, options)
                               .Sweep(element_lsim, layout.get(), delta.get());
  result.stats.warm = delta != nullptr;
  result.stats.delta_ms = delta_ms;
  result.layout = std::move(layout);
  return result;
}

Status RecomputeNonLeafSimilarities(const SchemaTree& source,
                                    const SchemaTree& target,
                                    const TreeMatchOptions& options,
                                    TreeMatchResult* result) {
  // The sweep's layout serves one recompute: taken off the result here.
  std::shared_ptr<const TreeMatchLayout> layout = std::move(result->layout);
  if (!SupportsIncrementalTreeMatch(options)) {
    return RecomputeNonLeafSimilaritiesReference(source, target, options,
                                                 result);
  }
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  CUPID_RETURN_NOT_OK(CheckSimsShape(source, target, *result));
  if (layout == nullptr || !layout->BuiltFor(source, target, options)) {
    auto built = std::make_shared<TreeMatchLayout>(source, target, options);
    BuildVisitList(options, built.get());
    layout = std::move(built);
  }
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  TreeMatcher(source, target, types, options).Recompute(*layout, result);
  return Status::OK();
}

Result<TreeMatchResult> TreeMatchReference(const SchemaTree& source,
                                           const SchemaTree& target,
                                           const Matrix<float>& element_lsim,
                                           const TypeCompatibilityTable& types,
                                           const TreeMatchOptions& options) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  CUPID_RETURN_NOT_OK(CheckLsimShape(source, target, element_lsim));
  return ReferenceMatcher(source, target, types, options).Run(element_lsim);
}

Status RecomputeNonLeafSimilaritiesReference(const SchemaTree& source,
                                             const SchemaTree& target,
                                             const TreeMatchOptions& options,
                                             TreeMatchResult* result) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  CUPID_RETURN_NOT_OK(CheckSimsShape(source, target, *result));
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  ReferenceMatcher(source, target, types, options).Recompute(result);
  return Status::OK();
}

bool PrunedByLeafCount(const TreeMatchOptions& options, size_t source_leaves,
                       size_t target_leaves) {
  if (options.leaf_count_ratio <= 0.0) return false;
  size_t lo = std::min(source_leaves, target_leaves);
  size_t hi = std::max(source_leaves, target_leaves);
  if (lo == 0) return hi != 0;
  return static_cast<double>(hi) >
         options.leaf_count_ratio * static_cast<double>(lo);
}

bool SupportsIncrementalTreeMatch(const TreeMatchOptions& options) {
  // Depth-pruned frontiers and the skip-leaves fast path consult interior
  // wsim snapshots the dirty-leaf-pair analysis cannot see; lazy expansion
  // propagates whole rows mid-sweep; leaf-pair self-feedback would make
  // leaf wsims event-dependent. Everything else composes.
  return options.max_leaf_depth == 0 && options.skip_leaves_threshold == 0.0 &&
         !options.lazy_expansion && !options.leaf_pair_feedback;
}

}  // namespace cupid
