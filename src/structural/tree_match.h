// The TreeMatch structural matching algorithm (Section 6, Figure 3), with
// the Section 8.4 refinements: optional-leaf discounting, leaf-count
// pruning, depth-k leaf pruning, and lazy expansion of duplicated subtrees.
//
// One engine runs the sweep and the Section 7 recompute for every option set
// SupportsIncrementalTreeMatch accepts: a visit list of the non-leaf pairs
// surviving the leaf-count prune, over dense leaf-pair matrices. A cold
// TreeMatch is that engine with an empty past; a warm TreeMatchIncremental
// adds reuse of the previous run's clean pairs on top of the same sweep. A
// cold sweep keeps the strong-link predicate of every leaf pair (leaf wsim
// >= th_accept) as bits, so its scans test 64 leaf links per word; a warm
// sweep rescans its few dirty pairs with float scans. The Section 7
// recompute is one body for both: it counts links by popcount over
// per-node link sets. TreeMatch is serial. The full-grid reference sweep
// (TreeMatchReference) is the only engine for the remaining Section 8.4
// variants and the oracle the engine is tested against.

#ifndef CUPID_STRUCTURAL_TREE_MATCH_H_
#define CUPID_STRUCTURAL_TREE_MATCH_H_

#include <memory>
#include <vector>

#include "perf/leaf_bitset_index.h"
#include "structural/similarity_matrix.h"
#include "structural/type_compatibility.h"
#include "tree/schema_tree.h"
#include "util/matrix.h"
#include "util/status.h"

namespace cupid {

/// Tunables of structural matching; defaults follow Table 1 of the paper.
struct TreeMatchOptions {
  /// wsim above this increases leaf ssim in the two subtrees (Table 1: 0.6;
  /// should exceed th_accept).
  double th_high = 0.6;
  /// wsim below this decreases leaf ssim (Table 1: 0.35; below th_accept).
  double th_low = 0.35;
  /// Multiplicative leaf-ssim increase factor. Table 1 lists 1.2 as typical
  /// but notes cinc is "a function of maximum schema depth or depth to which
  /// nodes are considered"; 1.3 reproduces the paper's Section 9 outcomes
  /// (e.g. line -> itemNumber found purely structurally) on its depth-3/4
  /// schemas, where 1.2 falls just short of thaccept.
  double c_inc = 1.3;
  /// Multiplicative leaf-ssim decrease factor (Table 1: 0.9 ~= 1/c_inc).
  double c_dec = 0.9;
  /// Strong-link / mapping acceptance threshold (Table 1: 0.5).
  double th_accept = 0.5;
  /// Structural weight in wsim for leaf-leaf pairs (Table 1: lower for
  /// leaves than for non-leaves).
  double wstruct_leaf = 0.5;
  /// Structural weight in wsim for pairs with a non-leaf member.
  double wstruct_nonleaf = 0.6;
  /// Skip comparing elements whose subtree leaf counts differ by more than
  /// this factor (Section 6, "say within a factor of 2"); <= 0 disables.
  /// Values in (0, 1) are InvalidArgument: they would prune every non-leaf
  /// pair, even one of equal leaf counts.
  double leaf_count_ratio = 2.0;
  /// Drop optional leaves with no strong link from both numerator and
  /// denominator of ssim (Section 8.4 "Optionality").
  bool optional_discount = true;
  /// Apply the thhigh/thlow increase/decrease also when the compared pair is
  /// itself a leaf pair (degenerate self-feedback: leaves(s) x leaves(t) is
  /// just {(s,t)}). Figure 3 taken literally does this, but the paper's
  /// rationale — "leaves with highly similar ANCESTORS occur in similar
  /// contexts" — only motivates feedback from non-leaf comparisons, and
  /// self-feedback saturates unrelated leaf pairs toward the cap, erasing
  /// the context ordering Section 8.2 relies on. Off by default;
  /// bench_ablations measures the difference.
  bool leaf_pair_feedback = false;
  /// Inherit similarities of duplicated (shared-type) subtrees from their
  /// first instance instead of recomputing them (Section 8.4 "Lazy
  /// expansion"). Final mappings are preserved; interior copy similarities
  /// are snapshots until RecomputeNonLeafSimilarities re-derives them.
  bool lazy_expansion = false;
  /// If > 0, structural similarity uses the subtree frontier at this depth
  /// instead of true leaves (Section 8.4 "Pruning leaves"). Depth 1 degrades
  /// TreeMatch to immediate-children comparison — the alternative design the
  /// paper argues against; bench_ablations measures the difference.
  int max_leaf_depth = 0;
  /// Section 8.4, last paragraph: "the immediate children of the nodes are
  /// first compared. If a very good match is detected, then the leaf level
  /// similarity computation is skipped." When > 0, a non-leaf pair whose
  /// immediate-children similarity reaches this threshold adopts it as ssim
  /// without scanning the leaf sets. 0 disables (default).
  double skip_leaves_threshold = 0.0;
};

/// Counters describing what a TreeMatch run did.
struct TreeMatchStats {
  /// Node pairs a full-grid sweep compares (leaf pairs included) and prunes
  /// by leaf count; the visit-list engine derives them arithmetically. Warm
  /// runs count only the pairs they rescanned or re-decided.
  int64_t pairs_compared = 0;
  int64_t pairs_pruned_leaf_count = 0;
  int64_t pairs_skipped_lazy = 0;
  /// Leaf-set scans avoided by the skip_leaves_threshold fast path.
  int64_t leaf_scans_skipped = 0;
  int64_t increases_applied = 0;
  int64_t decreases_applied = 0;
  /// Work of the sweep's structural-similarity scans (the dominant sweep
  /// cost on deep schemas). The reference sweep and warm rescans count
  /// leaf-pair link-strength evaluations; a cold visit-list sweep counts the
  /// 64-bit words of strong-link bits it tests.
  int64_t link_tests = 0;
  /// Leaf-pair ssim cells rescaled by increase/decrease feedback.
  int64_t scale_ops = 0;
  /// Warm runs only: sweep visit-list pairs whose post-sweep ssim was
  /// copied from the previous run (or whose feedback event was replayed)
  /// instead of rescanned.
  int64_t pairs_reused = 0;
  /// Visit-list engine only: node pairs on the sweep's visit list (non-leaf
  /// pairs surviving the leaf-count prune). The dense leaf-pair block —
  /// (leaves x leaves) — never enters the per-pair loop at all.
  int64_t visit_list_pairs = 0;
  /// Warm runs only: node pairs whose feedback decision diverged from the
  /// previous run (their leaf blocks were re-marked dirty).
  int64_t feedback_divergences = 0;
};

/// One increase/decrease feedback event of a structural sweep, recorded in
/// firing order (source, then target, post-order). The next incremental run
/// replays the events of provably-clean pairs directly — one block scaling
/// each — instead of recomputing every visit-list decision.
struct FeedbackEvent {
  TreeNodeId source = kNoTreeNode;
  TreeNodeId target = kNoTreeNode;
  /// +1 = increase (c_inc), -1 = decrease (c_dec).
  int8_t direction = 0;
};

/// Result of structural matching.
struct TreeMatchResult {
  NodeSimilarities sims;
  /// The sweep's feedback events in firing order (input of the next
  /// incremental run's clean-pair replay; empty after Recompute-only calls).
  std::vector<FeedbackEvent> events;
  TreeMatchStats stats;
};

/// \brief Runs TreeMatch over two schema trees.
///
/// `element_lsim` is the linguistic similarity table indexed by
/// (ElementId of source schema, ElementId of target schema) — the output of
/// LinguisticMatcher, possibly boosted by an initial mapping. It is
/// projected onto tree nodes through their source elements.
///
/// The algorithm (Figure 3):
///   1. leaf-pair ssim is initialized from `types` (in [0, 0.5]);
///   2. nodes are enumerated in post-order in both trees; for each pair,
///      non-leaf ssim = fraction of the union of the two leaf sets having a
///      strong link (wsim >= th_accept) into the other leaf set;
///   3. wsim = wstruct*ssim + (1-wstruct)*lsim is snapshotted;
///   4. wsim > th_high scales all leaf-pair ssims in the two subtrees by
///      c_inc (capped at 1); wsim < th_low scales them by c_dec.
///
/// Runs the visit-list engine when SupportsIncrementalTreeMatch(options),
/// the reference sweep otherwise; both give bit-identical results.
Result<TreeMatchResult> TreeMatch(const SchemaTree& source,
                                  const SchemaTree& target,
                                  const Matrix<float>& element_lsim,
                                  const TypeCompatibilityTable& types,
                                  const TreeMatchOptions& options = {});

/// \brief The second post-order pass of Section 7: recomputes non-leaf ssim
/// and wsim from the *final* leaf similarities, so non-leaf mappings reflect
/// the increases/decreases applied after those pairs were first compared.
/// Mutates `result->sims` in place.
Status RecomputeNonLeafSimilarities(const SchemaTree& source,
                                    const SchemaTree& target,
                                    const TreeMatchOptions& options,
                                    TreeMatchResult* result);

/// \brief The full-grid reference implementation of Figure 3: every
/// (source, target) node pair is visited in post-order. Supports every
/// option; the only engine for depth-k frontiers, the skip-leaves fast
/// path, lazy expansion and leaf-pair self-feedback, and the bit-identity
/// oracle of the visit-list engine.
Result<TreeMatchResult> TreeMatchReference(const SchemaTree& source,
                                           const SchemaTree& target,
                                           const Matrix<float>& element_lsim,
                                           const TypeCompatibilityTable& types,
                                           const TreeMatchOptions& options = {});

/// \brief The full-grid reference implementation of the Section 7 pass.
Status RecomputeNonLeafSimilaritiesReference(const SchemaTree& source,
                                             const SchemaTree& target,
                                             const TreeMatchOptions& options,
                                             TreeMatchResult* result);

/// \brief Validates option ranges (thresholds within [0,1], factors
/// positive, th_low <= th_accept <= th_high).
Status ValidateTreeMatchOptions(const TreeMatchOptions& options);

// ------------------------------------------------ incremental re-matching --

/// \brief Cross-run warm-start input for TreeMatchIncremental, describing
/// how the current trees relate to the previous run's trees.
///
/// Built by core/match_pipeline.cc (BuildTreeMatchDelta); consumed and
/// MUTATED by TreeMatchIncremental: feedback divergences mark further leaf
/// blocks dirty, and the sweep stores its visit list here for
/// RecomputeNonLeafSimilaritiesIncremental to reuse.
struct TreeMatchDelta {
  /// Per NEW tree node, the corresponding node of the previous run's tree,
  /// or kNoTreeNode. One-to-one; read off the lsim plan's element
  /// correspondence and anchored at the parent's counterpart, so a mapped
  /// node's parent is mapped too.
  std::vector<TreeNodeId> source_map;
  std::vector<TreeNodeId> target_map;
  /// Node is mapped AND its leaf set corresponds leaf-for-leaf to the
  /// previous node's (same mapped leaves, same relative optionality). This
  /// certifies leaf-set MEMBERSHIP only: per-cell differences — renamed or
  /// retyped leaves, changed lsim — live in `dirty`, so any reuse decision
  /// must consult the dirty bits as well, never this flag alone.
  std::vector<uint8_t> source_reusable;
  std::vector<uint8_t> target_reusable;
  /// Dense leaf indexes over the NEW trees.
  std::unique_ptr<LeafIndex> source_leaves;
  std::unique_ptr<LeafIndex> target_leaves;
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
  /// Per NEW tree node: the node is mapped and its true-leaf frontier SIZE
  /// differs from its previous counterpart's. Only such nodes can flip a
  /// gathered pair's leaf-count prune decision, so the warm sweep zeroes
  /// stale post-sweep ssim over these rows/columns alone instead of the
  /// full pair grid (unmapped rows and columns gather nothing).
  std::vector<uint8_t> source_size_changed;
  std::vector<uint8_t> target_size_changed;
  /// Per NEW tree node: the node is mapped and the lsim plan left its
  /// element unchanged (the categorizer's locality contract,
  /// linguistic/categorizer.h), so every lsim cell between two flagged
  /// nodes is bitwise equal to its previous counterpart. False is always
  /// safe (it only forces recomputation).
  std::vector<uint8_t> source_lsim_same;
  std::vector<uint8_t> target_lsim_same;
  /// The previous sweep's feedback events in firing order: replayed on
  /// clean pairs, and the one record of the previous run's decisions.
  const std::vector<FeedbackEvent>* prev_events = nullptr;
  /// The sweep/recompute visit list: per source node, [visit_begin[ns],
  /// visit_end[ns]) spans into visit_data (target nodes in post-order that
  /// form a non-pruned non-leaf pair with ns). Built by TreeMatchIncremental
  /// and shared with RecomputeNonLeafSimilaritiesIncremental.
  std::vector<int32_t> visit_begin, visit_end;
  std::vector<TreeNodeId> visit_data;
  /// The previous run's trees (for the post-order check and the event
  /// merge) and
  /// similarity snapshots: the post-sweep ssim matrix (before the Section 7
  /// recompute; its lsim/wsim companions are never consulted, so only ssim
  /// is kept) and the final NodeSimilarities (after the recompute). The
  /// post-sweep ssim is exact: a warm sweep zeroes the cells of pairs
  /// pruned now, so by induction from a cold start it equals a cold
  /// sweep's ssim cell for cell. All must outlive the incremental calls.
  const SchemaTree* prev_source = nullptr;
  const SchemaTree* prev_target = nullptr;
  const Matrix<float>* prev_sweep_ssim = nullptr;
  const NodeSimilarities* prev_final = nullptr;
};

/// \brief The leaf-count pruning rule of the sweep, over two frontier
/// sizes. One home for the ratio arithmetic of the reference sweep, the
/// visit-list build and the warm sweep's stale-cell zeroing.
bool PrunedByLeafCount(const TreeMatchOptions& options, size_t source_leaves,
                       size_t target_leaves);

/// \brief True iff `options` are in the subset the visit-list engine (cold
/// and warm) supports: true-leaf frontiers (max_leaf_depth == 0), no
/// skip-leaves fast path, no lazy expansion, no leaf-pair self-feedback.
/// Everything else (thresholds, weights, optional discounting, leaf-count
/// pruning) composes with it.
bool SupportsIncrementalTreeMatch(const TreeMatchOptions& options);

/// \brief TreeMatch warm-started from a previous run.
///
/// The same engine as a cold TreeMatch, with a past: node pairs whose
/// inputs provably match the previous run's copy their similarities or
/// replay their recorded feedback event; only pairs reachable from the
/// delta's dirty leaf set (plus pairs whose feedback decision diverges,
/// detected on the fly against the previous run's events) are rescanned.
/// `delta->dirty` is updated in place. A delta whose correspondence breaks
/// the relative post-order of mapped nodes runs the cold sweep.
///
/// The post-sweep ssim, the events and the leaf ssim equal TreeMatch's
/// cell for cell, but the warm sweep writes no leaf-pair wsim and no wsim
/// of pairs it skipped: the result is bit-identical to TreeMatch followed
/// by RecomputeNonLeafSimilarities only after
/// RecomputeNonLeafSimilaritiesIncremental.
Result<TreeMatchResult> TreeMatchIncremental(const SchemaTree& source,
                                             const SchemaTree& target,
                                             const Matrix<float>& element_lsim,
                                             const TypeCompatibilityTable& types,
                                             const TreeMatchOptions& options,
                                             TreeMatchDelta* delta);

/// \brief The Section 7 recompute pass after TreeMatchIncremental: the
/// same popcount pass as RecomputeNonLeafSimilarities, over the delta's
/// leaf indexes and the visit list the sweep left on it (built here when
/// absent). Bit-identical to RecomputeNonLeafSimilarities.
Status RecomputeNonLeafSimilaritiesIncremental(const SchemaTree& source,
                                               const SchemaTree& target,
                                               const TreeMatchOptions& options,
                                               TreeMatchDelta* delta,
                                               TreeMatchResult* result);

}  // namespace cupid

#endif  // CUPID_STRUCTURAL_TREE_MATCH_H_
