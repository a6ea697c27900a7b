// The TreeMatch structural matching algorithm (Section 6, Figure 3), with
// the Section 8.4 refinements: optional-leaf discounting, leaf-count
// pruning, depth-k leaf pruning, and lazy expansion of duplicated subtrees.
//
// One engine runs the sweep and the Section 7 recompute for every option set
// SupportsIncrementalTreeMatch accepts: a visit list of the non-leaf pairs
// surviving the leaf-count prune, over dense leaf-pair matrices. Each phase
// has one entry point. TreeMatch runs the sweep, cold or, given a
// TreeMatchPast, warm-started: it decides which itself and reports it in
// TreeMatchStats::warm. A warm sweep reuses the previous run's clean pairs
// on top of the same sweep; how the current trees relate to the previous
// ones stays inside tree_match.cc. A cold sweep keeps the strong-link
// predicate of every leaf pair (leaf wsim >= th_accept) as bits, so its
// scans test 64 leaf links per word; a warm sweep rescans its few dirty
// pairs with float scans. RecomputeNonLeafSimilarities is one body for
// both: it counts links by popcount over per-node link sets, over the leaf
// indexes and visit list the sweep left on its result. TreeMatch is
// serial. The full-grid reference sweep (TreeMatchReference) is the only
// engine for the remaining Section 8.4 variants and the oracle the engine
// is tested against.

#ifndef CUPID_STRUCTURAL_TREE_MATCH_H_
#define CUPID_STRUCTURAL_TREE_MATCH_H_

#include <memory>
#include <vector>

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
  /// The sweep warm-started from a TreeMatchPast; false when it ran cold.
  bool warm = false;
  /// Time spent relating the trees to a TreeMatchPast (the warm-start
  /// delta, leaf indexes included), ms; 0 when no delta was attempted.
  double delta_ms = 0.0;
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

/// The visit-list engine's leaf indexes and visit list over one tree pair
/// (opaque; defined in tree_match.cc).
struct TreeMatchLayout;

/// Result of structural matching.
struct TreeMatchResult {
  NodeSimilarities sims;
  /// The sweep's feedback events in firing order (input of the next
  /// incremental run's clean-pair replay; empty after Recompute-only calls).
  std::vector<FeedbackEvent> events;
  TreeMatchStats stats;
  /// The layout the visit-list sweep ran over, left for
  /// RecomputeNonLeafSimilarities on the same trees, which drops it. Null
  /// after the recompute and for the reference engine.
  std::shared_ptr<const TreeMatchLayout> layout;
};

/// \brief What the previous run of a schema pair left for a warm start, and
/// how the current schemas relate to it. Everything must stay alive and
/// unchanged during the TreeMatch call.
struct TreeMatchPast {
  /// The previous run's trees.
  const SchemaTree* source = nullptr;
  const SchemaTree* target = nullptr;
  /// Its element lsim (TreeMatch's `element_lsim` input then).
  const Matrix<float>* element_lsim = nullptr;
  /// Its final result (after the Section 7 recompute), with the sweep's
  /// feedback events: the one record of the previous run's decisions.
  const TreeMatchResult* result = nullptr;
  /// Its ssim after the sweep, before the recompute.
  const Matrix<float>* sweep_ssim = nullptr;
  /// Per element of the current source (target) schema, its element in the
  /// previous schema or kNoElement. Any map is sound: a wrong pairing only
  /// costs reuse.
  const std::vector<ElementId>* source_element_map = nullptr;
  const std::vector<ElementId>* target_element_map = nullptr;
  /// Per element of the current source (target) schema: unmapped, or its
  /// lsim-relevant features changed. Every lsim cell between two unflagged
  /// elements must equal the previous run's cell bit for bit (the
  /// categorizer's locality contract, linguistic/categorizer.h).
  const std::vector<uint8_t>* source_changed = nullptr;
  const std::vector<uint8_t>* target_changed = nullptr;
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
///
/// With a `past`, the visit-list sweep warm-starts: node pairs whose inputs
/// provably match the previous run's copy their similarities or replay
/// their recorded feedback event, and only pairs reachable from changed
/// leaves (plus pairs whose feedback decision diverges from the previous
/// run's) are rescanned. It warm-starts only when the options are
/// supported, no tree (current or previous) has join-view nodes, and the
/// element maps keep the relative post-order of the nodes they map;
/// otherwise it runs cold. stats.warm says which ran. A malformed past
/// (sizes that do not match the trees or schemas) is InvalidArgument.
///
/// A warm sweep's post-sweep ssim, events and leaf ssim equal a cold
/// sweep's cell for cell, but it writes no leaf-pair wsim and no wsim of
/// pairs it skipped: only after RecomputeNonLeafSimilarities is the result
/// bit-identical to a cold one.
Result<TreeMatchResult> TreeMatch(const SchemaTree& source,
                                  const SchemaTree& target,
                                  const Matrix<float>& element_lsim,
                                  const TypeCompatibilityTable& types,
                                  const TreeMatchOptions& options = {},
                                  const TreeMatchPast* past = nullptr);

/// \brief The second post-order pass of Section 7: recomputes non-leaf ssim
/// and wsim from the *final* leaf similarities, so non-leaf mappings reflect
/// the increases/decreases applied after those pairs were first compared.
/// Mutates `result->sims` in place. Reuses the leaf indexes and visit list
/// the sweep left on `result` when it ran over these trees and options, and
/// builds them otherwise.
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

}  // namespace cupid

#endif  // CUPID_STRUCTURAL_TREE_MATCH_H_
