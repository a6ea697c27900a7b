#include "core/match_pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "linguistic/lsim_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tree/tree_builder.h"

namespace cupid {

namespace {

/// The `cupid.match.phase_ms.*` histograms: every pipeline run, cold or
/// warm, adds one sample to each (a phase that did not run adds 0).
struct PhaseHistograms {
  obs::Histogram* linguistic;
  obs::Histogram* trees;
  obs::Histogram* delta;
  obs::Histogram* sweep;
  obs::Histogram* recompute;
  obs::Histogram* mapping;

  static const PhaseHistograms& Get() {
    static const PhaseHistograms histograms = [] {
      obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
      auto get = [reg](const char* name, const char* help) {
        return reg->GetHistogram(name, help);
      };
      return PhaseHistograms{
          get("cupid.match.phase_ms.linguistic",
              "Match pipeline: linguistic phase (cold match or gather), ms"),
          get("cupid.match.phase_ms.trees",
              "Match pipeline: schema tree builds, ms"),
          get("cupid.match.phase_ms.delta",
              "Match pipeline: warm-start delta build (0 when cold), ms"),
          get("cupid.match.phase_ms.sweep",
              "Match pipeline: TreeMatch sweep, ms"),
          get("cupid.match.phase_ms.recompute",
              "Match pipeline: Section 7 non-leaf recompute, ms"),
          get("cupid.match.phase_ms.mapping",
              "Match pipeline: mapping generation, ms")};
    }();
    return histograms;
  }
};

bool HasJoinViews(const SchemaTree& tree) {
  for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.node(n).is_join_view) return true;
  }
  return false;
}

/// Nodes grouped by context path (same-named siblings share one), read
/// off the tree's stored paths and path index. Per node: `first`, the
/// group's lowest id (FindNodeByPath's answer), and `rank`, the node's
/// position in its group by id; `size` is indexed by a group's first id.
struct PathGroups {
  std::vector<size_t> first, rank, size;
};

PathGroups GroupByPath(const SchemaTree& tree) {
  const size_t n = static_cast<size_t>(tree.num_nodes());
  PathGroups g;
  g.first.resize(n);
  g.rank.resize(n);
  g.size.assign(n, 0);
  for (size_t v = 0; v < n; ++v) {
    const size_t f = static_cast<size_t>(
        tree.FindNodeByPath(tree.PathName(static_cast<TreeNodeId>(v))));
    g.first[v] = f;
    g.rank[v] = g.size[f]++;
  }
  return g;
}

/// Node correspondence new -> old by context path. Same-named siblings make
/// paths non-unique; occurrences are paired BY RANK when both trees hold
/// the same number (sound: the supported edits preserve the relative order
/// of surviving nodes, and every value-relevant input is still verified
/// independently — leaf sets, data types, lsim cells — so even an identity
/// mix-up between structurally interchangeable duplicates cannot change
/// values). Groups whose sizes differ map to kNoTreeNode: ambiguity
/// degrades to recomputation, never to reuse of wrong values.
void MapByPath(const SchemaTree& nw, const SchemaTree& old,
               std::vector<TreeNodeId>* map) {
  // An unedited side passes the previous run's tree as both `nw` and `old`
  // (the pipeline only builds the trees of edited sides), so node ids
  // coincide and the map is the identity — no paths needed.
  if (&nw.schema() == &old.schema() && nw.num_nodes() == old.num_nodes()) {
    map->resize(static_cast<size_t>(nw.num_nodes()));
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      (*map)[static_cast<size_t>(n)] = n;
    }
    return;
  }
  // Identity-first for equal-size rebuilt trees: in-place edits (renames,
  // retypes) keep node ids stable, and a renamed node's identity image IS
  // its old self — which path mapping only recovers via child alignment.
  // Any map is sound (every value-relevant input is verified
  // independently downstream), so the name-mismatch threshold is purely a
  // reuse-quality heuristic; adds/removes change the node count and fall
  // through to path mapping.
  if (nw.num_nodes() == old.num_nodes()) {
    const int64_t thr =
        std::max<int64_t>(4, static_cast<int64_t>(nw.num_nodes()) / 64);
    int64_t mismatches = 0;
    for (TreeNodeId n = 0; n < nw.num_nodes() && mismatches <= thr; ++n) {
      if (nw.NodeName(n) != old.NodeName(n) ||
          nw.node(n).parent != old.node(n).parent) {
        ++mismatches;
      }
    }
    if (mismatches <= thr) {
      map->resize(static_cast<size_t>(nw.num_nodes()));
      for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
        (*map)[static_cast<size_t>(n)] = n;
      }
      return;
    }
  }
  const PathGroups og = GroupByPath(old);
  const PathGroups ng = GroupByPath(nw);
  // Old group members laid out group by group, each in id order: the k-th
  // member of the group whose first id is f sits at members[start[f] + k].
  const size_t num_old = static_cast<size_t>(old.num_nodes());
  std::vector<size_t> start(num_old, 0);
  for (size_t o = 0, at = 0; o < num_old; ++o) {
    if (og.first[o] != o) continue;
    start[o] = at;
    at += og.size[o];
  }
  std::vector<TreeNodeId> members(num_old);
  for (size_t o = 0; o < num_old; ++o) {
    members[start[og.first[o]] + og.rank[o]] = static_cast<TreeNodeId>(o);
  }
  map->assign(static_cast<size_t>(nw.num_nodes()), kNoTreeNode);
  for (size_t n = 0; n < map->size(); ++n) {
    const TreeNodeId f =
        old.FindNodeByPath(nw.PathName(static_cast<TreeNodeId>(n)));
    if (f == kNoTreeNode) continue;
    const size_t of = static_cast<size_t>(f);
    if (og.size[of] != ng.size[ng.first[n]]) continue;
    (*map)[n] = members[start[of] + ng.rank[n]];
  }
}

/// reusable[n]: n is mapped and its leaf list corresponds entry-for-entry
/// to the old node's (same mapped leaf, same relative optionality). This
/// certifies MEMBERSHIP only — per-cell differences (renamed or retyped
/// leaves) are the dirty bitset's job, so they do not clear the flag. Leaf
/// lists are sorted by node id on both sides and the supported edits
/// preserve the relative order of surviving nodes, so the index-wise
/// comparison is exact; any order perturbation fails the check and
/// degrades to recomputation.
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

/// The warm-start input relating the new trees to the previous run's state:
/// node correspondence, reusable flags, and the seed dirty set (new/retyped
/// leaves as whole rows/columns, changed lsim cells pointwise, and the
/// blocks of feedback events fired by old nodes that have no new
/// counterpart). Changed lsim cells are found by diffing the ELEMENT-level
/// lsim tables of the two runs row-wise under the element correspondence
/// (rows that are bitwise identical are dismissed with one memcmp).
TreeMatchDelta BuildTreeMatchDelta(const SchemaTree& snew,
                                   const SchemaTree& tnew,
                                   const Matrix<float>& element_lsim,
                                   const SchemaTree& sold,
                                   const SchemaTree& told,
                                   const Matrix<float>& prev_sweep_ssim,
                                   const NodeSimilarities& prev_final,
                                   const Matrix<float>& prev_element_lsim,
                                   const TreeMatchOptions& options) {
  TreeMatchDelta d;
  d.prev_source = &sold;
  d.prev_target = &told;
  d.prev_sweep_ssim = &prev_sweep_ssim;
  d.prev_final = &prev_final;
  MapByPath(snew, sold, &d.source_map);
  MapByPath(tnew, told, &d.target_map);

  // Order-based alignment of unmapped children under corresponding
  // parents: a rename keeps element identity but changes every descendant
  // path, so path mapping alone loses the whole subtree. Pairing the
  // unmapped children of mapped parents by position (sibling order is
  // preserved by the supported edits) recovers it, recursively — parents
  // precede children in id order, so one ascending pass suffices. A wrong
  // pairing (say, a remove plus an add in one batch) is harmless: every
  // value-relevant input is verified independently downstream.
  auto align_children = [](const SchemaTree& nw, const SchemaTree& old,
                           std::vector<TreeNodeId>* map) {
    std::vector<uint8_t> covered(static_cast<size_t>(old.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = (*map)[static_cast<size_t>(n)];
      if (o != kNoTreeNode) covered[static_cast<size_t>(o)] = 1;
    }
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = (*map)[static_cast<size_t>(n)];
      if (o == kNoTreeNode) continue;
      std::vector<TreeNodeId> new_unmapped, old_uncovered;
      for (TreeNodeId c : nw.node(n).children) {
        if ((*map)[static_cast<size_t>(c)] == kNoTreeNode) {
          new_unmapped.push_back(c);
        }
      }
      for (TreeNodeId c : old.node(o).children) {
        if (!covered[static_cast<size_t>(c)]) old_uncovered.push_back(c);
      }
      if (new_unmapped.empty() || new_unmapped.size() != old_uncovered.size()) {
        continue;
      }
      for (size_t i = 0; i < new_unmapped.size(); ++i) {
        (*map)[static_cast<size_t>(new_unmapped[i])] = old_uncovered[i];
        covered[static_cast<size_t>(old_uncovered[i])] = 1;
      }
    }
  };
  align_children(snew, sold, &d.source_map);
  align_children(tnew, told, &d.target_map);

  d.source_leaves = std::make_unique<LeafIndex>(snew);
  d.target_leaves = std::make_unique<LeafIndex>(tnew);
  d.dirty =
      std::make_unique<LeafPairBits>(d.source_leaves.get(),
                                     d.target_leaves.get());
  d.source_leaf_dirty.assign(d.source_leaves->num_leaves(), 0);
  d.target_leaf_dirty.assign(d.target_leaves->num_leaves(), 0);

  // Lsim-locality flags: a node whose element kept every lsim-relevant
  // local feature (and maps to a previous node) has bit-equal lsim against
  // any other flagged node — the per-node half of the gather engine's
  // clean-pair test (linguistic/linguistic_matcher.h). Computed before the
  // lsim diff below so changed cells can be dirt-attributed to the side
  // whose element actually changed.
  auto lsim_same = [](const SchemaTree& nw, const SchemaTree& old,
                      const std::vector<TreeNodeId>& map,
                      std::vector<uint8_t>* out) {
    out->assign(static_cast<size_t>(nw.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = map[static_cast<size_t>(n)];
      if (o == kNoTreeNode) continue;
      ElementId en = nw.node(n).source;
      ElementId eo = old.node(o).source;
      if (en == kNoElement || eo == kNoElement) {
        // Element-less nodes project no lsim at all; both-less is a match.
        (*out)[static_cast<size_t>(n)] =
            (en == kNoElement && eo == kNoElement) ? 1 : 0;
        continue;
      }
      (*out)[static_cast<size_t>(n)] =
          SameLsimElementFeatures(nw.schema(), en, old.schema(), eo) ? 1 : 0;
    }
  };
  lsim_same(snew, sold, d.source_map, &d.source_lsim_same);
  lsim_same(tnew, told, d.target_map, &d.target_lsim_same);

  // A leaf is valid iff it maps to an old leaf of the same data type: its
  // type-seeded init ssim row then starts out equal to the previous run's.
  auto leaf_valid = [](const SchemaTree& nw, const SchemaTree& old,
                       const std::vector<TreeNodeId>& map, TreeNodeId x) {
    TreeNodeId o = map[static_cast<size_t>(x)];
    if (o == kNoTreeNode || !old.IsLeaf(o)) return false;
    ElementId en = nw.node(x).source;
    ElementId eo = old.node(o).source;
    if (en == kNoElement || eo == kNoElement) return false;
    return nw.schema().element(en).data_type ==
           old.schema().element(eo).data_type;
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

  // Changed linguistic similarities dirty their leaf pair (renames change
  // whole rows; categorization ripples are caught cell by cell since the
  // new lsim is available in full before this diff). The comparison runs
  // over the ELEMENT matrices of the two runs: per valid source leaf, the
  // new element row is checked against the previous run's — one memcmp
  // dismisses a bitwise-identical row when the valid target columns align
  // position-for-position (the common case: target untouched), and only
  // rows that differ walk their cells.
  {
    struct TgtCol {
      TreeNodeId y;
      ElementId et, oet;
    };
    std::vector<TgtCol> cols;
    cols.reserve(d.target_leaves->num_leaves());
    bool cols_aligned =
        element_lsim.cols() == prev_element_lsim.cols();
    for (size_t k = 0; k < d.target_leaves->num_leaves(); ++k) {
      TreeNodeId y = d.target_leaves->leaf(k);
      if (!t_ok[static_cast<size_t>(y)]) continue;
      TreeNodeId oy = d.target_map[static_cast<size_t>(y)];
      ElementId et = tnew.node(y).source;
      ElementId oet = told.node(oy).source;
      cols.push_back({y, et, oet});
      if (et != oet) cols_aligned = false;
    }
    const size_t row_bytes =
        static_cast<size_t>(element_lsim.cols()) * sizeof(float);
    // A changed cell is dirt-attributed to the side whose element features
    // changed (a row-shaped change flags only its source leaf, a
    // column-shaped one only its target leaf): any pair block containing
    // the cell contains that row/column, so one side always suffices for
    // the clean-pair test, and a single rename cannot smear "dirty" across
    // every node of the other side. Unattributable differences (both
    // sides feature-identical, which the locality contract rules out) flag
    // both sides defensively.
    auto mark_lsim_cell = [&](TreeNodeId x, TreeNodeId y) {
      d.dirty->Set(x, y);
      const bool src_changed = !d.source_lsim_same[static_cast<size_t>(x)];
      const bool tgt_changed = !d.target_lsim_same[static_cast<size_t>(y)];
      if (src_changed || !tgt_changed) {
        d.source_leaf_dirty[static_cast<size_t>(
            d.source_leaves->dense(x))] = 1;
      }
      if (tgt_changed || !src_changed) {
        d.target_leaf_dirty[static_cast<size_t>(
            d.target_leaves->dense(y))] = 1;
      }
    };
    for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
      TreeNodeId x = d.source_leaves->leaf(j);
      if (!s_ok[static_cast<size_t>(x)]) continue;
      ElementId es = snew.node(x).source;
      ElementId oes = sold.node(
          d.source_map[static_cast<size_t>(x)]).source;
      const float* new_row = element_lsim.row(es);
      const float* old_row = prev_element_lsim.row(oes);
      if (cols_aligned &&
          std::memcmp(new_row, old_row, row_bytes) == 0) {
        continue;
      }
      for (const TgtCol& col : cols) {
        if (new_row[col.et] != old_row[col.oet]) {
          mark_lsim_cell(x, col.y);
        }
      }
    }
  }

  // Reverse coverage: the sweep's runtime divergence check compares each
  // NEW pair's feedback against its OLD counterpart, so feedback fired by
  // old nodes with no new counterpart ("orphans" — removed nodes, or nodes
  // whose path became ambiguous) would go unseen. Re-derive those events
  // from the previous snapshot and dirty everything they scaled. Orphaned
  // LEAVES need nothing here: their surviving partners' rows/columns are
  // handled above, and their own cells are gone.
  std::vector<uint8_t> covered_s(static_cast<size_t>(sold.num_nodes()), 0);
  std::vector<uint8_t> covered_t(static_cast<size_t>(told.num_nodes()), 0);
  for (TreeNodeId n = 0; n < snew.num_nodes(); ++n) {
    if (d.source_map[static_cast<size_t>(n)] != kNoTreeNode) {
      covered_s[static_cast<size_t>(d.source_map[static_cast<size_t>(n)])] = 1;
    }
  }
  for (TreeNodeId n = 0; n < tnew.num_nodes(); ++n) {
    if (d.target_map[static_cast<size_t>(n)] != kNoTreeNode) {
      covered_t[static_cast<size_t>(d.target_map[static_cast<size_t>(n)])] = 1;
    }
  }
  std::vector<TreeNodeId> old2new_s(static_cast<size_t>(sold.num_nodes()),
                                    kNoTreeNode);
  std::vector<TreeNodeId> old2new_t(static_cast<size_t>(told.num_nodes()),
                                    kNoTreeNode);
  for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
    TreeNodeId x = d.source_leaves->leaf(j);
    TreeNodeId o = d.source_map[static_cast<size_t>(x)];
    if (o != kNoTreeNode) old2new_s[static_cast<size_t>(o)] = x;
  }
  for (size_t j = 0; j < d.target_leaves->num_leaves(); ++j) {
    TreeNodeId y = d.target_leaves->leaf(j);
    TreeNodeId o = d.target_map[static_cast<size_t>(y)];
    if (o != kNoTreeNode) old2new_t[static_cast<size_t>(o)] = y;
  }
  // Did the old sweep fire increase/decrease feedback at (os, ot)?
  // (PrevFeedbackDecision holds ComparePair's exact decision arithmetic.)
  auto old_feedback_fired = [&](TreeNodeId os, TreeNodeId ot) {
    return PrevFeedbackDecision(options, sold, told, prev_sweep_ssim,
                                prev_final, os, ot) != 0;
  };
  auto dirty_old_block = [&](TreeNodeId os, TreeNodeId ot) {
    for (const LeafRef& lx : sold.leaves(os)) {
      TreeNodeId nx = old2new_s[static_cast<size_t>(lx.leaf)];
      if (nx == kNoTreeNode) continue;  // removed/unmapped: already dirty
      for (const LeafRef& ly : told.leaves(ot)) {
        TreeNodeId ny = old2new_t[static_cast<size_t>(ly.leaf)];
        if (ny == kNoTreeNode) continue;
        d.MarkPairDirty(nx, ny);
      }
    }
  };
  for (TreeNodeId os = 0; os < sold.num_nodes(); ++os) {
    if (covered_s[static_cast<size_t>(os)] || sold.IsLeaf(os)) continue;
    for (TreeNodeId ot = 0; ot < told.num_nodes(); ++ot) {
      if (old_feedback_fired(os, ot)) dirty_old_block(os, ot);
    }
  }
  for (TreeNodeId ot = 0; ot < told.num_nodes(); ++ot) {
    if (covered_t[static_cast<size_t>(ot)] || told.IsLeaf(ot)) continue;
    for (TreeNodeId os = 0; os < sold.num_nodes(); ++os) {
      // Orphan-source pairs were handled by the loop above.
      if (!covered_s[static_cast<size_t>(os)] && !sold.IsLeaf(os)) continue;
      if (old_feedback_fired(os, ot)) dirty_old_block(os, ot);
    }
  }

  ComputeReusable(snew, sold, d.source_map, &d.source_reusable);
  ComputeReusable(tnew, told, d.target_map, &d.target_reusable);

  // Leaf-count change flags (mapped nodes whose true-leaf frontier size
  // differs from the previous counterpart's): the only rows/columns where
  // a leaf-count prune decision can flip, so the gather engine restricts
  // its prune-divergence checks and stale-cell fixups to them.
  auto size_changed = [](const SchemaTree& nw, const SchemaTree& old,
                         const std::vector<TreeNodeId>& map,
                         std::vector<uint8_t>* out) {
    out->assign(static_cast<size_t>(nw.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = map[static_cast<size_t>(n)];
      if (o != kNoTreeNode &&
          nw.leaves(n).size() != old.leaves(o).size()) {
        (*out)[static_cast<size_t>(n)] = 1;
      }
    }
  };
  size_changed(snew, sold, d.source_map, &d.source_size_changed);
  size_changed(tnew, told, d.target_map, &d.target_size_changed);

  return d;
}

}  // namespace

Result<MatchResult> RunMatchPipeline(const Thesaurus* thesaurus,
                                     const CupidConfig& config,
                                     const Schema& source,
                                     const Schema& target,
                                     const InitialMapping& hints,
                                     LsimCache* cache, MatchPast* past,
                                     MatchSnapshot* snapshot,
                                     const char* span_name) {
  CUPID_RETURN_NOT_OK(config.Validate());
  if (past != nullptr && !hints.empty()) {
    return Status::InvalidArgument(
        "initial-mapping hints apply to cold matches only");
  }
  obs::ScopedSpan span(span_name);
  auto t0 = std::chrono::steady_clock::now();

  // Phase 1: linguistic matching on the schema graphs ("the linguistic
  // matching process is unaffected" by graph extensions, Section 8.2). A
  // warm run gathers: unchanged element rows are copied from the past's
  // lsim, only changed rows and columns are scattered, and an unedited side
  // keeps the past's preparation.
  LinguisticMatcher linguistic(thesaurus, config.linguistic);
  LsimPast lsim_past;
  if (past != nullptr) {
    lsim_past.result = &past->result->linguistic;
    lsim_past.plan =
        BuildLsimGatherPlan(source, target, *past->source, *past->target);
  }
  CUPID_ASSIGN_OR_RETURN(LinguisticResult lres,
                         linguistic.Match(source, target, cache, lsim_past));
  // Initial-mapping hints raise lsim to the configured maximum.
  for (const InitialMappingEntry& hint : hints) {
    ElementId es = source.FindByPath(hint.source_path);
    ElementId et = target.FindByPath(hint.target_path);
    if (es == kNoElement) {
      return Status::NotFound("initial mapping path not in source schema: " +
                              hint.source_path);
    }
    if (et == kNoElement) {
      return Status::NotFound("initial mapping path not in target schema: " +
                              hint.target_path);
    }
    lres.lsim(es, et) = std::max<float>(
        lres.lsim(es, et), static_cast<float>(config.initial_mapping_boost));
  }
  auto t1 = std::chrono::steady_clock::now();

  // Phase 2: schema trees, then TreeMatch. A side whose schema is the past's
  // reads the past's tree in place and takes it over at the end; a side
  // with a new schema builds its tree.
  const bool reuse_source = past != nullptr && &source == past->source;
  const bool reuse_target = past != nullptr && &target == past->target;
  SchemaTree built_source{nullptr}, built_target{nullptr};
  if (!reuse_source) {
    CUPID_ASSIGN_OR_RETURN(built_source,
                           BuildSchemaTree(source, config.tree_build));
  }
  if (!reuse_target) {
    CUPID_ASSIGN_OR_RETURN(built_target,
                           BuildSchemaTree(target, config.tree_build));
  }
  const SchemaTree& source_tree =
      reuse_source ? past->result->source_tree : built_source;
  const SchemaTree& target_tree =
      reuse_target ? past->result->target_tree : built_target;
  const bool warm = past != nullptr &&
                    SupportsIncrementalTreeMatch(config.tree_match) &&
                    !HasJoinViews(source_tree) && !HasJoinViews(target_tree) &&
                    !HasJoinViews(past->result->source_tree) &&
                    !HasJoinViews(past->result->target_tree);
  TreeMatchDelta delta;
  auto t2 = std::chrono::steady_clock::now();
  auto t3 = t2;  // a cold run builds no delta
  if (warm) {
    const MatchResult& prev = *past->result;
    delta = BuildTreeMatchDelta(
        source_tree, target_tree, lres.lsim, prev.source_tree,
        prev.target_tree, *past->sweep_ssim, prev.tree_match.sims,
        prev.linguistic.lsim, config.tree_match);
    delta.prev_events = &prev.tree_match.events;
    t3 = std::chrono::steady_clock::now();
  }
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tmres,
      warm ? TreeMatchIncremental(source_tree, target_tree, lres.lsim,
                                  config.type_compatibility, config.tree_match,
                                  &delta)
           : TreeMatch(source_tree, target_tree, lres.lsim,
                       config.type_compatibility, config.tree_match));
  auto t4 = std::chrono::steady_clock::now();
  if (snapshot != nullptr) snapshot->sweep_ssim = tmres.sims.ssim_matrix();

  // Phase 3: the Section 7 second pass, then mapping generation.
  CUPID_RETURN_NOT_OK(
      warm ? RecomputeNonLeafSimilaritiesIncremental(
                 source_tree, target_tree, config.tree_match, &delta, &tmres)
           : RecomputeNonLeafSimilarities(source_tree, target_tree,
                                          config.tree_match, &tmres));
  auto t5 = std::chrono::steady_clock::now();
  Mapping leaf_mapping, nonleaf_mapping;
  CUPID_RETURN_NOT_OK(GenerateStandardMappings(source_tree, target_tree,
                                               tmres, config, &leaf_mapping,
                                               &nonleaf_mapping));
  auto t6 = std::chrono::steady_clock::now();

  MatchResult result{
      std::move(reuse_source ? past->result->source_tree : built_source),
      std::move(reuse_target ? past->result->target_tree : built_target),
      std::move(lres), std::move(tmres), std::move(leaf_mapping),
      std::move(nonleaf_mapping)};
  if (snapshot != nullptr) snapshot->warm = warm;
  auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const PhaseHistograms& phases = PhaseHistograms::Get();
  phases.linguistic->Observe(ms(t0, t1));
  phases.trees->Observe(ms(t1, t2));
  phases.delta->Observe(ms(t2, t3));
  phases.sweep->Observe(ms(t3, t4));
  phases.recompute->Observe(ms(t4, t5));
  phases.mapping->Observe(ms(t5, t6));
  if (span.enabled()) {
    auto t7 = std::chrono::steady_clock::now();
    span.Attr("linguistic_ms", ms(t0, t1));
    span.Attr("trees_ms", ms(t1, t2));
    span.Attr("delta_ms", ms(t2, t3));
    span.Attr("sweep_ms", ms(t3, t4));
    span.Attr("recompute_ms", ms(t4, t5));
    span.Attr("mapping_ms", ms(t5, t6));
    span.Attr("commit_ms", ms(t6, t7));
    span.Attr("warm", warm ? 1 : 0);
    span.Attr("gathered_rows", result.linguistic.gathered_rows);
  }
  return result;
}

}  // namespace cupid
