#include "core/match_pipeline.h"

#include <algorithm>
#include <chrono>
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

/// Node correspondence new -> old, read off the lsim plan's element map
/// (`element_map`) and anchored at the parent: a node maps to the first
/// unclaimed child of its parent's counterpart whose element is the plan's
/// counterpart of its own, so the map stays injective and a mapped node's
/// parent is mapped. Type substitution (Section 8.2) expands a shared type once
/// per context, and the parent tells the contexts apart. Parents precede
/// children in id order (the pre-order build of Figure 4), so one
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
/// node correspondence and per-node lsim flags read off the lsim plan of the
/// same run, reusable flags, and the seed dirty set (new/retyped leaves as
/// whole rows/columns, changed lsim cells pointwise). Feedback fired by old
/// nodes without a counterpart needs no dirt: the correspondence is closed
/// upward, so no leaf under such a node survives into the new trees.
TreeMatchDelta BuildTreeMatchDelta(
    const SchemaTree& snew, const SchemaTree& tnew,
    const Matrix<float>& element_lsim, const LsimGatherPlan& plan,
    const SchemaTree& sold, const SchemaTree& told,
    const Matrix<float>& prev_sweep_ssim, const NodeSimilarities& prev_final,
    const Matrix<float>& prev_element_lsim,
    const std::vector<FeedbackEvent>& prev_events) {
  TreeMatchDelta d;
  d.prev_source = &sold;
  d.prev_target = &told;
  d.prev_sweep_ssim = &prev_sweep_ssim;
  d.prev_final = &prev_final;
  d.prev_events = &prev_events;
  MapNodes(snew, sold, plan.source_map, &d.source_map);
  MapNodes(tnew, told, plan.target_map, &d.target_map);

  d.source_leaves = std::make_unique<LeafIndex>(snew);
  d.target_leaves = std::make_unique<LeafIndex>(tnew);
  d.dirty =
      std::make_unique<LeafPairBits>(d.source_leaves.get(),
                                     d.target_leaves.get());
  d.source_leaf_dirty.assign(d.source_leaves->num_leaves(), 0);
  d.target_leaf_dirty.assign(d.target_leaves->num_leaves(), 0);

  // Lsim-locality flags: a mapped node whose element the plan left
  // unchanged. Its counterpart's element is the plan's counterpart of its
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
  lsim_same(snew, d.source_map, plan.source_changed, &d.source_lsim_same);
  lsim_same(tnew, d.target_map, plan.target_changed, &d.target_lsim_same);

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
      const float* old_row = prev_element_lsim.row(
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

  // Leaf-count change flags (mapped nodes whose true-leaf frontier size
  // differs from the previous counterpart's): the only rows/columns where
  // a leaf-count prune decision can flip, so the warm sweep restricts its
  // stale-cell zeroing to them.
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
                                     const MatchSide& source_side,
                                     const MatchSide& target_side,
                                     const InitialMapping& hints,
                                     LsimCache* cache, const MatchPast* past,
                                     MatchSnapshot* snapshot,
                                     const char* span_name) {
  CUPID_RETURN_NOT_OK(config.Validate());
  if (past != nullptr && !hints.empty()) {
    return Status::InvalidArgument(
        "initial-mapping hints apply to cold matches only");
  }
  obs::ScopedSpan span(span_name);
  auto t0 = std::chrono::steady_clock::now();
  const Schema& source = *source_side.schema;
  const Schema& target = *target_side.schema;

  // Phase 1: linguistic matching on the schema graphs ("the linguistic
  // matching process is unaffected" by graph extensions, Section 8.2),
  // preparing each side from its artifact's analysis when it has one. A
  // warm run gathers: unchanged element rows are copied from the past's
  // lsim, only changed rows and columns are scattered, and an unedited side
  // keeps the past's preparation.
  LinguisticMatcher linguistic(thesaurus, config.linguistic);
  LsimPast lsim_past;
  if (past != nullptr) {
    lsim_past.result = &past->result->linguistic;
    lsim_past.plan = BuildLsimGatherPlan(
        source, target, *past->snapshot->source->schema,
        *past->snapshot->target->schema, past->source_prior_ids,
        past->target_prior_ids);
  }
  auto analysis = [](const MatchSide& side) {
    return side.artifact != nullptr ? &side.artifact->linguistics : nullptr;
  };
  CUPID_ASSIGN_OR_RETURN(
      LinguisticResult lres,
      linguistic.Match(source, target, cache, lsim_past,
                       analysis(source_side), analysis(target_side)));
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

  // Phase 2: schema trees, then TreeMatch. A side without an artifact
  // builds its tree and becomes one, keeping the analysis it was prepared
  // from.
  auto artifact_of = [&config](const MatchSide& side,
                               const SchemaLinguistics& prepared)
      -> Result<std::shared_ptr<const SchemaArtifact>> {
    if (side.artifact != nullptr) return side.artifact;
    CUPID_ASSIGN_OR_RETURN(SchemaTree tree,
                           BuildSchemaTree(*side.schema, config.tree_build));
    return std::make_shared<const SchemaArtifact>(
        SchemaArtifact{side.schema, std::move(tree), prepared});
  };
  CUPID_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaArtifact> source_artifact,
                         artifact_of(source_side, *lres.side1));
  CUPID_ASSIGN_OR_RETURN(std::shared_ptr<const SchemaArtifact> target_artifact,
                         artifact_of(target_side, *lres.side2));
  const SchemaTree& source_tree = source_artifact->tree;
  const SchemaTree& target_tree = target_artifact->tree;
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
        source_tree, target_tree, lres.lsim, lsim_past.plan,
        prev.source_tree, prev.target_tree, past->snapshot->sweep_ssim,
        prev.tree_match.sims, prev.linguistic.lsim, prev.tree_match.events);
    t3 = std::chrono::steady_clock::now();
  }
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tmres,
      warm ? TreeMatchIncremental(source_tree, target_tree, lres.lsim,
                                  config.type_compatibility, config.tree_match,
                                  &delta)
           : TreeMatch(source_tree, target_tree, lres.lsim,
                       config.type_compatibility, config.tree_match));
  // The snapshot copy is the sweep's output, so the sweep phase pays it.
  if (snapshot != nullptr) snapshot->sweep_ssim = tmres.sims.ssim_matrix();
  auto t4 = std::chrono::steady_clock::now();

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

  MatchResult result{source_tree,     target_tree,
                     std::move(lres), std::move(tmres),
                     std::move(leaf_mapping),
                     std::move(nonleaf_mapping)};
  if (snapshot != nullptr) {
    snapshot->warm = warm;
    snapshot->source = std::move(source_artifact);
    snapshot->target = std::move(target_artifact);
  }
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
