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
  // TreeMatch decides itself whether the past warm-starts the sweep.
  TreeMatchPast tm_past;
  if (past != nullptr) {
    const MatchResult& prev = *past->result;
    tm_past = TreeMatchPast{&prev.source_tree,
                            &prev.target_tree,
                            &prev.linguistic.lsim,
                            &prev.tree_match,
                            &past->snapshot->sweep_ssim,
                            &lsim_past.plan.source_map,
                            &lsim_past.plan.target_map,
                            &lsim_past.plan.source_changed,
                            &lsim_past.plan.target_changed};
  }
  auto t2 = std::chrono::steady_clock::now();
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tmres,
      TreeMatch(source_tree, target_tree, lres.lsim, config.type_compatibility,
                config.tree_match, past != nullptr ? &tm_past : nullptr));
  const bool warm = tmres.stats.warm;
  // The snapshot copy is the sweep's output, so the sweep phase pays it.
  if (snapshot != nullptr) snapshot->sweep_ssim = tmres.sims.ssim_matrix();
  auto t4 = std::chrono::steady_clock::now();
  const double delta_ms = tmres.stats.delta_ms;

  // Phase 3: the Section 7 second pass, then mapping generation.
  CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilarities(
      source_tree, target_tree, config.tree_match, &tmres));
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
  phases.delta->Observe(delta_ms);
  phases.sweep->Observe(ms(t2, t4) - delta_ms);
  phases.recompute->Observe(ms(t4, t5));
  phases.mapping->Observe(ms(t5, t6));
  if (span.enabled()) {
    auto t7 = std::chrono::steady_clock::now();
    span.Attr("linguistic_ms", ms(t0, t1));
    span.Attr("trees_ms", ms(t1, t2));
    span.Attr("delta_ms", delta_ms);
    span.Attr("sweep_ms", ms(t2, t4) - delta_ms);
    span.Attr("recompute_ms", ms(t4, t5));
    span.Attr("mapping_ms", ms(t5, t6));
    span.Attr("commit_ms", ms(t6, t7));
    span.Attr("warm", warm ? 1 : 0);
    span.Attr("gathered_rows", result.linguistic.gathered_rows);
  }
  return result;
}

}  // namespace cupid
