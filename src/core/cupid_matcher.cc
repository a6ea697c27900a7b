#include "core/cupid_matcher.h"

#include <algorithm>
#include <tuple>

#include "mapping/mapping_generator.h"
#include "tree/tree_builder.h"

namespace cupid {

double MatchResult::WsimByPath(const std::string& source_path,
                               const std::string& target_path) const {
  TreeNodeId s = source_tree.FindNodeByPath(source_path);
  TreeNodeId t = target_tree.FindNodeByPath(target_path);
  if (s == kNoTreeNode || t == kNoTreeNode) return 0.0;
  return tree_match.sims.wsim(s, t);
}

std::string MatchResult::BestTargetFor(const std::string& source_path) const {
  TreeNodeId s = source_tree.FindNodeByPath(source_path);
  if (s == kNoTreeNode) return "";
  // Same ranking as mapping generation: wsim, then parent-pair wsim
  // (context), then lsim — ties at the similarity cap are broken by context.
  auto key = [&](TreeNodeId t) {
    TreeNodeId ps = source_tree.node(s).parent;
    TreeNodeId pt = target_tree.node(t).parent;
    double parent_wsim = (ps == kNoTreeNode || pt == kNoTreeNode)
                             ? 0.0
                             : tree_match.sims.wsim(ps, pt);
    return std::tuple<double, double, double>(tree_match.sims.wsim(s, t),
                                              parent_wsim,
                                              tree_match.sims.lsim(s, t));
  };
  TreeNodeId best = kNoTreeNode;
  for (TreeNodeId t = 0; t < target_tree.num_nodes(); ++t) {
    if (best == kNoTreeNode || key(t) > key(best)) best = t;
  }
  return best == kNoTreeNode ? "" : target_tree.PathName(best);
}

Result<MatchResult> CupidMatcher::Match(const Schema& source,
                                        const Schema& target) const {
  return Match(source, target, InitialMapping{});
}

Result<MatchResult> CupidMatcher::Match(const Schema& source,
                                        const Schema& target,
                                        const InitialMapping& hints) const {
  CUPID_RETURN_NOT_OK(config_.Validate());

  // Phase 1: linguistic matching on the schema graphs ("the linguistic
  // matching process is unaffected" by graph extensions, Section 8.2).
  LinguisticMatcher linguistic(thesaurus_, config_.linguistic);
  CUPID_ASSIGN_OR_RETURN(LinguisticResult lres,
                         linguistic.Match(source, target));

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
        lres.lsim(es, et), static_cast<float>(config_.initial_mapping_boost));
  }

  // Phase 2: expand to schema trees and run TreeMatch.
  CUPID_ASSIGN_OR_RETURN(SchemaTree source_tree,
                         BuildSchemaTree(source, config_.tree_build));
  CUPID_ASSIGN_OR_RETURN(SchemaTree target_tree,
                         BuildSchemaTree(target, config_.tree_build));
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tmres,
      TreeMatch(source_tree, target_tree, lres.lsim,
                config_.type_compatibility, config_.tree_match));

  // Phase 3: the Section 7 second pass, then mapping generation.
  CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilarities(
      source_tree, target_tree, config_.tree_match, &tmres));

  Mapping leaf_mapping, nonleaf_mapping;
  CUPID_RETURN_NOT_OK(GenerateStandardMappings(source_tree, target_tree,
                                               tmres, config_, &leaf_mapping,
                                               &nonleaf_mapping));

  MatchResult result{std::move(source_tree), std::move(target_tree),
                     std::move(lres),        std::move(tmres),
                     std::move(leaf_mapping), std::move(nonleaf_mapping)};
  return result;
}

Status GenerateStandardMappings(const SchemaTree& source,
                                const SchemaTree& target,
                                const TreeMatchResult& tmres,
                                const CupidConfig& config, Mapping* leaf,
                                Mapping* nonleaf) {
  CUPID_ASSIGN_OR_RETURN(*leaf,
                         GenerateLeafMapping(source, target, tmres, config));

  MappingGeneratorOptions nonleaf_opts = config.mapping;
  nonleaf_opts.scope = MappingScope::kNonLeaves;
  nonleaf_opts.cardinality = MappingCardinality::kOneToMany;
  CUPID_ASSIGN_OR_RETURN(
      *nonleaf, GenerateMapping(source, target, tmres, nonleaf_opts));
  return Status::OK();
}

Result<Mapping> GenerateLeafMapping(const SchemaTree& source,
                                    const SchemaTree& target,
                                    const TreeMatchResult& tmres,
                                    const CupidConfig& config) {
  MappingGeneratorOptions leaf_opts = config.mapping;
  leaf_opts.scope = MappingScope::kLeaves;
  return GenerateMapping(source, target, tmres, leaf_opts);
}

}  // namespace cupid
