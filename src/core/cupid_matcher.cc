#include "core/cupid_matcher.h"

#include <memory>
#include <tuple>

#include "core/match_pipeline.h"
#include "mapping/mapping_generator.h"

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
  // The run's artifacts only view the caller's schemas (an empty owner).
  const std::shared_ptr<void> none;
  return RunMatchPipeline(thesaurus_, config_, {{none, &source}, nullptr},
                          {{none, &target}, nullptr}, hints,
                          /*cache=*/nullptr, /*past=*/nullptr,
                          /*snapshot=*/nullptr, "cupid.match");
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
