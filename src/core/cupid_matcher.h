// CupidMatcher — the public entry point of the library.
//
// Runs the three phases of the paper end to end:
//   1. linguistic matching (Section 5)     -> element lsim table
//   2. structural TreeMatch (Sections 6,8) -> node ssim/wsim
//   3. mapping generation (Section 7)      -> leaf and non-leaf mappings
//
// Quickstart:
//
//     Thesaurus thesaurus = DefaultThesaurus();
//     CupidMatcher matcher(&thesaurus);
//     CUPID_ASSIGN_OR_RETURN(MatchResult r, matcher.Match(po, purchase_order));
//     std::cout << RenderMappingText(r.leaf_mapping);

#ifndef CUPID_CORE_CUPID_MATCHER_H_
#define CUPID_CORE_CUPID_MATCHER_H_

#include "core/config.h"
#include "linguistic/linguistic_matcher.h"
#include "mapping/mapping.h"
#include "structural/tree_match.h"
#include "thesaurus/thesaurus.h"
#include "tree/schema_tree.h"

namespace cupid {

/// Everything a match run produces. The contained trees reference the input
/// schemas; keep the schemas alive while using the result.
struct MatchResult {
  SchemaTree source_tree;
  SchemaTree target_tree;
  /// Phase-1 output (normalized names, categories, element lsim).
  LinguisticResult linguistic;
  /// Phase-2 similarities after the Section 7 recompute pass.
  TreeMatchResult tree_match;
  /// Leaf-level mapping, generated with the configured cardinality.
  Mapping leaf_mapping;
  /// Non-leaf mapping (naive 1:n over recomputed non-leaf similarities).
  Mapping nonleaf_mapping;

  /// \brief wsim of the node pair addressed by dotted context paths;
  /// 0 when either path does not resolve.
  double WsimByPath(const std::string& source_path,
                    const std::string& target_path) const;

  /// \brief Best-wsim target path for a source path (diagnostics).
  std::string BestTargetFor(const std::string& source_path) const;
};

/// \brief Phase-3 mapping generation of the match pipeline
/// (core/match_pipeline.h): the leaf mapping with the configured cardinality
/// (GenerateLeafMapping) plus the naive 1:n non-leaf mapping. `tmres` must
/// already have been through the Section 7 recompute pass.
Status GenerateStandardMappings(const SchemaTree& source,
                                const SchemaTree& target,
                                const TreeMatchResult& tmres,
                                const CupidConfig& config, Mapping* leaf,
                                Mapping* nonleaf);

/// \brief The leaf half of GenerateStandardMappings, for callers that only
/// need the leaf mapping (corpus search ranks by it).
Result<Mapping> GenerateLeafMapping(const SchemaTree& source,
                                    const SchemaTree& target,
                                    const TreeMatchResult& tmres,
                                    const CupidConfig& config);

/// \brief The Cupid generic schema matcher.
class CupidMatcher {
 public:
  /// `thesaurus` must outlive the matcher.
  explicit CupidMatcher(const Thesaurus* thesaurus, CupidConfig config = {})
      : thesaurus_(thesaurus), config_(std::move(config)) {}

  /// \brief Matches two schemas: the match pipeline (core/match_pipeline.h)
  /// run cold on a fresh LsimCache, traced as a `cupid.match` span. The
  /// schemas must outlive the MatchResult.
  Result<MatchResult> Match(const Schema& source, const Schema& target) const;

  /// \brief Matches with user hints: the lsim of each hinted element pair is
  /// raised to config.initial_mapping_boost before structural matching
  /// (Section 8.4 "Initial mappings"). Unresolvable paths are an error.
  Result<MatchResult> Match(const Schema& source, const Schema& target,
                            const InitialMapping& hints) const;

  const CupidConfig& config() const { return config_; }

 private:
  const Thesaurus* thesaurus_;
  CupidConfig config_;
};

}  // namespace cupid

#endif  // CUPID_CORE_CUPID_MATCHER_H_
