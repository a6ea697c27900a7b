// The one Cupid match pipeline: linguistic matching (Section 5), schema
// trees and TreeMatch (Sections 6 and 8), the Section 7 recompute and
// mapping generation. CupidMatcher::Match runs it cold; MatchSession::Rematch
// runs it with the session's previous run as its past, which turns the
// linguistic phase into a gather and TreeMatch into a warm start. Either
// way the result is bit-identical to a cold run on the same schemas.

#ifndef CUPID_CORE_MATCH_PIPELINE_H_
#define CUPID_CORE_MATCH_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/cupid_matcher.h"
#include "util/matrix.h"

namespace cupid {

/// \brief Everything the pipeline derives from one schema version alone:
/// its context tree (Section 8.2) and its linguistic analysis (Section 5,
/// LinguisticMatcher::Analyze), functions of the schema, the thesaurus and
/// config.tree_build only. Immutable: runs, sessions and threads share one,
/// and every MatchResult over it shares its tree's state.
struct SchemaArtifact {
  /// Pins the version (MatchService, MatchSession), or only views the
  /// caller's schema (CupidMatcher::Match).
  std::shared_ptr<const Schema> schema;
  SchemaTree tree;
  SchemaLinguistics linguistics;
};

/// \brief One side of a run: a schema with its artifact, or with null for
/// the run to build it.
struct MatchSide {
  std::shared_ptr<const Schema> schema;
  std::shared_ptr<const SchemaArtifact> artifact;
};

/// \brief What a run leaves for the next warm start besides its result.
struct MatchSnapshot {
  /// ssim after the sweep, before the Section 7 recompute.
  Matrix<float> sweep_ssim;
  /// The TreeMatch sweep warm-started from the past
  /// (TreeMatchStats::warm).
  bool warm = false;
  /// The artifacts of the run's two sides, given or built by the run.
  std::shared_ptr<const SchemaArtifact> source, target;
};

/// \brief The previous run a warm pipeline run starts from: its result and
/// its snapshot, both alive and unchanged for the whole run, and how the
/// edits since then moved each side's element ids.
struct MatchPast {
  const MatchResult* result = nullptr;
  const MatchSnapshot* snapshot = nullptr;
  /// Per element of this run's source (target) schema, its id in the
  /// past's schema or kNoElement (ApplySchemaEdit's prior ids, composed
  /// over the edits); null maps by identity over the shared ids.
  const std::vector<ElementId>* source_prior_ids = nullptr;
  const std::vector<ElementId>* target_prior_ids = nullptr;
};

/// \brief Matches `source` against `target` under `config`.
///
/// The linguistic phase runs through `cache` (null = a fresh LsimCache),
/// which must be bound to `thesaurus` and `config.linguistic`.
/// - With `past == nullptr` the run is cold, and the lsim of each pair in
///   `hints` is raised to config.initial_mapping_boost before TreeMatch
///   (Section 8.4 "Initial mappings"); unresolvable paths are NotFound.
/// - With a past, `hints` must be empty. The linguistic phase gathers from
///   the past's lsim (LsimPast; it keeps the past's prepared side of an
///   unedited schema when `cache` is the one that side was prepared
///   against), and the past goes to TreeMatch as a TreeMatchPast, which
///   warm-starts the sweep from it when it can.
///
/// A side's artifact, given or built (its analysis in the linguistic phase,
/// its tree in the trees phase), supplies that side's tree and analysis;
/// the result's trees share its tree. A non-null `snapshot` (which must not
/// be past->snapshot) receives what the next warm run needs. Phase times
/// go to a span named `span_name` and, one sample per phase per run, to the
/// `cupid.match.phase_ms.{linguistic,trees,delta,sweep,recompute,mapping}`
/// histograms of the default metrics registry.
Result<MatchResult> RunMatchPipeline(const Thesaurus* thesaurus,
                                     const CupidConfig& config,
                                     const MatchSide& source,
                                     const MatchSide& target,
                                     const InitialMapping& hints,
                                     LsimCache* cache, const MatchPast* past,
                                     MatchSnapshot* snapshot,
                                     const char* span_name);

}  // namespace cupid

#endif  // CUPID_CORE_MATCH_PIPELINE_H_
