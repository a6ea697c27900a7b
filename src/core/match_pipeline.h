// The one Cupid match pipeline: linguistic matching (Section 5), schema
// trees and TreeMatch (Sections 6 and 8), the Section 7 recompute and
// mapping generation. CupidMatcher::Match runs it cold; MatchSession::Rematch
// runs it with the session's previous run as its past, which turns the
// linguistic phase into a gather and TreeMatch into a warm start. Either
// way the result is bit-identical to a cold run on the same schemas.

#ifndef CUPID_CORE_MATCH_PIPELINE_H_
#define CUPID_CORE_MATCH_PIPELINE_H_

#include "core/config.h"
#include "core/cupid_matcher.h"
#include "util/matrix.h"

namespace cupid {

/// \brief The previous run a warm pipeline run starts from.
struct MatchPast {
  /// The schemas `result` was matched on; they must stay alive and
  /// unchanged for the whole run.
  const Schema* source = nullptr;
  const Schema* target = nullptr;
  /// The previous result. When the run succeeds, the tree of each side
  /// whose schema is the same object as the past's is moved out of it into
  /// the new result.
  MatchResult* result = nullptr;
  /// ssim of that run after its sweep, before the Section 7 recompute
  /// (MatchSnapshot::sweep_ssim).
  const Matrix<float>* sweep_ssim = nullptr;
};

/// \brief What a run leaves for the next warm start besides its result.
struct MatchSnapshot {
  /// ssim after the sweep, before the Section 7 recompute.
  Matrix<float> sweep_ssim;
  /// TreeMatch warm-started from the past.
  bool warm = false;
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
///   against), and TreeMatch warm-starts from its similarities when
///   SupportsIncrementalTreeMatch(config.tree_match) holds and no tree has
///   join-view nodes. A side whose schema is the same object as the past's
///   reuses the past's tree.
///
/// A non-null `snapshot` (which must not alias past->sweep_ssim) receives
/// what the next warm run needs. Phase times go to a span named
/// `span_name` and, one sample per phase per run, to the
/// `cupid.match.phase_ms.{linguistic,trees,delta,sweep,recompute,mapping}`
/// histograms of the default metrics registry.
Result<MatchResult> RunMatchPipeline(const Thesaurus* thesaurus,
                                     const CupidConfig& config,
                                     const Schema& source,
                                     const Schema& target,
                                     const InitialMapping& hints,
                                     LsimCache* cache, MatchPast* past,
                                     MatchSnapshot* snapshot,
                                     const char* span_name);

}  // namespace cupid

#endif  // CUPID_CORE_MATCH_PIPELINE_H_
