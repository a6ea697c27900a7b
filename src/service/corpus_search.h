// CorpusSearchService — ranked one-vs-N schema search over a repository.
//
// The corpus-scale scenario of Section 8.4: a repository stores hundreds of
// schemas and the serving question is "which of them best matches this
// one?". Running the full three-phase matcher against every stored schema
// is the naive answer; this service layers three optimizations on top of
// it, each preserving bit-identical results:
//
//   1. one shared cross-pair LsimCache (single TokenInterner) per
//      linguistic binding for the whole service: each search prepares the
//      probe's linguistic side (names, categories, labels) and builds its
//      SchemaTree once; each stored candidate's prepared target side is
//      memoized beside the cache by name and version, so a candidate is
//      normalized and categorized once per stored version, not once per
//      search; a candidate match is then the read-first kernel
//      LinguisticMatcher::Match(probe side, candidate side, cache), which
//      reads name-pair and label-pair similarities under a shared lock; a
//      candidate with a name, label or pair the cache has not seen yet
//      takes the exclusive lock once to fill it, which serves every later
//      search;
//   2. a cheap linguistic pre-screen — distinct-token cosine overlap,
//      computed without touching the matcher — prunes the candidate set to
//      top-k' before any full TreeMatch runs (an exhaustive knob disables
//      it when recall must be perfect). Each stored schema's token bag is
//      memoized by name and version, so a search re-normalizes only
//      schemas stored since the last one;
//   3. the surviving candidates are scored by the calling thread and at
//      most one helper task per JobScheduler worker, all claiming from one
//      shared index. Results land in per-candidate slots, so ranking is
//      deterministic and bit-identical to a serial per-pair loop at any
//      thread count, and a search issued from a scheduler worker never
//      waits for a helper to start (it completes on a 1-worker scheduler).
//
// tests/corpus_search_test.cc pins the equality: ranked hits (order and
// scores) match an exhaustive per-pair CupidMatcher sweep across thread
// counts.

#ifndef CUPID_SERVICE_CORPUS_SEARCH_H_
#define CUPID_SERVICE_CORPUS_SEARCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/cupid_matcher.h"
#include "service/job_scheduler.h"
#include "service/schema_repository.h"
#include "thesaurus/thesaurus.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cupid {

class JsonWriter;

/// One ranked search against the repository's stored schemas.
struct SearchRequest {
  std::string source;      ///< repository name of the probe schema
  int source_version = 0;  ///< 0 = latest
  /// Ranked hits to return (every candidate is still scored or pruned).
  int top_k = 10;
  CupidConfig config;
  /// Pre-screen candidates by linguistic token overlap and run the full
  /// matcher only on the survivors. Pruning trades recall for latency; the
  /// kept fraction below bounds the loss.
  bool prune = true;
  /// Fraction of the candidate set kept past the pre-screen (ceil(f * N)).
  double prune_fraction = 0.25;
  /// Floor on kept candidates, so small corpora are never over-pruned; the
  /// effective keep count is max(top_k, prune_min_keep, ceil(f * N)).
  int prune_min_keep = 16;
  /// Full TreeMatch on every candidate regardless of `prune` (the perfect-
  /// recall fallback; pre-screen scores are still reported on hits).
  bool exhaustive = false;

  /// InvalidArgument on out-of-domain knobs (top_k <= 0, prune fraction
  /// outside [0,1], negative prune_min_keep, empty source) and on an
  /// invalid embedded config.
  Status Validate() const;
};

/// One scored candidate of a search.
struct SearchHit {
  std::string target;      ///< repository name of the candidate
  int target_version = 0;  ///< version that was matched
  /// Ranking score of the full match: leaf-mapping wsim mass normalized by
  /// the larger leaf count (see CorpusRankingScore).
  double score = 0.0;
  /// Linguistic pre-screen score (distinct-token cosine overlap in [0,1]).
  double prescreen = 0.0;
  /// Size of the leaf mapping the score was computed from.
  int64_t leaf_elements = 0;
};

/// Wall-clock phases of one search, milliseconds.
struct SearchTimings {
  double total_ms = 0.0;
  /// Candidate enumeration + pre-screen scoring.
  double prescreen_ms = 0.0;
  /// The probe's side of every match, once per search: its SchemaTree and,
  /// with the shared cache, its prepared linguistic side.
  double prepare_ms = 0.0;
  /// Every full per-candidate match, including the exclusive fallback fill
  /// of names, labels and pairs the shared cache has not seen (wall clock
  /// of the scoring phase, not the sum of per-candidate times).
  double match_ms = 0.0;
};

/// Everything a search returns. Value semantics, like MatchResponse.
struct SearchResponse {
  std::string source;
  int source_version = 0;
  uint64_t config_fingerprint = 0;

  /// Ranked best-first: (score desc, target asc, version asc). At most
  /// top_k entries.
  std::vector<SearchHit> hits;

  /// Stored schemas considered (everything in the repository except the
  /// probe itself).
  int64_t candidates_total = 0;
  /// Candidates dropped by the pre-screen (0 when exhaustive).
  int64_t candidates_pruned = 0;
  /// Candidates that went through the full three-phase matcher.
  int64_t full_matches = 0;

  SearchTimings timings;

  /// \brief Compact JSON object (the JSONL protocol payload). Scores use 6
  /// fixed decimals, timings 3, matching MatchResponse::ToJson.
  std::string ToJson() const;

  /// \brief Writes ToJson's members into `w`'s open object.
  void WriteJsonFields(JsonWriter* w) const;
};

/// \brief Ranking score of one full match result: total leaf-mapping wsim
/// normalized by the larger side's leaf count, in [0,1]. Symmetric in
/// intent — a small schema matching a fragment of a huge one ranks below
/// two schemas that cover each other. Public so tests and benches can rank
/// an exhaustive CupidMatcher sweep with the exact same formula.
double CorpusRankingScore(const MatchResult& result);

/// \brief CorpusRankingScore from the parts it reads: both trees and the
/// leaf mapping (what a search scorer builds).
double CorpusRankingScore(const SchemaTree& source_tree,
                          const SchemaTree& target_tree,
                          const Mapping& leaf_mapping);

/// One linguistic option binding of a CorpusSearchService: its shared
/// LsimCache and the memo of stored schemas' prepared target sides against
/// that cache (defined in corpus_search.cc).
class SearchBinding;

/// \brief Ranked one-vs-N search front door over a SchemaRepository.
class CorpusSearchService {
 public:
  /// `thesaurus` and `repository` must outlive the service. `scheduler` is
  /// optional (null = candidates run serially on the calling thread) and
  /// must also outlive the service; search adds at most one helper task
  /// per worker through JobScheduler::SubmitTask, so one scheduler can
  /// serve match and search traffic concurrently. The calling thread
  /// scores candidates itself and never waits for a helper to start, so a
  /// search may run on one of the scheduler's own workers.
  CorpusSearchService(const Thesaurus* thesaurus,
                      SchemaRepository* repository,
                      JobScheduler* scheduler = nullptr);

  CorpusSearchService(const CorpusSearchService&) = delete;
  CorpusSearchService& operator=(const CorpusSearchService&) = delete;

  /// \brief Executes one ranked search synchronously. Thread-safe; hits
  /// are deterministic and bit-identical to a serial exhaustive loop over
  /// the same candidates at any scheduler thread count.
  Result<SearchResponse> Search(const SearchRequest& request);

  SchemaRepository* repository() const { return repository_; }

  /// \brief Drops the shared linguistic caches with their memos of prepared
  /// candidates, and the pre-screen token bags (required after the backing
  /// repository is replaced wholesale, mirroring MatchService::InvalidateAll).
  /// A search already running keeps the binding it started with.
  void InvalidateAll();

 private:
  using TokenSet = std::unordered_set<std::string>;

  /// Pre-screen token bag of one stored schema and the version it was
  /// built from. A stored (name, version) never changes, so the bag stays
  /// valid until a newer version replaces it or InvalidateAll drops it.
  struct TokenBag {
    int version = 0;
    std::shared_ptr<const TokenSet> tokens;
  };

  /// The binding of the request's linguistic options, created on first
  /// use. One cache (and thus one TokenInterner) and one memo of prepared
  /// candidates per binding; requests with equal bindings share them
  /// across searches.
  std::shared_ptr<SearchBinding> BindingFor(const CupidConfig& config);

  /// The pre-screen token bag of `snapshot`, stored as `name`: served from
  /// the memo when it holds that version, otherwise built and memoized
  /// unless the memo already holds a newer version.
  std::shared_ptr<const TokenSet> TokensFor(
      const std::string& name,
      const SchemaRepository::SchemaSnapshot& snapshot);

  const Thesaurus* thesaurus_;
  SchemaRepository* repository_;
  JobScheduler* scheduler_;

  Mutex bindings_mu_;
  /// Keyed by LsimCacheBindingKey of the request's linguistic options.
  std::unordered_map<std::string, std::shared_ptr<SearchBinding>> bindings_
      GUARDED_BY(bindings_mu_);

  Mutex token_bags_mu_;
  /// Keyed by repository name.
  std::unordered_map<std::string, TokenBag> token_bags_
      GUARDED_BY(token_bags_mu_);
};

}  // namespace cupid

#endif  // CUPID_SERVICE_CORPUS_SEARCH_H_
