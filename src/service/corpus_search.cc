#include "service/corpus_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "linguistic/linguistic_matcher.h"
#include "linguistic/lsim_cache.h"
#include "linguistic/normalizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "structural/tree_match.h"
#include "tree/tree_builder.h"
#include "util/json.h"
#include "util/strings.h"

namespace cupid {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Distinct informative token texts of every element name: the pre-screen's
/// bag. kCommon tokens are excluded (they are down-weighted to near zero in
/// real name similarity, so letting them create overlap would only blur the
/// screen). Built from the normalizer directly — no matcher, no cache — so
/// pre-screen scores are identical with the shared cache on or off.
std::unordered_set<std::string> DistinctTokens(const Schema& schema,
                                               const NameNormalizer& norm) {
  std::unordered_set<std::string> texts;
  std::unordered_set<std::string> seen_names;
  for (ElementId id : schema.AllElements()) {
    const std::string& raw = schema.element(id).name;
    if (!seen_names.insert(raw).second) continue;  // names repeat heavily
    NormalizedName name = norm.Normalize(raw);
    for (const Token& t : name.tokens) {
      if (t.type == TokenType::kCommon) continue;
      texts.insert(t.text);
    }
  }
  return texts;
}

/// Cosine overlap of two distinct-token sets: |A∩B| / sqrt(|A|·|B|).
/// Set-membership counting, so iteration order of the hash sets cannot
/// affect the value.
double TokenCosine(const std::unordered_set<std::string>& a,
                   const std::unordered_set<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t common = 0;
  for (const std::string& t : small) {
    if (large.count(t) != 0) ++common;
  }
  return static_cast<double>(common) /
         std::sqrt(static_cast<double>(a.size()) *
                   static_cast<double>(b.size()));
}

/// Score of one full match, plus the hit diagnostics.
struct CandidateScore {
  double score = 0.0;
  int64_t leaf_elements = 0;
};

obs::Gauge* PreparedBytesGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Default()->GetGauge(
      "cupid.corpus.prepared_bytes",
      "Estimated bytes of the corpus searches' memoized candidate sides");
  return gauge;
}

}  // namespace

class SearchBinding {
 public:
  SearchBinding(const Thesaurus* thesaurus, const LinguisticOptions& options)
      : cache_(thesaurus, options) {}
  ~SearchBinding() {
    MutexLock lock(&mu_);
    PreparedBytesGauge()->Add(-bytes_);
  }

  SearchBinding(const SearchBinding&) = delete;
  SearchBinding& operator=(const SearchBinding&) = delete;

  LsimCache* cache() { return &cache_; }

  /// The prepared target side of `snapshot`, stored as `name`: served from
  /// the memo when it holds that version, otherwise prepared and memoized
  /// unless the memo already holds a newer version. A stored (name,
  /// version) never changes, so an entry stays valid until a newer version
  /// replaces it or the binding is dropped. Entries keep only what the
  /// kernel reads. `*filled` reports whether preparing took the cache's
  /// exclusive lock (false on a memo hit).
  Result<std::shared_ptr<const PreparedLsimSide>> PreparedTarget(
      const LinguisticMatcher& matcher, const std::string& name,
      const SchemaRepository::SchemaSnapshot& snapshot, bool* filled) {
    static obs::Counter* hits = obs::MetricsRegistry::Default()->GetCounter(
        "cupid.corpus.prepared.hits",
        "Candidates whose prepared side was served from the memo");
    static obs::Counter* misses = obs::MetricsRegistry::Default()->GetCounter(
        "cupid.corpus.prepared.misses",
        "Candidates prepared (normalized, categorized) for the memo");
    *filled = false;
    {
      MutexLock lock(&mu_);
      auto it = entries_.find(name);
      if (it != entries_.end() && it->second.version == snapshot.version) {
        hits->Increment();
        return it->second.side;
      }
    }
    misses->Increment();
    CUPID_ASSIGN_OR_RETURN(
        std::shared_ptr<PreparedLsimSide> side,
        matcher.Prepare(*snapshot.schema, LsimSide::kTarget, &cache_));
    *filled = side->cache_filled;
    side->names.reset();
    side->categories.reset();
    const int64_t bytes = side->kernel_bytes();
    MutexLock lock(&mu_);
    Entry& entry = entries_[name];
    if (entry.side == nullptr || entry.version < snapshot.version) {
      PreparedBytesGauge()->Add(bytes - entry.bytes);
      bytes_ += bytes - entry.bytes;
      entry = Entry{snapshot.version, side, bytes};
    }
    return std::shared_ptr<const PreparedLsimSide>(std::move(side));
  }

 private:
  struct Entry {
    int version = 0;
    std::shared_ptr<const PreparedLsimSide> side;
    int64_t bytes = 0;
  };

  LsimCache cache_;
  Mutex mu_;
  /// Keyed by repository name.
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  int64_t bytes_ GUARDED_BY(mu_) = 0;  // what this memo adds to the gauge
};

namespace {

/// One kept candidate: its repository name and the snapshot searched.
struct ScoringTarget {
  std::string name;
  SchemaRepository::SchemaSnapshot snapshot;
};

/// The scoring phase of one search, shared by the searching thread and its
/// helper tasks. Held by shared_ptr: a helper that starts after Search
/// returned finds every slot claimed and exits having touched only this.
struct ScoringShard {
  explicit ScoringShard(size_t n)
      : slots(n, Result<CandidateScore>(Status::Internal("pending"))) {}

  const Thesaurus* thesaurus = nullptr;
  CupidConfig config;
  std::shared_ptr<const Schema> source;  ///< keeps source_tree's schema
  /// The probe's side of every match, built once per search before any
  /// slot is claimed and read-only afterwards: its tree and its linguistic
  /// side prepared against the binding's cache.
  std::unique_ptr<const SchemaTree> source_tree;
  std::shared_ptr<const PreparedLsimSide> prepared;
  std::vector<ScoringTarget> targets;  ///< one per slot
  /// The service's cache and memo for this request's binding.
  std::shared_ptr<SearchBinding> binding;

  std::atomic<size_t> next{0};  ///< next unclaimed slot
  Mutex mu;
  CondVar all_done;
  size_t done GUARDED_BY(mu) = 0;
  std::vector<Result<CandidateScore>> slots GUARDED_BY(mu);
};

/// Full three-phase match of the shard's probe against `target` — the
/// pipeline of CupidMatcher::Match with the probe's side taken from the
/// shard, the candidate's prepared side from the binding's memo, and the
/// linguistic phase served from the shared cache (read-first: a candidate
/// whose names, labels and their pairs the cache holds never takes its
/// exclusive lock; either way the lsim is bit-identical, so the score never
/// depends on what the cache held). The memo keeps no normalized names or
/// full categorization, so `lres` carries neither for the candidate; only
/// the leaf mapping is generated: it is all the score reads.
Result<CandidateScore> ScoreCandidate(const ScoringShard& shard,
                                      const ScoringTarget& target) {
  const CupidConfig& config = shard.config;
  LinguisticMatcher linguistic(shard.thesaurus, config.linguistic);
  bool prepared_filled = false;
  CUPID_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedLsimSide> target_side,
      shard.binding->PreparedTarget(linguistic, target.name, target.snapshot,
                                    &prepared_filled));
  CUPID_ASSIGN_OR_RETURN(
      LinguisticResult lres,
      linguistic.Match(shard.prepared, std::move(target_side),
                       shard.binding->cache()));
  static obs::Counter* shared_hits = obs::MetricsRegistry::Default()->GetCounter(
      "cupid.corpus.shared_cache.hits",
      "Candidates whose linguistic phase was served warm from the shared cache");
  static obs::Counter* shared_misses = obs::MetricsRegistry::Default()->GetCounter(
      "cupid.corpus.shared_cache.misses",
      "Candidates that fell back to the exclusive cached path");
  (lres.cache_filled || prepared_filled ? shared_misses : shared_hits)
      ->Increment();

  const SchemaTree& source_tree = *shard.source_tree;
  CUPID_ASSIGN_OR_RETURN(
      SchemaTree target_tree,
      BuildSchemaTree(*target.snapshot.schema, config.tree_build));
  CUPID_ASSIGN_OR_RETURN(
      TreeMatchResult tmres,
      TreeMatch(source_tree, target_tree, lres.lsim,
                config.type_compatibility, config.tree_match));
  CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilarities(
      source_tree, target_tree, config.tree_match, &tmres));
  CUPID_ASSIGN_OR_RETURN(
      Mapping leaf_mapping,
      GenerateLeafMapping(source_tree, target_tree, tmres, config));

  CandidateScore out;
  out.score = CorpusRankingScore(source_tree, target_tree, leaf_mapping);
  out.leaf_elements = static_cast<int64_t>(leaf_mapping.size());
  return out;
}

/// Claims and scores slots until none are left.
void ScoreClaimedSlots(ScoringShard* shard) {
  const size_t n = shard->targets.size();
  for (size_t i = shard->next.fetch_add(1, std::memory_order_relaxed); i < n;
       i = shard->next.fetch_add(1, std::memory_order_relaxed)) {
    Result<CandidateScore> score = ScoreCandidate(*shard, shard->targets[i]);
    MutexLock lock(&shard->mu);
    shard->slots[i] = std::move(score);
    if (++shard->done == n) shard->all_done.SignalAll();
  }
}

/// Blocks until every slot is filled, then moves the results out.
std::vector<Result<CandidateScore>> TakeFilledSlots(ScoringShard* shard) {
  MutexLock lock(&shard->mu);
  while (shard->done < shard->targets.size()) {
    shard->all_done.Wait(&shard->mu);
  }
  return std::move(shard->slots);
}

}  // namespace

double CorpusRankingScore(const MatchResult& result) {
  return CorpusRankingScore(result.source_tree, result.target_tree,
                            result.leaf_mapping);
}

double CorpusRankingScore(const SchemaTree& source_tree,
                          const SchemaTree& target_tree,
                          const Mapping& leaf_mapping) {
  double total = 0.0;
  for (const MappingElement& e : leaf_mapping.elements) {
    total += e.wsim;
  }
  const int64_t source_leaves =
      static_cast<int64_t>(source_tree.leaves(source_tree.root()).size());
  const int64_t target_leaves =
      static_cast<int64_t>(target_tree.leaves(target_tree.root()).size());
  const int64_t denom =
      std::max<int64_t>({source_leaves, target_leaves, int64_t{1}});
  return total / static_cast<double>(denom);
}

Status SearchRequest::Validate() const {
  if (source.empty()) {
    return Status::InvalidArgument("search source name must not be empty");
  }
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  if (prune_fraction < 0.0 || prune_fraction > 1.0) {
    return Status::InvalidArgument("prune_fraction must be within [0,1]");
  }
  if (prune_min_keep < 0) {
    return Status::InvalidArgument("prune_min_keep must be >= 0");
  }
  return config.Validate();
}

std::string SearchResponse::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  WriteJsonFields(&w);
  w.EndObject();
  return std::move(w).str();
}

void SearchResponse::WriteJsonFields(JsonWriter* w) const {
  w->Key("source");
  w->String(source);
  w->Key("source_version");
  w->Int(source_version);
  w->Key("config_fingerprint");
  w->String(StringFormat("%016llx",
                         static_cast<unsigned long long>(config_fingerprint)));
  w->Key("candidates_total");
  w->Int(candidates_total);
  w->Key("candidates_pruned");
  w->Int(candidates_pruned);
  w->Key("full_matches");
  w->Int(full_matches);
  w->Key("timings");
  w->BeginObject();
  w->Key("total_ms");
  w->FixedDouble(timings.total_ms, 3);
  w->Key("prescreen_ms");
  w->FixedDouble(timings.prescreen_ms, 3);
  w->Key("prepare_ms");
  w->FixedDouble(timings.prepare_ms, 3);
  w->Key("match_ms");
  w->FixedDouble(timings.match_ms, 3);
  w->EndObject();
  w->Key("hits");
  w->BeginArray();
  for (const SearchHit& hit : hits) {
    w->BeginObject();
    w->Key("target");
    w->String(hit.target);
    w->Key("target_version");
    w->Int(hit.target_version);
    w->Key("score");
    w->FixedDouble(hit.score, 6);
    w->Key("prescreen");
    w->FixedDouble(hit.prescreen, 6);
    w->Key("leaf_elements");
    w->Int(hit.leaf_elements);
    w->EndObject();
  }
  w->EndArray();
}

CorpusSearchService::CorpusSearchService(const Thesaurus* thesaurus,
                                         SchemaRepository* repository,
                                         JobScheduler* scheduler)
    : thesaurus_(thesaurus), repository_(repository), scheduler_(scheduler) {}

std::shared_ptr<SearchBinding> CorpusSearchService::BindingFor(
    const CupidConfig& config) {
  // Requests whose bindings agree share one cache — and one TokenInterner —
  // and one memo across searches; anything else gets its own.
  const LinguisticOptions& lo = config.linguistic;
  MutexLock lock(&bindings_mu_);
  std::shared_ptr<SearchBinding>& slot = bindings_[LsimCacheBindingKey(lo)];
  if (slot == nullptr) slot = std::make_shared<SearchBinding>(thesaurus_, lo);
  return slot;
}

std::shared_ptr<const CorpusSearchService::TokenSet>
CorpusSearchService::TokensFor(
    const std::string& name,
    const SchemaRepository::SchemaSnapshot& snapshot) {
  {
    MutexLock lock(&token_bags_mu_);
    auto it = token_bags_.find(name);
    if (it != token_bags_.end() && it->second.version == snapshot.version) {
      return it->second.tokens;
    }
  }
  auto tokens = std::make_shared<const TokenSet>(
      DistinctTokens(*snapshot.schema, NameNormalizer(thesaurus_)));
  MutexLock lock(&token_bags_mu_);
  TokenBag& bag = token_bags_[name];
  if (bag.tokens == nullptr || bag.version < snapshot.version) {
    bag = TokenBag{snapshot.version, tokens};
  }
  return tokens;
}

void CorpusSearchService::InvalidateAll() {
  {
    MutexLock lock(&bindings_mu_);
    bindings_.clear();
  }
  MutexLock lock(&token_bags_mu_);
  token_bags_.clear();
}

Result<SearchResponse> CorpusSearchService::Search(
    const SearchRequest& request) {
  obs::TraceContext trace_ctx("search");
  obs::ScopedTraceContext scoped_ctx(&trace_ctx);
  obs::ScopedSpan span("corpus.search");

  Clock::time_point t_start = Clock::now();
  CUPID_RETURN_NOT_OK(request.Validate());

  CUPID_ASSIGN_OR_RETURN(
      SchemaRepository::SchemaSnapshot source,
      repository_->Resolve(request.source, request.source_version));

  SearchResponse response;
  response.source = request.source;
  response.source_version = source.version;
  response.config_fingerprint = ConfigFingerprint(request.config);

  // Candidates: every stored schema except the probe itself, at its latest
  // version, in name order (Names() is sorted — the deterministic spine
  // every later ordering decision hangs off).
  struct Candidate {
    std::string name;
    SchemaRepository::SchemaSnapshot snapshot;
    double prescreen = 0.0;
  };
  std::vector<Candidate> candidates;
  for (const std::string& name : repository_->Names()) {
    if (name == request.source) continue;
    CUPID_ASSIGN_OR_RETURN(SchemaRepository::SchemaSnapshot snapshot,
                           repository_->Resolve(name));
    candidates.push_back(Candidate{name, std::move(snapshot), 0.0});
  }
  response.candidates_total = static_cast<int64_t>(candidates.size());

  // Pre-screen every candidate (scores are reported on hits even when the
  // screen does not prune).
  Clock::time_point t_prescreen = Clock::now();
  std::shared_ptr<const TokenSet> source_tokens =
      TokensFor(request.source, source);
  for (Candidate& c : candidates) {
    c.prescreen = TokenCosine(*source_tokens, *TokensFor(c.name, c.snapshot));
  }
  response.timings.prescreen_ms = MsSince(t_prescreen);

  // Survivors of the screen, in (prescreen desc, name asc) order. The kept
  // indices are then restored to name order so the claim order is
  // independent of pre-screen scores.
  std::vector<size_t> kept(candidates.size());
  for (size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  const bool prune = request.prune && !request.exhaustive;
  if (prune && !candidates.empty()) {
    const auto n = static_cast<double>(candidates.size());
    size_t keep = static_cast<size_t>(
        std::ceil(request.prune_fraction * n));
    keep = std::max<size_t>(keep, static_cast<size_t>(request.top_k));
    keep = std::max<size_t>(keep,
                            static_cast<size_t>(request.prune_min_keep));
    keep = std::min(keep, candidates.size());
    std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
      if (candidates[a].prescreen != candidates[b].prescreen) {
        return candidates[a].prescreen > candidates[b].prescreen;
      }
      return candidates[a].name < candidates[b].name;
    });
    kept.resize(keep);
    std::sort(kept.begin(), kept.end());
  }
  response.candidates_pruned =
      response.candidates_total - static_cast<int64_t>(kept.size());
  response.full_matches = static_cast<int64_t>(kept.size());

  auto shard = std::make_shared<ScoringShard>(kept.size());
  shard->thesaurus = thesaurus_;
  shard->config = request.config;
  shard->source = source.schema;
  shard->targets.reserve(kept.size());
  for (size_t idx : kept) {
    shard->targets.push_back(
        ScoringTarget{candidates[idx].name, candidates[idx].snapshot});
  }
  shard->binding = BindingFor(request.config);

  // The probe's side of every match, once per search: its tree and, with
  // the shared cache, its names, categories and labels. Scorers only read
  // them, so the candidates pay for their own side alone.
  Clock::time_point t_prepare = Clock::now();
  if (!kept.empty()) {
    CUPID_ASSIGN_OR_RETURN(
        SchemaTree source_tree,
        BuildSchemaTree(*source.schema, request.config.tree_build));
    shard->source_tree =
        std::make_unique<const SchemaTree>(std::move(source_tree));
    LinguisticMatcher linguistic(thesaurus_, request.config.linguistic);
    CUPID_ASSIGN_OR_RETURN(
        shard->prepared,
        linguistic.Prepare(*source.schema, LsimSide::kSource,
                           shard->binding->cache()));
  }
  response.timings.prepare_ms = MsSince(t_prepare);

  // Scoring: this thread and up to one helper per scheduler worker claim
  // slots from a shared index, each writing its preallocated slot, so
  // results assemble in candidate order no matter who scored what. This
  // thread waits only for claimed slots to fill, never for a helper to
  // start: a rejected or still-queued helper just leaves it more to score.
  Clock::time_point t_match = Clock::now();
  if (scheduler_ != nullptr && kept.size() > 1) {
    const size_t helpers = std::min(
        static_cast<size_t>(scheduler_->num_threads()), kept.size() - 1);
    for (size_t h = 0; h < helpers; ++h) {
      Result<std::shared_ptr<MatchJob>> job =
          scheduler_->SubmitTask([shard]() -> Result<MatchResponse> {
            ScoreClaimedSlots(shard.get());
            return MatchResponse{};
          });
      if (!job.ok()) break;
    }
  }
  ScoreClaimedSlots(shard.get());
  std::vector<Result<CandidateScore>> slots = TakeFilledSlots(shard.get());
  // Every slot is filled, so no scorer reads the probe's side or the
  // binding again; a helper that has yet to start keeps only the shard's
  // schemas alive.
  shard->source_tree.reset();
  shard->prepared.reset();
  shard->binding.reset();
  response.timings.match_ms = MsSince(t_match);

  // First failure in candidate order wins (deterministic, like MatchBatch's
  // per-slot statuses).
  for (const Result<CandidateScore>& slot : slots) {
    if (!slot.ok()) return slot.status();
  }

  response.hits.reserve(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    const Candidate& c = candidates[kept[i]];
    SearchHit hit;
    hit.target = c.name;
    hit.target_version = c.snapshot.version;
    hit.score = slots[i]->score;
    hit.prescreen = c.prescreen;
    hit.leaf_elements = slots[i]->leaf_elements;
    response.hits.push_back(std::move(hit));
  }
  std::sort(response.hits.begin(), response.hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.target != b.target) return a.target < b.target;
              return a.target_version < b.target_version;
            });
  if (response.hits.size() > static_cast<size_t>(request.top_k)) {
    response.hits.resize(static_cast<size_t>(request.top_k));
  }
  response.timings.total_ms = MsSince(t_start);

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("cupid.corpus.searches", "Corpus search requests completed")
      ->Increment();
  reg->GetCounter("cupid.corpus.candidates_pruned",
                  "Candidates dropped by the pre-screen across searches")
      ->Add(response.candidates_pruned);
  reg->GetCounter("cupid.corpus.candidates_matched",
                  "Candidates fully matched across searches")
      ->Add(response.full_matches);
  reg->GetHistogram("cupid.corpus.search_ms",
                    "End-to-end corpus search latency, ms")
      ->Observe(response.timings.total_ms);
  span.Attr("candidates_total", response.candidates_total);
  span.Attr("candidates_pruned", response.candidates_pruned);
  span.Attr("full_matches", response.full_matches);
  span.Attr("prescreen_ms", response.timings.prescreen_ms);
  span.Attr("prepare_ms", response.timings.prepare_ms);
  span.Attr("match_ms", response.timings.match_ms);
  return response;
}

}  // namespace cupid
