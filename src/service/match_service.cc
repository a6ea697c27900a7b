#include "service/match_service.h"

#include <chrono>

#include "core/cupid_matcher.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/strings.h"

namespace cupid {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void WriteMapping(const Mapping& mapping, JsonWriter* w) {
  w->BeginObject();
  w->Key("source_schema");
  w->String(mapping.source_schema);
  w->Key("target_schema");
  w->String(mapping.target_schema);
  w->Key("elements");
  w->BeginArray();
  for (const MappingElement& e : mapping.elements) {
    w->BeginObject();
    w->Key("source");
    w->String(e.source_path);
    w->Key("target");
    w->String(e.target_path);
    w->Key("wsim");
    w->FixedDouble(e.wsim, 6);
    w->Key("ssim");
    w->FixedDouble(e.ssim, 6);
    w->Key("lsim");
    w->FixedDouble(e.lsim, 6);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

constexpr char kMappingRenders[] = "cupid.service.mapping_renders";
constexpr char kMappingRendersHelp[] =
    "Match results rendered to mapping JSON (once per result; cached reads, "
    "batch items and pushes reuse it)";

/// The process-wide render counter, for responses that carry no rendering
/// of their own (hand-built ones), which no service counts.
obs::Counter* UnstoredRenders() {
  static obs::Counter* const renders =
      obs::MetricsRegistry::Default()->GetCounter(kMappingRenders,
                                                  kMappingRendersHelp);
  return renders;
}

/// Store key of `name`@`version`'s artifact: the version plus every config
/// field the normalizer, categorizer and tree builder might read.
std::string ArtifactKey(const std::string& name, int version,
                        const CupidConfig& config) {
  return name + '\x1f' + std::to_string(version) + '\x1f' +
         LsimCacheBindingKey(config.linguistic) +
         (config.tree_build.expand_join_views ? 'j' : '-') +
         (config.tree_build.expand_views ? 'v' : '-');
}

}  // namespace

std::string MatchResponse::ToJson(bool include_mappings) const {
  JsonWriter w;
  w.BeginObject();
  WriteJsonFields(include_mappings, &w);
  w.EndObject();
  return std::move(w).str();
}

void MatchResponse::WriteJsonFields(bool include_mappings,
                                    JsonWriter* w) const {
  w->Key("source");
  w->String(source);
  w->Key("source_version");
  w->Int(source_version);
  w->Key("target");
  w->String(target);
  w->Key("target_version");
  w->Int(target_version);
  w->Key("config_fingerprint");
  w->String(StringFormat("%016llx",
                         static_cast<unsigned long long>(config_fingerprint)));
  w->Key("result_cache_hit");
  w->Bool(result_cache_hit);
  w->Key("session_reused");
  w->Bool(session_reused);
  w->Key("incremental");
  w->Bool(incremental);
  w->Key("timings");
  w->BeginObject();
  w->Key("total_ms");
  w->FixedDouble(timings.total_ms, 3);
  w->Key("match_ms");
  w->FixedDouble(timings.match_ms, 3);
  w->Key("queue_ms");
  w->FixedDouble(timings.queue_ms, 3);
  w->EndObject();
  w->Key("stats");
  w->BeginObject();
  w->Key("pairs_reused");
  w->Int(stats.tree_match.pairs_reused);
  w->Key("link_tests");
  w->Int(stats.tree_match.link_tests);
  w->Key("lsim_cached_pairs");
  w->Int(stats.lsim_cached_pairs);
  w->EndObject();
  if (!include_mappings) {
    w->Key("leaf_elements");
    w->Int(static_cast<int64_t>(leaf_mapping.size()));
    w->Key("nonleaf_elements");
    w->Int(static_cast<int64_t>(nonleaf_mapping.size()));
  } else if (mapping_json != nullptr) {
    w->RawMembers(*mapping_json);
  } else {
    w->RawMembers(RenderMappingMembers(leaf_mapping, nonleaf_mapping,
                                       UnstoredRenders()));
  }
}

std::string RenderMappingMembers(const Mapping& leaf_mapping,
                                 const Mapping& nonleaf_mapping,
                                 obs::Counter* renders) {
  if (renders != nullptr) renders->Increment();
  JsonWriter w;  // a bare member list
  w.Key("leaf_mapping");
  WriteMapping(leaf_mapping, &w);
  w.Key("nonleaf_mapping");
  WriteMapping(nonleaf_mapping, &w);
  return std::move(w).str();
}

size_t MatchService::ResultKeyHash::operator()(const ResultKey& k) const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(std::hash<std::string>{}(k.source));
  mix(static_cast<uint64_t>(k.source_version));
  mix(std::hash<std::string>{}(k.target));
  mix(static_cast<uint64_t>(k.target_version));
  mix(k.config_fingerprint);
  return static_cast<size_t>(h);
}

Status MatchService::Options::Validate() const {
  if (result_cache_capacity < 0) {
    return Status::InvalidArgument("result_cache_capacity must be >= 0");
  }
  if (session_capacity < 0) {
    return Status::InvalidArgument("session_capacity must be >= 0");
  }
  return Status::OK();
}

MatchService::MatchService(const Thesaurus* thesaurus,
                           SchemaRepository* repository, Options options)
    : thesaurus_(thesaurus), repository_(repository), options_(options) {
  obs::MetricsRegistry* reg = options_.metrics != nullptr
                                  ? options_.metrics
                                  : obs::MetricsRegistry::Default();
  result_hits_ = reg->GetCounter("cupid.service.result_cache.hits",
                                 "Requests served from the result LRU");
  result_misses_ = reg->GetCounter("cupid.service.result_cache.misses",
                                   "Result-LRU lookups that missed");
  result_evictions_ = reg->GetCounter("cupid.service.result_cache.evictions",
                                      "Responses dropped by the result LRU");
  sessions_created_ = reg->GetCounter("cupid.service.sessions.created",
                                      "Cold pair sessions built");
  sessions_reused_ = reg->GetCounter(
      "cupid.service.sessions.reused",
      "Requests served on a surviving warm pair session");
  sessions_evicted_ = reg->GetCounter("cupid.service.sessions.evicted",
                                      "Warm pair sessions dropped by the LRU");
  incremental_rematches_ = reg->GetCounter(
      "cupid.service.rematch.incremental",
      "Rematches that took the incremental warm-start path");
  request_ms_ = reg->GetHistogram("cupid.service.request_ms",
                                  "End-to-end Match() latency, ms");
  lsim_caches_gauge_ =
      reg->GetGauge("cupid.service.lsim_caches",
                    "Live per-source LsimCaches shared by pair sessions");
  lsim_cache_bytes_ = reg->GetGauge(
      "cupid.service.lsim_cache_bytes",
      "Name- and label-pair table and label registry bytes of the live "
      "per-source LsimCaches");
  artifact_hits_ = reg->GetCounter(
      "cupid.service.artifacts.hits",
      "Cold-session sides whose schema version's artifact was alive");
  artifact_misses_ = reg->GetCounter(
      "cupid.service.artifacts.misses",
      "Cold-session sides that built their schema version's artifact");
  artifacts_live_ = reg->GetGauge(
      "cupid.service.artifacts.live",
      "Live schema-version artifacts in the store, as of its last update");
  mapping_renders_ = reg->GetCounter(kMappingRenders, kMappingRendersHelp);
  baseline_ = CacheStats{result_hits_->value(),
                         result_misses_->value(),
                         result_evictions_->value(),
                         sessions_created_->value(),
                         sessions_reused_->value(),
                         sessions_evicted_->value(),
                         incremental_rematches_->value()};
}

std::shared_ptr<LsimCache> MatchService::LsimCacheFor(
    const std::string& source, const CupidConfig& config) {
  // \x1f cannot appear in schema names read from files or protocols.
  std::string key = source + '\x1f' + LsimCacheBindingKey(config.linguistic);
  MutexLock lock(&lsim_caches_mu_);
  std::weak_ptr<LsimCache>& slot = lsim_caches_[key];
  if (std::shared_ptr<LsimCache> live = slot.lock()) return live;
  // Erasing every expired slot but this one is order-independent, and
  // keeps the map bounded by the live caches plus one.
  // NOLINTNEXTLINE(determinism:unordered-iteration)
  for (auto it = lsim_caches_.begin(); it != lsim_caches_.end();) {
    if (&it->second != &slot && it->second.expired()) {
      it = lsim_caches_.erase(it);
    } else {
      ++it;
    }
  }
  obs::Gauge* live_caches = lsim_caches_gauge_;
  std::shared_ptr<LsimCache> cache(
      new LsimCache(thesaurus_, config.linguistic, lsim_cache_bytes_),
      [live_caches](LsimCache* dead) {
        live_caches->Add(-1);
        delete dead;
      });
  live_caches->Add(1);
  slot = cache;
  return cache;
}

MatchSide MatchService::ArtifactSide(
    const std::string& key, const SchemaRepository::SchemaSnapshot& snapshot) {
  MutexLock lock(&artifacts_mu_);
  auto it = artifacts_.find(key);
  std::shared_ptr<const SchemaArtifact> live;
  if (it != artifacts_.end()) live = it->second.lock();
  if (live != nullptr && live->schema != snapshot.schema) live = nullptr;
  return MatchSide{snapshot.schema, std::move(live)};
}

void MatchService::PublishArtifact(
    const std::string& key,
    const std::shared_ptr<const SchemaArtifact>& artifact) {
  MutexLock lock(&artifacts_mu_);
  artifacts_[key] = artifact;
  // Erasing every dead entry is order-independent.
  // NOLINTNEXTLINE(determinism:unordered-iteration)
  for (auto it = artifacts_.begin(); it != artifacts_.end();) {
    it = it->second.expired() ? artifacts_.erase(it) : std::next(it);
  }
  artifacts_live_->Set(static_cast<int64_t>(artifacts_.size()));
}

std::shared_ptr<const MatchResponse> MatchService::CacheLookup(
    const ResultKey& key, const std::shared_ptr<const Schema>& source,
    const std::shared_ptr<const Schema>& target) {
  MutexLock lock(&cache_mu_);
  auto it = result_cache_.find(key);
  if (it == result_cache_.end() ||
      it->second->second.source_schema.lock() != source ||
      it->second->second.target_schema.lock() != target) {
    // A stale entry stays until this request's result replaces it.
    result_misses_->Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  result_hits_->Increment();
  return it->second->second.response;
}

void MatchService::CacheInsert(const ResultKey& key, CachedResult result) {
  MutexLock lock(&cache_mu_);
  auto it = result_cache_.find(key);
  if (it != result_cache_.end()) {
    it->second->second = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(result));
  result_cache_[key] = lru_.begin();
  while (result_cache_.size() >
         static_cast<size_t>(options_.result_cache_capacity)) {
    result_cache_.erase(lru_.back().first);
    lru_.pop_back();
    result_evictions_->Increment();
  }
}

Result<MatchResponse> MatchService::Match(const MatchRequest& request) {
  // Per-request trace state: inner spans (session.rematch, lsim.match,
  // treematch.*) pick this up from the thread-local and stamp "match" as
  // their label.
  obs::TraceContext trace_ctx("match");
  obs::ScopedTraceContext scoped_ctx(&trace_ctx);
  obs::ScopedSpan span("service.match");

  Clock::time_point t_start = Clock::now();
  CUPID_RETURN_NOT_OK(options_.Validate());
  CUPID_RETURN_NOT_OK(request.config.Validate());
  CUPID_ASSIGN_OR_RETURN(SchemaRepository::SchemaSnapshot source,
                         repository_->Resolve(request.source,
                                              request.source_version));
  CUPID_ASSIGN_OR_RETURN(SchemaRepository::SchemaSnapshot target,
                         repository_->Resolve(request.target,
                                              request.target_version));
  uint64_t fingerprint = ConfigFingerprint(request.config);
  ResultKey key{request.source, source.version, request.target,
                target.version, fingerprint};

  bool cacheable =
      request.use_result_cache && options_.result_cache_capacity > 0;
  if (cacheable) {
    if (std::shared_ptr<const MatchResponse> hit =
            CacheLookup(key, source.schema, target.schema)) {
      // Value copy; the cached one, and its rendering, are shared.
      MatchResponse response = *hit;
      response.result_cache_hit = true;
      response.session_reused = false;
      response.incremental = false;
      response.stats = RematchStats{};
      response.timings = ServiceTimings{};
      response.timings.total_ms = MsSince(t_start);
      request_ms_->Observe(response.timings.total_ms);
      span.Attr("cache_hit", 1);
      return response;
    }
  }

  MatchResponse response;
  response.source = request.source;
  response.target = request.target;
  response.source_version = source.version;
  response.target_version = target.version;
  response.config_fingerprint = fingerprint;

  if (!request.use_session) {
    // One-shot path: no state kept beyond the response.
    CupidMatcher matcher(thesaurus_, request.config);
    Clock::time_point t_match = Clock::now();
    CUPID_ASSIGN_OR_RETURN(MatchResult result,
                           matcher.Match(*source.schema, *target.schema));
    response.timings.match_ms = MsSince(t_match);
    response.leaf_mapping = std::move(result.leaf_mapping);
    response.nonleaf_mapping = std::move(result.nonleaf_mapping);
  } else {
    // Take the versions' live artifacts before the LRU below can evict the
    // last session holding them.
    const std::string source_key =
        ArtifactKey(request.source, source.version, request.config);
    const std::string target_key =
        ArtifactKey(request.target, target.version, request.config);
    const MatchSide source_side = ArtifactSide(source_key, source);
    const MatchSide target_side = ArtifactSide(target_key, target);
    std::shared_ptr<PairEntry> entry;
    {
      MutexLock lock(&sessions_mu_);
      // \x1f cannot appear in schema names read from files or protocols.
      std::string pair_key =
          request.source + '\x1f' + request.target + '\x1f' +
          StringFormat("%016llx", static_cast<unsigned long long>(fingerprint));
      auto it = sessions_.find(pair_key);
      if (it != sessions_.end()) {
        // Touch: most recently used pair moves to the front.
        session_lru_.splice(session_lru_.begin(), session_lru_, it->second);
      } else {
        session_lru_.emplace_front(pair_key, std::make_shared<PairEntry>());
        sessions_[pair_key] = session_lru_.begin();
        if (options_.session_capacity > 0 &&
            static_cast<int>(session_lru_.size()) >
                options_.session_capacity) {
          // Drop the idlest pair. In-flight holders of the shared_ptr
          // finish on the detached entry; the next request for that pair
          // warms a fresh session (bit-identical results, cold cost once).
          sessions_.erase(session_lru_.back().first);
          session_lru_.pop_back();
          sessions_evicted_->Increment();
        }
      }
      entry = session_lru_.front().second;
    }
    PairEntry* e = entry.get();
    MutexLock lock(&e->mu);
    CUPID_RETURN_NOT_OK(
        MatchOnSession(request, e, source_side, target_side, &response));
    if (!response.session_reused) {
      // A cold session: store the artifacts it took or built.
      (source_side.artifact ? artifact_hits_ : artifact_misses_)->Increment();
      (target_side.artifact ? artifact_hits_ : artifact_misses_)->Increment();
      PublishArtifact(source_key, e->session->artifact(EditSide::kSource));
      PublishArtifact(target_key, e->session->artifact(EditSide::kTarget));
    }
  }

  // Rendered once here; every reply of this result splices these bytes.
  Clock::time_point t_render = Clock::now();
  response.mapping_json = std::make_shared<const std::string>(
      RenderMappingMembers(response.leaf_mapping, response.nonleaf_mapping,
                           mapping_renders_));
  const double render_ms = MsSince(t_render);

  response.timings.total_ms = MsSince(t_start);
  request_ms_->Observe(response.timings.total_ms);
  span.Attr("cache_hit", 0);
  span.Attr("session_reused", response.session_reused ? 1 : 0);
  span.Attr("incremental", response.incremental ? 1 : 0);
  span.Attr("match_ms", response.timings.match_ms);
  span.Attr("render_ms", render_ms);
  if (cacheable) {
    CacheInsert(key, CachedResult{std::make_shared<const MatchResponse>(
                                      response),
                                  source.schema, target.schema});
  }
  return response;
}

Status MatchService::MatchOnSession(const MatchRequest& request,
                                    PairEntry* entry, const MatchSide& source,
                                    const MatchSide& target,
                                    MatchResponse* response) {
  const int source_version = response->source_version;
  const int target_version = response->target_version;
  bool reused;
  if (entry->session != nullptr &&
      !(StillInRepository(request.source, entry->source_version,
                          entry->source_schema) &&
        StillInRepository(request.target, entry->target_version,
                          entry->target_schema))) {
    // The repository was replaced under the session: its versions name
    // other schemas now, and no edit chain leads from what it matched.
    entry->session.reset();
  }
  if (entry->session != nullptr &&
      (entry->source_version != source_version ||
       entry->target_version != target_version)) {
    // The repository moved under the session. If both sides moved by pure
    // edit chains, replay them so Rematch can warm-start; anything else
    // (re-registration, version rollback) rebuilds cold.
    auto source_chain = repository_->EditChain(
        request.source, entry->source_version, source_version);
    auto target_chain = repository_->EditChain(
        request.target, entry->target_version, target_version);
    if (source_chain.has_value() && target_chain.has_value()) {
      bool applied = true;
      for (SchemaEdit edit : *source_chain) {
        edit.side = EditSide::kSource;
        if (!entry->session->ApplyEdit(edit).ok()) {
          applied = false;
          break;
        }
      }
      if (applied) {
        for (SchemaEdit edit : *target_chain) {
          edit.side = EditSide::kTarget;
          if (!entry->session->ApplyEdit(edit).ok()) {
            applied = false;
            break;
          }
        }
      }
      if (!applied) {
        // A partially applied chain leaves the session diverged from the
        // repository; discard it rather than serve from unknown state.
        entry->session.reset();
      }
    } else {
      entry->session.reset();
    }
  }
  // Surviving session == warm reuse (same versions, or chain replayed).
  reused = entry->session != nullptr;

  if (entry->session == nullptr) {
    entry->session = std::make_unique<MatchSession>(
        thesaurus_, source, target, request.config,
        LsimCacheFor(request.source, request.config));
    sessions_created_->Increment();
  } else {
    sessions_reused_->Increment();
  }

  Clock::time_point t_match = Clock::now();
  auto rematch = entry->session->Rematch();
  if (!rematch.ok()) {
    // Do not leave a session that failed mid-update warm.
    entry->session.reset();
    entry->source_version = entry->target_version = 0;
    return rematch.status();
  }
  response->timings.match_ms = MsSince(t_match);
  entry->source_version = source_version;
  entry->target_version = target_version;
  entry->source_schema = source.schema;
  entry->target_schema = target.schema;

  const MatchResult* result = *rematch;
  response->leaf_mapping = result->leaf_mapping;
  response->nonleaf_mapping = result->nonleaf_mapping;
  response->session_reused = reused;
  response->stats = entry->session->last_stats();
  response->incremental = response->stats.incremental;
  if (response->incremental) incremental_rematches_->Increment();
  return Status::OK();
}

bool MatchService::StillInRepository(
    const std::string& name, int version,
    const std::weak_ptr<const Schema>& seen) const {
  const std::shared_ptr<const Schema> schema = seen.lock();
  if (schema == nullptr) return false;
  auto held = repository_->Get(name, version);
  return held.ok() && *held == schema;
}

void MatchService::InvalidateAll() {
  // Lock order matches Match(): cache_mu_, sessions_mu_, lsim_caches_mu_
  // and artifacts_mu_ never nest.
  {
    MutexLock lock(&cache_mu_);
    lru_.clear();
    result_cache_.clear();
  }
  {
    MutexLock lock(&sessions_mu_);
    // In-flight requests holding a PairEntry shared_ptr finish safely on
    // the detached entry; new requests build fresh ones.
    sessions_.clear();
    session_lru_.clear();
  }
  {
    MutexLock lock(&lsim_caches_mu_);
    lsim_caches_.clear();
  }
  MutexLock lock(&artifacts_mu_);
  artifacts_.clear();
  artifacts_live_->Set(0);
}

MatchService::CacheStats MatchService::cache_stats() const {
  return CacheStats{
      result_hits_->value() - baseline_.result_hits,
      result_misses_->value() - baseline_.result_misses,
      result_evictions_->value() - baseline_.result_evictions,
      sessions_created_->value() - baseline_.sessions_created,
      sessions_reused_->value() - baseline_.sessions_reused,
      sessions_evicted_->value() - baseline_.sessions_evicted,
      incremental_rematches_->value() - baseline_.incremental_rematches};
}

}  // namespace cupid
