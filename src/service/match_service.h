// MatchService — the long-lived front door for matching traffic.
//
// Every consumer so far (CLI, examples, benches) builds schemas and a
// CupidMatcher from scratch per call. MatchService instead fronts a
// SchemaRepository with the warm state worth keeping between requests:
//
//   * an LRU result cache keyed by (source@version, target@version,
//     ConfigFingerprint) — a repeated request is a lookup;
//   * one MatchSession per (source, target, ConfigFingerprint) pair,
//     carrying the session's similarity snapshots across requests — when
//     the repository's latest versions moved by a pure edit chain, the
//     service replays the edits into the session and Rematch takes the
//     incremental path;
//   * one LsimCache per (source schema name, linguistic binding), shared by
//     every session of that source: a cold session reads the name-pair
//     similarities its source's other pairs already scored under the
//     cache's shared lock. The service holds each cache weakly and the
//     sessions own it, so the session LRU bounds the caches too — a cache
//     dies with its source's last session;
//   * one SchemaArtifact (tree and linguistic analysis) per schema version
//     and binding, held by the sessions and found through a weak map, so a
//     cold session over versions other sessions match builds neither;
//   * a direct CupidMatcher path for requests that opt out of session
//     state (use_session=false).
//
// Responses carry value-semantic mappings (safe to cache and share) plus
// their JSON rendering, made once per result and shared by every cached
// read, batch item and push of it. They are bit-identical to
// CupidMatcher::Match on the same schema versions regardless of which path
// served them (tests/service_test.cc hammers this from N concurrent
// clients).

#ifndef CUPID_SERVICE_MATCH_SERVICE_H_
#define CUPID_SERVICE_MATCH_SERVICE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/config.h"
#include "incremental/match_session.h"
#include "mapping/mapping.h"
#include "obs/metrics.h"
#include "service/schema_repository.h"
#include "thesaurus/thesaurus.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cupid {

class JsonWriter;

/// One match request against repository schemas.
struct MatchRequest {
  std::string source;      ///< repository name of the source schema
  std::string target;      ///< repository name of the target schema
  int source_version = 0;  ///< 0 = latest
  int target_version = 0;  ///< 0 = latest
  CupidConfig config;
  /// Serve / store this request through the LRU result cache.
  bool use_result_cache = true;
  /// Use the per-pair warm MatchSession (incremental path after repository
  /// edits). When false the request runs a one-shot CupidMatcher.
  bool use_session = true;
};

/// Wall-clock phases of one request, milliseconds.
struct ServiceTimings {
  double total_ms = 0.0;
  /// Time inside the matcher (0 for result-cache hits).
  double match_ms = 0.0;
  /// Time spent queued before a worker picked the job up (filled by
  /// JobScheduler; 0 for synchronous calls).
  double queue_ms = 0.0;
};

/// Everything a match request returns. Value semantics: safe to copy out,
/// cache, and serialize after the repository has moved on.
struct MatchResponse {
  std::string source, target;
  int source_version = 0, target_version = 0;
  uint64_t config_fingerprint = 0;

  Mapping leaf_mapping;
  Mapping nonleaf_mapping;

  /// Served straight from the LRU result cache.
  bool result_cache_hit = false;
  /// A previously warmed session was reused (same or edit-derived versions).
  bool session_reused = false;
  /// The session's Rematch took the incremental (warm-start) path.
  bool incremental = false;
  /// Session diagnostics of the run that produced the mappings (zeroed for
  /// result-cache hits and direct runs).
  RematchStats stats;

  ServiceTimings timings;

  /// `"leaf_mapping":{…},"nonleaf_mapping":{…}` rendered from this
  /// response's own mappings, shared by every copy (immutable). Only
  /// MatchService sets it, on the results it returns and caches; it is null
  /// on hand-built responses, whose mappings ToJson renders itself. Whoever
  /// changes a copy's mappings must reset it.
  std::shared_ptr<const std::string> mapping_json;

  /// \brief Compact JSON object (the JSONL protocol payload). Mapping
  /// similarity values use 6 fixed decimals, matching RenderMappingJson.
  std::string ToJson(bool include_mappings = true) const;

  /// \brief Writes ToJson's members into `w`'s open object, so a reply
  /// that adds fields of its own copies the mappings only once.
  void WriteJsonFields(bool include_mappings, JsonWriter* w) const;
};

/// \brief The mapping members of MatchResponse::ToJson(true):
/// `"leaf_mapping":{…},"nonleaf_mapping":{…}`. Counts one render on
/// `renders` when that is non-null.
std::string RenderMappingMembers(const Mapping& leaf_mapping,
                                 const Mapping& nonleaf_mapping,
                                 obs::Counter* renders);

/// \brief Concurrent match front door over a SchemaRepository.
class MatchService {
 public:
  struct Options {
    /// Capacity of the LRU result cache (responses; they are small —
    /// mappings only). 0 disables result caching entirely.
    int result_cache_capacity = 128;
    /// Bound on warm pair sessions kept between requests. Sessions hold
    /// full similarity snapshots (megabytes at large schema sizes), so an
    /// idle pair's state must not live forever: the least recently used
    /// pair is dropped beyond this. A re-requested evicted pair just warms
    /// a fresh session — results stay bit-identical, only the first
    /// request pays the cold cost again. 0 = unbounded.
    int session_capacity = 64;

    /// Registry the service's counters live in; nullptr = the process-wide
    /// obs::MetricsRegistry::Default(). Tests pass a private registry for
    /// hard isolation.
    obs::MetricsRegistry* metrics = nullptr;

    /// InvalidArgument on out-of-domain capacities (negative values would
    /// silently disable eviction or underflow size comparisons). Checked on
    /// every Match call, so a misconfigured service fails loudly.
    Status Validate() const;
  };

  /// `thesaurus` and `repository` must outlive the service.
  MatchService(const Thesaurus* thesaurus, SchemaRepository* repository,
               Options options);
  MatchService(const Thesaurus* thesaurus, SchemaRepository* repository)
      : MatchService(thesaurus, repository, Options()) {}

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// \brief Executes one request synchronously. Thread-safe; requests for
  /// the same (source, target, fingerprint) pair serialize on the pair's
  /// session, everything else runs concurrently.
  Result<MatchResponse> Match(const MatchRequest& request);

  SchemaRepository* repository() const { return repository_; }

  /// \brief Drops every cached result, warm session, per-source LsimCache
  /// and artifact. Required after the backing repository is replaced
  /// wholesale (e.g. a "load" command): version numbers restart, so stale
  /// sessions could otherwise collide with the new lineage. In-flight
  /// requests finish on their detached sessions; their caches die with them.
  void InvalidateAll();

  /// Cross-request cache effectiveness counters (monotonic). A view over
  /// the cupid.service.* registry counters: each field is the counter's
  /// current value minus its value when this service was constructed, so
  /// the historical per-instance semantics survive the registry re-base
  /// (exact while this instance is the counters' only concurrent updater —
  /// the one-service-per-process topology; tests wanting isolation pass
  /// Options::metrics).
  struct CacheStats {
    int64_t result_hits = 0;
    int64_t result_misses = 0;
    int64_t result_evictions = 0;
    int64_t sessions_created = 0;
    int64_t sessions_reused = 0;
    int64_t sessions_evicted = 0;
    int64_t incremental_rematches = 0;
  };
  CacheStats cache_stats() const;

 private:
  struct ResultKey {
    std::string source;
    int source_version;
    std::string target;
    int target_version;
    uint64_t config_fingerprint;
    bool operator==(const ResultKey& o) const {
      return source == o.source && source_version == o.source_version &&
             target == o.target && target_version == o.target_version &&
             config_fingerprint == o.config_fingerprint;
    }
  };
  struct ResultKeyHash {
    size_t operator()(const ResultKey& k) const;
  };

  /// A cached response and the repository schemas it was computed from: a
  /// repository replaced under the service may reuse names and versions.
  struct CachedResult {
    std::shared_ptr<const MatchResponse> response;
    std::weak_ptr<const Schema> source_schema, target_schema;
  };

  /// Warm per-pair state; `mu` serializes matches on the pair.
  struct PairEntry {
    Mutex mu;
    std::unique_ptr<MatchSession> session GUARDED_BY(mu);
    int source_version GUARDED_BY(mu) = 0;
    int target_version GUARDED_BY(mu) = 0;
    /// The repository's schemas at those versions when the session last
    /// matched them; the session is reused only over these very objects.
    std::weak_ptr<const Schema> source_schema GUARDED_BY(mu);
    std::weak_ptr<const Schema> target_schema GUARDED_BY(mu);
  };

  /// The LsimCache shared by every session of `source` whose linguistic
  /// options bind like `config`'s (LsimCacheBindingKey), created on first
  /// use and alive while any such session is.
  std::shared_ptr<LsimCache> LsimCacheFor(const std::string& source,
                                          const CupidConfig& config);

  /// The response cached under `key` when it was computed from these very
  /// schemas; anything else counts as a miss.
  std::shared_ptr<const MatchResponse> CacheLookup(
      const ResultKey& key, const std::shared_ptr<const Schema>& source,
      const std::shared_ptr<const Schema>& target);
  void CacheInsert(const ResultKey& key, CachedResult result);

  /// Runs the request on the pair's (possibly warmed) session, filling
  /// `response`'s mappings/flags/stats (its header fields — names,
  /// versions, fingerprint — are already set by Match). entry->mu must be
  /// held.
  Status MatchOnSession(const MatchRequest& request, PairEntry* entry,
                        const MatchSide& source, const MatchSide& target,
                        MatchResponse* response) REQUIRES(entry->mu);
  /// True when the repository still holds `seen` as `name`@`version`.
  bool StillInRepository(const std::string& name, int version,
                         const std::weak_ptr<const Schema>& seen) const;

  /// `snapshot`'s schema with the artifact stored under `key` when that is
  /// alive and pins this very schema (so a reloaded lineage never matches).
  MatchSide ArtifactSide(const std::string& key,
                         const SchemaRepository::SchemaSnapshot& snapshot);
  /// Stores `artifact` under `key` (weakly) and sweeps dead entries.
  void PublishArtifact(const std::string& key,
                       const std::shared_ptr<const SchemaArtifact>& artifact);

  const Thesaurus* thesaurus_;
  SchemaRepository* repository_;
  Options options_;

  mutable Mutex cache_mu_;
  /// LRU: most recent at front; map values point into the list.
  std::list<std::pair<ResultKey, CachedResult>> lru_ GUARDED_BY(cache_mu_);
  std::unordered_map<ResultKey,
                     std::list<std::pair<ResultKey, CachedResult>>::iterator,
                     ResultKeyHash>
      result_cache_ GUARDED_BY(cache_mu_);

  mutable Mutex sessions_mu_;
  /// Bounded LRU over warm pair state, keyed (source \x1f target \x1f
  /// fingerprint): most recently requested pair at the front of
  /// session_lru_; map values point into the list. Evicting a pair only
  /// drops the map's reference — an in-flight request holding the
  /// shared_ptr finishes safely on the detached entry.
  std::list<std::pair<std::string, std::shared_ptr<PairEntry>>> session_lru_
      GUARDED_BY(sessions_mu_);
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, std::shared_ptr<PairEntry>>>::iterator>
      sessions_ GUARDED_BY(sessions_mu_);

  Mutex lsim_caches_mu_;
  /// Keyed (source \x1f LsimCacheBindingKey). Weak: sessions own the
  /// caches; expired slots are swept whenever a cache is created.
  std::unordered_map<std::string, std::weak_ptr<LsimCache>> lsim_caches_
      GUARDED_BY(lsim_caches_mu_);

  Mutex artifacts_mu_;
  /// Keyed (name \x1f version \x1f binding). Weak: sessions own the
  /// artifacts; storing one sweeps the dead entries, so the map holds the
  /// artifacts alive at the last store plus those that died since.
  std::unordered_map<std::string, std::weak_ptr<const SchemaArtifact>>
      artifacts_ GUARDED_BY(artifacts_mu_);

  /// Registry counter handles (lock-free increments on the request path)
  /// and the construction-time baseline cache_stats() subtracts.
  obs::Counter* result_hits_;
  obs::Counter* result_misses_;
  obs::Counter* result_evictions_;
  obs::Counter* sessions_created_;
  obs::Counter* sessions_reused_;
  obs::Counter* sessions_evicted_;
  obs::Counter* incremental_rematches_;
  obs::Histogram* request_ms_;
  obs::Gauge* lsim_caches_gauge_;  ///< live per-source LsimCaches
  obs::Gauge* lsim_cache_bytes_;   ///< sum of their bytes()
  obs::Counter* artifact_hits_;    ///< cold-session sides found live
  obs::Counter* artifact_misses_;  ///< cold-session sides built
  obs::Gauge* artifacts_live_;     ///< store entries alive at the last store
  obs::Counter* mapping_renders_;  ///< results rendered to JSON
  CacheStats baseline_;
};

}  // namespace cupid

#endif  // CUPID_SERVICE_MATCH_SERVICE_H_
