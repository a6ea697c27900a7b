// The state of the linguistic phase: token interner, token-pair memo,
// distinct-name and category-label registries, and name-pair and label-pair
// similarities. Every LinguisticMatcher match runs on one. A one-shot match
// (LinguisticMatcher::Match(s1, s2), CupidMatcher::Match) uses a fresh cache
// and drops it; a session over an evolving schema pair
// (incremental/match_session.h) keeps its cache and re-pays only the names
// an edit introduced; every session of one source schema in a MatchService
// shares one cache, so a cold match over names other pairs already scored
// is a table read.
//
// Name-pair similarity is a pure function of the two raw names (under a
// fixed thesaurus and option set), so serving it from this cache is
// bit-identical to recomputing it: the cached value *was* computed by
// InternedNameSimilarity on first sight. The same holds one level up: a
// category's keywords are a pure function of its label (the categorizer's
// locality contract, linguistic/categorizer.h), so each side also keeps a
// category-label registry and the cache a label-pair table of category
// similarities, computed once through the persistent token-pair memo. What
// stays per schema is what depends on its shape: its categorization and
// registry indices (LinguisticMatcher::Prepare, once per schema side); per
// pair, the best-scale pruning and the lsim scatter (the kernel
// LinguisticMatcher::Match(side1, side2, cache)). The naive oracle every path
// is tested against is LinguisticMatchReference.
//
// A cache is bound at construction to one thesaurus and one option set;
// LinguisticMatcher::Match(s1, s2, cache) rejects a cache bound differently
// (mixing would serve values computed under other inputs). Callers that
// share caches key them by LsimCacheBindingKey.
//
// Concurrency: the mutable state is guarded by an internal reader/writer
// mutex. Preparation and the kernel — cold or warm (a session's rematch
// runs the same kernel) — are read-first: they look up names and category
// labels, read label-pair similarities and scatter name-pair similarities
// (through a const LsimCacheReadView) under a SHARED hold, so any number of
// matches over a warm cache run concurrently. Only a name or label never
// registered, or a needed name or label pair never computed, takes the
// mutex exclusively, and then works through a LsimCacheView that fills just
// that match's missing entries — the persistent memo is not thread-safe, so
// fills serialize by design. Cached values are pure functions of the raw
// names and labels, so every path is bit-identical to recomputation.

#ifndef CUPID_LINGUISTIC_LSIM_CACHE_H_
#define CUPID_LINGUISTIC_LSIM_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "linguistic/categorizer.h"
#include "linguistic/linguistic_matcher.h"
#include "linguistic/normalizer.h"
#include "perf/interned_names.h"
#include "perf/token_interner.h"
#include "util/matrix.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cupid {

namespace obs {
class Gauge;
}  // namespace obs

class LsimCacheView;
class LsimCacheReadView;

/// \brief Key of the linguistic option fields a cache is bound to
/// (substring scale/min_affix, token type weights — exactly what
/// LinguisticMatcher's binding check compares, as bit patterns so e.g.
/// -0.0 and 0.0 never alias). Options with equal keys may share a cache.
std::string LsimCacheBindingKey(const LinguisticOptions& options);

/// \brief Persistent state of the cached linguistic pipeline.
class LsimCache {
 public:
  /// `thesaurus` must outlive the cache. `options` must equal the options of
  /// every LinguisticMatcher the cache is used with. A non-null
  /// `bytes_gauge` (which must outlive the cache) tracks bytes(): the cache
  /// adds each growth and subtracts its total when it dies, so one gauge
  /// sums a set of live caches.
  LsimCache(const Thesaurus* thesaurus, const LinguisticOptions& options,
            obs::Gauge* bytes_gauge = nullptr);
  ~LsimCache();

  LsimCache(const LsimCache&) = delete;
  LsimCache& operator=(const LsimCache&) = delete;

  /// Distinct raw names seen so far on each side (diagnostics).
  size_t num_source_names() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return side1_.interned.size();
  }
  size_t num_target_names() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return side2_.interned.size();
  }
  /// Distinct category labels seen so far on each side (diagnostics).
  size_t num_source_labels() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return labels1_.keywords.size();
  }
  size_t num_target_labels() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return labels2_.keywords.size();
  }
  /// Name pairs whose similarity has been computed and memoized.
  int64_t num_cached_pairs() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return cached_pairs_;
  }
  /// Bytes of the parts of the cache that grow with use: the name-pair
  /// table, the label-pair table and the token-pair memo's dense table
  /// (values plus known bits, as allocated) and the label registries
  /// (estimated heap bytes).
  int64_t bytes() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return bytes_;
  }
  /// Allocated size of the name-pair table alone (similarities plus known
  /// bits) — the part of bytes() that grows with names x names.
  int64_t name_table_bytes() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return ns_.rows() * ns_.cols() *
           static_cast<int64_t>(sizeof(double) + sizeof(uint8_t));
  }

 private:
  friend class LinguisticMatcher;
  friend class LsimCacheView;
  friend class LsimCacheReadView;

  /// One side's registry: every distinct raw name ever seen, interned
  /// exactly once from its normalized form. Indices are stable across runs.
  struct SideNames {
    std::unordered_map<std::string, int32_t> ids;  // raw name -> index
    std::vector<InternedName> interned;

    int32_t Register(const std::string& raw, const NormalizedName& normalized,
                     TokenInterner* interner) {
      auto [it, inserted] =
          ids.emplace(raw, static_cast<int32_t>(interned.size()));
      if (inserted) interned.push_back(InternName(normalized, interner));
      return it->second;
    }
  };

  /// One side's category-label registry: every distinct label ever seen,
  /// with its keywords interned once. A label's keywords are a pure function
  /// of the label, so the first sighting's serve every later schema.
  /// Indices are stable across runs.
  struct SideLabels {
    std::unordered_map<std::string, int32_t> ids;  // label -> index
    std::vector<std::vector<TokenId>> keywords;
  };

  /// Registry indices of every element name of `schema` on `side`, looked
  /// up under the shared lock; a schema holding a name the cache never saw
  /// takes the exclusive lock to register it from `names` (the schema's
  /// normalized names, by element). Returns whether the lock was exclusive.
  bool LookupNames(LsimSide side, const Schema& schema,
                   const std::vector<NormalizedName>& names,
                   std::vector<int32_t>* ids) EXCLUDES(mu_);
  /// Registry indices of every category label of `categories` on `side`,
  /// with the same read-first locking as LookupNames.
  bool LookupLabels(LsimSide side, const Categorization& categories,
                    std::vector<int32_t>* ids) EXCLUDES(mu_);
  /// The category similarity of every (labels1[i], labels2[j]) pair into
  /// `*cat_sim` (|labels1| x |labels2|): read from the label-pair table under
  /// the shared lock; a pair never computed takes the exclusive lock, which
  /// fills it through the persistent memo. Returns whether it did.
  bool CategorySimilarities(const std::vector<int32_t>& labels1,
                            const std::vector<int32_t>& labels2,
                            Matrix<float>* cat_sim) EXCLUDES(mu_);

  /// Plain-pointer view of the guarded state; the caller holds mu_ for the
  /// lifetime of the view (see LsimCacheView).
  inline LsimCacheView LockedView() REQUIRES(mu_);

  /// Const view of the warmed state; the caller holds mu_ in shared mode for
  /// the lifetime of the view (see LsimCacheReadView).
  inline LsimCacheReadView LockedReadView() const REQUIRES_SHARED(mu_);

  /// Process-unique identity, checked when a prepared side
  /// (LinguisticMatcher::Prepare) is matched against a cache.
  const uint64_t id_;
  const Thesaurus* thesaurus_;   // immutable binding, checked by the matcher
  LinguisticOptions options_;    // immutable binding
  obs::Gauge* bytes_gauge_;      // null = untracked
  mutable SharedMutex mu_;
  TokenInterner interner_ GUARDED_BY(mu_);
  TokenPairMemo memo_ GUARDED_BY(mu_);
  SideNames side1_ GUARDED_BY(mu_), side2_ GUARDED_BY(mu_);
  SideLabels labels1_ GUARDED_BY(mu_), labels2_ GUARDED_BY(mu_);
  /// Name-pair similarities indexed by (side1 index, side2 index).
  Matrix<double> ns_ GUARDED_BY(mu_);
  Matrix<uint8_t> known_ GUARDED_BY(mu_);
  /// Category similarities indexed by (side1 label, side2 label).
  Matrix<float> cat_sim_ GUARDED_BY(mu_);
  Matrix<uint8_t> cat_known_ GUARDED_BY(mu_);
  int64_t cached_pairs_ GUARDED_BY(mu_) = 0;
  int64_t bytes_ GUARDED_BY(mu_) = 0;  // what bytes() reports
};

/// \brief Pointer view of one LsimCache's guarded state, handed out by
/// LockedView() under the cache mutex.
///
/// Holding a view asserts that the cache mutex is held: the matcher locks
/// once per call and threads the view through its (lambda-heavy) fill
/// pipeline, which keeps the whole-call critical section visible to clang's
/// thread-safety analysis without annotating every helper — lambdas are
/// analyzed as separate functions and would not inherit the held capability.
class LsimCacheView {
 public:
  /// Grows the ns/known matrices to cover every registered name pair,
  /// preserving content. Only a dimension that overflows grows
  /// (geometrically), so a stream of new names on one side never inflates
  /// the other.
  void EnsureCapacity();

  /// ns of registered name pair (i, j), computed through the persistent memo
  /// on first request. Caller must have EnsureCapacity'd. The hit path is
  /// inline: a warm kernel's exclusive pass visits every needed pair, and
  /// nearly all of them hit.
  double NameSimilarity(int32_t i, int32_t j,
                        const TokenTypeWeights& weights) {
    if ((*known_)(i, j)) return (*ns_)(i, j);
    return ComputeNameSimilarity(i, j, weights);
  }

 private:
  friend class LsimCache;

  /// EnsureCapacity for the label-pair table.
  void EnsureCategoryCapacity();

  /// Index of `category`'s label in `labels` (either side's registry),
  /// registering the label and interning its keywords on first sight.
  int32_t RegisterLabel(LsimCache::SideLabels* labels,
                        const Category& category);

  /// Category similarity of registered label pair (l1, l2) — the float
  /// cat_sim cell of the batch pipeline — computed through the persistent
  /// memo on first request. Caller must have EnsureCategoryCapacity'd.
  float CategorySimilarity(int32_t l1, int32_t l2) {
    if ((*cat_known_)(l1, l2)) return (*cat_sim_)(l1, l2);
    return ComputeCategorySimilarity(l1, l2);
  }

  explicit LsimCacheView(LsimCache* cache)
      : interner_(&cache->interner_),
        memo_(&cache->memo_),
        side1_(&cache->side1_),
        side2_(&cache->side2_),
        labels1_(&cache->labels1_),
        labels2_(&cache->labels2_),
        ns_(&cache->ns_),
        known_(&cache->known_),
        cat_sim_(&cache->cat_sim_),
        cat_known_(&cache->cat_known_),
        cached_pairs_(&cache->cached_pairs_),
        bytes_(&cache->bytes_),
        bytes_gauge_(cache->bytes_gauge_) {}

  double ComputeNameSimilarity(int32_t i, int32_t j,
                               const TokenTypeWeights& weights);
  float ComputeCategorySimilarity(int32_t l1, int32_t l2);
  /// Adds `delta` to bytes() and to the bytes gauge, if any.
  void AddBytes(int64_t delta);
  /// Charges bytes() for whatever the memo's dense table grew by since it
  /// measured `memo_bytes_before` (the memo sizes it at its first lookup).
  void ChargeMemo(int64_t memo_bytes_before);

  TokenInterner* interner_;
  TokenPairMemo* memo_;
  LsimCache::SideNames* side1_;
  LsimCache::SideNames* side2_;
  LsimCache::SideLabels* labels1_;
  LsimCache::SideLabels* labels2_;
  Matrix<double>* ns_;
  Matrix<uint8_t>* known_;
  Matrix<float>* cat_sim_;
  Matrix<uint8_t>* cat_known_;
  int64_t* cached_pairs_;
  int64_t* bytes_;
  obs::Gauge* bytes_gauge_;
};

inline LsimCacheView LsimCache::LockedView() { return LsimCacheView(this); }

/// \brief Const pointer view of one LsimCache's warmed state, handed out by
/// LockedReadView() under a SHARED hold of the cache mutex.
///
/// The read view can only read name-pair similarities already computed by an
/// exclusive fill — it reports misses instead of filling. Any number of
/// readers scatter from the table concurrently; LinguisticMatcher::Match
/// takes the exclusive path only for what a reader missed.
class LsimCacheReadView {
 public:
  /// If the similarity of registered pair (i, j) has been computed, stores it
  /// in `*ns` and returns true. Never computes.
  bool NameSimilarityIfKnown(int32_t i, int32_t j, double* ns) const {
    if (i < 0 || j < 0 || i >= known_->rows() || j >= known_->cols() ||
        !(*known_)(i, j)) {
      return false;
    }
    *ns = (*ns_)(i, j);
    return true;
  }

 private:
  friend class LsimCache;

  explicit LsimCacheReadView(const LsimCache* cache)
      : ns_(&cache->ns_), known_(&cache->known_) {}

  const Matrix<double>* ns_;
  const Matrix<uint8_t>* known_;
};

inline LsimCacheReadView LsimCache::LockedReadView() const {
  return LsimCacheReadView(this);
}

}  // namespace cupid

#endif  // CUPID_LINGUISTIC_LSIM_CACHE_H_
