// Cross-run linguistic cache: the per-run state of the cached lsim pipeline
// (token interner, token-pair memo, distinct-name registry, name-pair
// similarities), made persistent so repeated matching re-pays only the
// names it has not seen: a session over an evolving schema pair
// (incremental/match_session.h) re-pays the names an edit introduced, and
// every session of one source schema in a MatchService shares one cache,
// so a cold match over names other pairs already scored is a table read.
//
// Name-pair similarity is a pure function of the two raw names (under a
// fixed thesaurus and option set), so serving it from this cache is
// bit-identical to recomputing it: the cached value *was* computed by
// InternedNameSimilarity on first sight. Element-level state (categories,
// best-scale pruning, the lsim scatter) is cheap and recomputed every run —
// only the expensive name-level work is memoized.
//
// A cache is bound at construction to one thesaurus and one option set;
// LinguisticMatcher::Match(s1, s2, cache) rejects a cache bound differently
// (mixing would serve values computed under other inputs). Callers that
// share caches key them by LsimCacheBindingKey.
//
// Concurrency: the mutable state is guarded by an internal reader/writer
// mutex. LinguisticMatcher::Match(s1, s2, cache) is read-first: it looks
// up names and scatters name-pair similarities under a SHARED hold through
// a const LsimCacheReadView, so any number of matches over a warm cache
// run concurrently. Only a name never registered, or a needed name pair
// never computed, takes the mutex exclusively, and then works through a
// LsimCacheView that fills just that match's missing entries — the
// persistent memo is not thread-safe, so fills serialize by design.
// MatchGather (the warm session path) holds the mutex exclusively for its
// whole patch. Cached values are pure functions of the raw names, so every
// path is bit-identical to recomputation.

#ifndef CUPID_LINGUISTIC_LSIM_CACHE_H_
#define CUPID_LINGUISTIC_LSIM_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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
  /// adds each growth of its name-pair table and subtracts the table when
  /// it dies, so one gauge sums a set of live caches.
  LsimCache(const Thesaurus* thesaurus, const LinguisticOptions& options,
            obs::Gauge* bytes_gauge = nullptr)
      : thesaurus_(thesaurus),
        options_(options),
        bytes_gauge_(bytes_gauge),
        // Hash-mode memo: the dense table is sized to the interner at
        // construction time, which keeps growing here.
        memo_(&interner_, thesaurus, options.substring, /*use_dense=*/false) {}
  ~LsimCache();

  LsimCache(const LsimCache&) = delete;
  LsimCache& operator=(const LsimCache&) = delete;

  /// Distinct raw names seen so far on each side (diagnostics).
  size_t num_source_names() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return side1_.names.size();
  }
  size_t num_target_names() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return side2_.names.size();
  }
  /// Name pairs whose similarity has been computed and memoized.
  int64_t num_cached_pairs() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return cached_pairs_;
  }
  /// Allocated size of the name-pair table (similarities plus known bits),
  /// in bytes — the part of the cache that grows with rows x cols.
  int64_t bytes() const EXCLUDES(mu_) {
    SharedReaderLock lock(&mu_);
    return TableBytes();
  }

 private:
  friend class LinguisticMatcher;
  friend class LsimCacheView;
  friend class LsimCacheReadView;

  /// One side's registry: every distinct raw name ever seen, normalized and
  /// interned exactly once. Indices are stable across runs.
  struct SideNames {
    std::unordered_map<std::string, int32_t> ids;  // raw name -> index
    std::vector<NormalizedName> names;
    std::vector<InternedName> interned;

    int32_t Register(const std::string& raw, const NameNormalizer& normalizer,
                     TokenInterner* interner) {
      auto [it, inserted] = ids.emplace(raw, static_cast<int32_t>(names.size()));
      if (inserted) {
        names.push_back(normalizer.Normalize(raw));
        interned.push_back(InternName(names.back(), interner));
      }
      return it->second;
    }
  };

  /// Plain-pointer view of the guarded state; the caller holds mu_ for the
  /// lifetime of the view (see LsimCacheView).
  inline LsimCacheView LockedView() REQUIRES(mu_);

  /// Const view of the warmed state; the caller holds mu_ in shared mode for
  /// the lifetime of the view (see LsimCacheReadView).
  inline LsimCacheReadView LockedReadView() const REQUIRES_SHARED(mu_);

  int64_t TableBytes() const REQUIRES_SHARED(mu_) {
    return ns_.rows() * ns_.cols() *
           static_cast<int64_t>(sizeof(double) + sizeof(uint8_t));
  }

  const Thesaurus* thesaurus_;   // immutable binding, checked by the matcher
  LinguisticOptions options_;    // immutable binding
  obs::Gauge* bytes_gauge_;      // null = untracked
  mutable SharedMutex mu_;
  TokenInterner interner_ GUARDED_BY(mu_);
  TokenPairMemo memo_ GUARDED_BY(mu_);
  SideNames side1_ GUARDED_BY(mu_), side2_ GUARDED_BY(mu_);
  /// Name-pair similarities indexed by (side1 index, side2 index).
  Matrix<double> ns_ GUARDED_BY(mu_);
  Matrix<uint8_t> known_ GUARDED_BY(mu_);
  int64_t cached_pairs_ GUARDED_BY(mu_) = 0;
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
  TokenInterner* interner() const { return interner_; }
  LsimCache::SideNames& side1() const { return *side1_; }
  LsimCache::SideNames& side2() const { return *side2_; }
  TokenPairMemo* memo() const { return memo_; }
  /// Grows the ns/known matrices to cover [rows x cols], preserving content.
  /// Only a dimension that overflows grows (geometrically), so a stream of
  /// new names on one side never inflates the other.
  void EnsureCapacity(int64_t rows, int64_t cols);

  /// ns of registered name pair (i, j), computed through the persistent memo
  /// on first request. Caller must have EnsureCapacity'd. The hit path is
  /// inline: on a warm rematch nearly every needed pair hits, and the fill
  /// loop visits all of them.
  double NameSimilarity(int32_t i, int32_t j,
                        const TokenTypeWeights& weights) {
    if ((*known_)(i, j)) return (*ns_)(i, j);
    return ComputeNameSimilarity(i, j, weights);
  }

 private:
  friend class LsimCache;

  explicit LsimCacheView(LsimCache* cache)
      : interner_(&cache->interner_),
        memo_(&cache->memo_),
        side1_(&cache->side1_),
        side2_(&cache->side2_),
        ns_(&cache->ns_),
        known_(&cache->known_),
        cached_pairs_(&cache->cached_pairs_),
        bytes_gauge_(cache->bytes_gauge_) {}

  double ComputeNameSimilarity(int32_t i, int32_t j,
                               const TokenTypeWeights& weights);

  TokenInterner* interner_;
  TokenPairMemo* memo_;
  LsimCache::SideNames* side1_;
  LsimCache::SideNames* side2_;
  Matrix<double>* ns_;
  Matrix<uint8_t>* known_;
  int64_t* cached_pairs_;
  obs::Gauge* bytes_gauge_;
};

inline LsimCacheView LsimCache::LockedView() { return LsimCacheView(this); }

/// \brief Const pointer view of one LsimCache's warmed state, handed out by
/// LockedReadView() under a SHARED hold of the cache mutex.
///
/// The read view can only look up names already registered and similarities
/// already computed by an exclusive fill — every method reports misses
/// instead of filling. Any number of readers scatter from the table
/// concurrently; LinguisticMatcher::Match takes the exclusive path only for
/// what a reader missed.
class LsimCacheReadView {
 public:
  /// The side-1 / side-2 distinct-name registries.
  const LsimCache::SideNames& side1() const { return *side1_; }
  const LsimCache::SideNames& side2() const { return *side2_; }

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
      : side1_(&cache->side1_),
        side2_(&cache->side2_),
        ns_(&cache->ns_),
        known_(&cache->known_) {}

  const LsimCache::SideNames* side1_;
  const LsimCache::SideNames* side2_;
  const Matrix<double>* ns_;
  const Matrix<uint8_t>* known_;
};

inline LsimCacheReadView LsimCache::LockedReadView() const {
  return LsimCacheReadView(this);
}

}  // namespace cupid

#endif  // CUPID_LINGUISTIC_LSIM_CACHE_H_
