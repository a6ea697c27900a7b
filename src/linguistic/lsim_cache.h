// Cross-run linguistic cache: the per-run state of the cached lsim pipeline
// (token interner, token-pair memo, distinct-name registry, name-pair
// similarities), made persistent so repeated matching over evolving schemas
// (incremental/match_session.h) re-pays only the names an edit introduced.
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
// (mixing would serve values computed under other inputs).
//
// Concurrency: the mutable state is guarded by an internal reader/writer
// mutex. Mutating paths (Match/MatchGather with a cache) take it
// exclusively and work through a LsimCacheView for the whole serial fill —
// the persistent memo is not thread-safe, so mutating calls over one cache
// serialize by design. The corpus-search read path (MatchWarmed) takes the
// mutex SHARED and works through a const LsimCacheReadView: once an
// exclusive Match has registered a pair's names and filled every needed
// name-pair similarity, any number of candidate matches scatter from the
// table concurrently without touching the interner or memo (they fall back
// to the exclusive path on a miss). Cached values are pure functions of the
// raw names, so both paths are bit-identical to recomputation.

#ifndef CUPID_LINGUISTIC_LSIM_CACHE_H_
#define CUPID_LINGUISTIC_LSIM_CACHE_H_

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

class LsimCacheView;
class LsimCacheReadView;

/// \brief Persistent state of the cached linguistic pipeline.
class LsimCache {
 public:
  /// `thesaurus` must outlive the cache. `options` must equal the options of
  /// every LinguisticMatcher the cache is used with.
  LsimCache(const Thesaurus* thesaurus, const LinguisticOptions& options)
      : thesaurus_(thesaurus),
        options_(options),
        // Hash-mode memo: the dense table is sized to the interner at
        // construction time, which keeps growing here.
        memo_(&interner_, thesaurus, options.substring, /*use_dense=*/false) {}

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

  const Thesaurus* thesaurus_;   // immutable binding, checked by the matcher
  LinguisticOptions options_;    // immutable binding
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
  /// The name-pair similarity table (grown by EnsureCapacity; entries are
  /// meaningful where the known bit is set).
  const Matrix<double>& ns() const { return *ns_; }

  /// Grows the ns/known matrices to cover [rows x cols], preserving content.
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
        cached_pairs_(&cache->cached_pairs_) {}

  double ComputeNameSimilarity(int32_t i, int32_t j,
                               const TokenTypeWeights& weights);

  TokenInterner* interner_;
  TokenPairMemo* memo_;
  LsimCache::SideNames* side1_;
  LsimCache::SideNames* side2_;
  Matrix<double>* ns_;
  Matrix<uint8_t>* known_;
  int64_t* cached_pairs_;
};

inline LsimCacheView LsimCache::LockedView() { return LsimCacheView(this); }

/// \brief Const pointer view of one LsimCache's warmed state, handed out by
/// LockedReadView() under a SHARED hold of the cache mutex.
///
/// The read view can only look up names already registered and similarities
/// already computed by an exclusive Match — every method reports misses
/// instead of filling. Any number of readers scatter from the
/// table concurrently; callers fall back to the exclusive path on a miss.
class LsimCacheReadView {
 public:
  /// Index of `raw` in the side-1 / side-2 registry, or -1 if never seen.
  int32_t FindSide1(const std::string& raw) const {
    auto it = side1_->ids.find(raw);
    return it == side1_->ids.end() ? -1 : it->second;
  }
  int32_t FindSide2(const std::string& raw) const {
    auto it = side2_->ids.find(raw);
    return it == side2_->ids.end() ? -1 : it->second;
  }

  const std::vector<NormalizedName>& names1() const { return side1_->names; }
  const std::vector<NormalizedName>& names2() const { return side2_->names; }
  const std::vector<InternedName>& interned1() const {
    return side1_->interned;
  }
  const std::vector<InternedName>& interned2() const {
    return side2_->interned;
  }

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
