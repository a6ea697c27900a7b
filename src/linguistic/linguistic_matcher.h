// Phase 1 of Cupid: linguistic matching (Section 5).
//
// Produces the lsim table: for every pair of elements from compatible
// categories,
//
//     lsim(m1, m2) = ns(m1, m2) * max_{c1 in C1, c2 in C2} ns(c1, c2)
//
// and zero for pairs that share no compatible category pair.

#ifndef CUPID_LINGUISTIC_LINGUISTIC_MATCHER_H_
#define CUPID_LINGUISTIC_LINGUISTIC_MATCHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linguistic/annotations.h"
#include "linguistic/categorizer.h"
#include "linguistic/name_similarity.h"
#include "linguistic/normalizer.h"
#include "schema/schema.h"
#include "util/matrix.h"
#include "util/status.h"

namespace cupid {

class LsimCache;

/// Tunables of the linguistic phase.
struct LinguisticOptions {
  /// Category compatibility threshold thns (Table 1; typical 0.5).
  double thns = 0.5;
  TokenTypeWeights token_weights;
  SubstringSimilarityOptions substring;
  /// Ablation switch: bypass categorization and compare every element pair
  /// with category scale 1.0 (used by bench_ablations to measure what
  /// pruning buys).
  bool use_categories = true;
  /// Weight of annotation (documentation) similarity blended into lsim when
  /// BOTH elements carry documentation:
  ///   lsim' = (1-w)·lsim + w·cosine(doc1, doc2).
  /// The paper lists annotation use as immediate future work (Section 10);
  /// 0 disables it.
  double annotation_weight = 0.25;
};

/// \brief InvalidArgument when thns or annotation_weight lies outside
/// [0,1] — the one range check of the linguistic options, shared by
/// LinguisticMatcher and CupidConfig::Validate.
Status ValidateLinguisticOptions(const LinguisticOptions& options);

struct PreparedLsimSide;

/// Output of the linguistic phase.
struct LinguisticResult {
  /// The two prepared sides (source, then target) the lsim was computed
  /// from: registry indices, categories, annotation vectors and, unless
  /// their owner dropped them, normalized names and the full
  /// categorization. Shared: a warm match reuses an unchanged side of its
  /// past outright. Non-null after any LinguisticMatcher match; null from
  /// LinguisticMatchReference, which prepares nothing.
  std::shared_ptr<const PreparedLsimSide> side1;
  std::shared_ptr<const PreparedLsimSide> side2;
  /// lsim, indexed by (ElementId of schema1, ElementId of schema2).
  Matrix<float> lsim;
  /// Element-to-element comparisons actually performed (diagnostics: how
  /// much categorization pruned). A warm match counts only the cells it
  /// recomputed, not the ones it copied from its past.
  int64_t comparisons = 0;
  /// Warm matches only: lsim rows copied from the past (every row whose
  /// source element is unchanged).
  int64_t gathered_rows = 0;
  /// Cached runs: the run took the cache's exclusive lock to register names
  /// or category labels, or to compute name or label pairs (false = served
  /// entirely under the shared lock). The kernel reports its own work only;
  /// Match(s1, s2, cache) also counts the sides it prepared.
  bool cache_filled = false;
};

/// Which side of the cache's registries a prepared side indexes: the first
/// (source, lsim rows) or the second (target, lsim columns) schema.
enum class LsimSide { kSource, kTarget };

/// \brief The categories of one schema as the lsim kernel reads them: per
/// category, its members (category c holds members[begin[c]] up to
/// members[begin[c + 1]]).
struct CategoryMembers {
  std::vector<int32_t> begin;
  std::vector<ElementId> members;

  static CategoryMembers Of(const Categorization& categories);
  size_t num_categories() const {
    return begin.empty() ? 0 : begin.size() - 1;
  }
};

/// \brief The cache-independent part of preparing one schema
/// (LinguisticMatcher::Analyze), which one schema version's artifact
/// (core/match_pipeline.h) keeps for every LsimCache, side and pair.
struct SchemaLinguistics {
  /// Normalized names and the full categorization; an owner that keeps a
  /// prepared side only for the kernel may drop them (most of its size).
  std::shared_ptr<const std::vector<NormalizedName>> names;
  std::shared_ptr<const Categorization> categories;
  /// What the kernel reads: the categories' members, and per element
  /// annotation vector (empty when no element is documented).
  CategoryMembers category_members;
  std::vector<AnnotationVector> docs;
};

/// \brief One schema's side of cached matches, prepared once by
/// LinguisticMatcher::Prepare against one LsimCache and then shared,
/// read-only, by any number of kernel calls Match(side1, side2, cache) — a
/// corpus search prepares its probe once per search and each stored
/// candidate once per version, and a session's rematch takes over the
/// unedited side of its past. Everything here is a pure function of the
/// schema under the cache's binding: the schema's analysis plus its
/// registry indices.
struct PreparedLsimSide : SchemaLinguistics {
  /// Identity of the LsimCache the registry indices below belong to, and
  /// the side of its registries they index; the kernel rejects any other
  /// cache or a side passed in the wrong position.
  uint64_t cache_id = 0;
  LsimSide side = LsimSide::kSource;
  /// Per element: index in the cache's name registry of `side`.
  std::vector<int32_t> name_ids;
  /// Per category: index in the cache's label registry of `side`.
  std::vector<int32_t> label_ids;
  /// Preparing took the cache's exclusive lock.
  bool cache_filled = false;

  /// Estimated heap bytes of the kernel's part (all but names/categories).
  int64_t kernel_bytes() const;
};

/// \brief Element correspondence between the current schema pair and the
/// previous run's, with changed-feature flags — what a warm match gathers
/// by (LsimPast), and what the warm structural delta reads its node
/// correspondence and lsim flags off (core/match_pipeline.cc).
///
/// lsim(e1, e2) is a pure function of the two elements' LOCAL features —
/// raw name, data type, kind, not-instantiated flag, documentation, and the
/// containment parent's raw name/kind (the categorizer's locality contract,
/// linguistic/categorizer.h). An element whose features are unchanged since
/// the previous run therefore keeps its entire lsim row/column against any
/// other unchanged element, bit for bit.
struct LsimGatherPlan {
  /// Per CURRENT element, the corresponding previous element, or
  /// kNoElement: the edits' id map when the caller has one (an added
  /// element is kNoElement), else the same id for the ids both schemas
  /// have.
  std::vector<ElementId> source_map;
  std::vector<ElementId> target_map;
  /// Element is unmapped or its lsim-relevant features changed.
  std::vector<uint8_t> source_changed;
  std::vector<uint8_t> target_changed;
};

/// \brief Relates (s1, s2) to the previous run's schemas and flags the
/// elements whose lsim-relevant features changed. A non-null
/// `source_prior_ids` / `target_prior_ids` gives, per current element, its
/// id in the previous schema or kNoElement (ApplySchemaEdit's map,
/// composed over the edits since the previous run); null maps by identity
/// over the shared ids. Any map is sound; only an exact one reuses every
/// unchanged element after a removal compacted the ids.
LsimGatherPlan BuildLsimGatherPlan(
    const Schema& s1, const Schema& s2, const Schema& prev_s1,
    const Schema& prev_s2,
    const std::vector<ElementId>* source_prior_ids = nullptr,
    const std::vector<ElementId>* target_prior_ids = nullptr);

/// \brief The previous run a warm match gathers from. The empty past (null
/// `result`) is a cold match.
struct LsimPast {
  /// The previous run's result, over the schemas `plan` was built against.
  const LinguisticResult* result = nullptr;
  LsimGatherPlan plan;
};

/// \brief Runs normalization, categorization and comparison.
class LinguisticMatcher {
 public:
  /// `thesaurus` must outlive the matcher.
  LinguisticMatcher(const Thesaurus* thesaurus, LinguisticOptions options)
      : thesaurus_(thesaurus), options_(options), normalizer_(thesaurus) {}

  /// \brief Computes the full linguistic result for a schema pair:
  /// Match(s1, s2, cache) over a fresh LsimCache.
  Result<LinguisticResult> Match(const Schema& s1, const Schema& s2) const;

  /// \brief Match serving name- and label-level work from a cross-run cache
  /// (linguistic/lsim_cache.h), which many matches may share:
  /// Prepare(s1, kSource, cache), Prepare(s2, kTarget, cache), then the
  /// kernel. Bit-identical to LinguisticMatchReference: cached values were
  /// computed by the same pure functions. The cache must be bound to this
  /// matcher's thesaurus and options; a null cache means a fresh one.
  /// Non-null `analysis1`/`analysis2` are Analyze(s1)/Analyze(s2), which
  /// the sides are then prepared from.
  ///
  /// A warm match (non-empty `past`) takes a side over from the past result
  /// instead of preparing it when the plan maps that side by identity, no
  /// element of it changed, and it was prepared against `cache`; a side it
  /// analyzes reuses the past side's normalized names.
  Result<LinguisticResult> Match(
      const Schema& s1, const Schema& s2, LsimCache* cache,
      const LsimPast& past = {}, const SchemaLinguistics* analysis1 = nullptr,
      const SchemaLinguistics* analysis2 = nullptr) const;

  /// \brief Normalizes, categorizes and builds the annotation vectors of
  /// `schema`, under this thesaurus and no option. `prior`, an analysis of
  /// an earlier version under this thesaurus, lends the normalized names of
  /// the raw names it holds (a name normalizes the same in any schema).
  SchemaLinguistics Analyze(const Schema& schema,
                            const SchemaLinguistics* prior = nullptr) const;

  /// \brief Prepares one schema as `side` of later kernel calls: analyzes it
  /// (or takes `analysis`, which must be Analyze(schema)) and looks up its
  /// names and category labels in `cache`'s registries (read-first: the
  /// exclusive lock only to register ones never seen). Independent of
  /// thns, use_categories and annotation_weight, so a prepared side serves
  /// any matcher bound to the cache, concurrently.
  Result<std::shared_ptr<PreparedLsimSide>> Prepare(const Schema& schema,
                                                    LsimSide side,
                                                    LsimCache* cache) const;
  Result<std::shared_ptr<PreparedLsimSide>> Prepare(
      const Schema& schema, SchemaLinguistics analysis, LsimSide side,
      LsimCache* cache) const;

  /// \brief The pair work of a cached match, for a source-prepared `side1`
  /// and a target-prepared `side2`, both prepared against this `cache`
  /// (another cache, or swapped or null sides, is InvalidArgument):
  /// category similarities read from the cache's label-pair table, the
  /// best-scale pruning and the lsim scatter.
  ///
  /// A warm kernel (non-empty `past`) copies each unchanged source's row
  /// from the past lsim, except its cells in changed target columns, and
  /// scatters only changed rows and changed columns — through the same best
  /// scale and cell arithmetic, so the result is bit-identical to the cold
  /// kernel. A plan that does not cover the sides, leaves an unchanged
  /// element unmapped or maps outside the past lsim is InvalidArgument.
  ///
  /// Read-first: label pairs are read and name-pair similarities scattered
  /// under a SHARED hold of the cache mutex, so kernels over a warm cache
  /// run concurrently. Only a needed name or label pair the cache never
  /// computed takes the mutex exclusively, and then fills just this pair's
  /// missing entries.
  Result<LinguisticResult> Match(std::shared_ptr<const PreparedLsimSide> side1,
                                 std::shared_ptr<const PreparedLsimSide> side2,
                                 LsimCache* cache,
                                 const LsimPast& past = {}) const;

  /// \brief Name similarity of two single names under this matcher's
  /// thesaurus and weights (normalization applied). Exposed for tests and
  /// for the path-name matcher used in experiment E5.
  double NameSimilarity(std::string_view a, std::string_view b) const;

 private:
  /// ValidateLinguisticOptions, plus InvalidArgument when `cache` is bound
  /// to another thesaurus or to other name-similarity options.
  Status CheckCacheBinding(const LsimCache& cache) const;

  const Thesaurus* thesaurus_;
  LinguisticOptions options_;
  /// Stateless per-name pipeline, hoisted so NameSimilarity callers don't
  /// construct one per call.
  NameNormalizer normalizer_;
};

/// \brief The naive reference implementation of the linguistic phase: every
/// element pair is normalized, categorized and compared from scratch, with
/// no interning, memo or cache. The bit-identity oracle of every
/// LinguisticMatcher path; `thesaurus` must outlive the call.
Result<LinguisticResult> LinguisticMatchReference(
    const Thesaurus* thesaurus, const LinguisticOptions& options,
    const Schema& s1, const Schema& s2);

}  // namespace cupid

#endif  // CUPID_LINGUISTIC_LINGUISTIC_MATCHER_H_
