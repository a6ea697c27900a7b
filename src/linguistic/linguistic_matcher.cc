#include "linguistic/linguistic_matcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "linguistic/annotations.h"
#include "linguistic/lsim_cache.h"
#include "obs/trace.h"
#include "util/id_runs.h"
#include "util/mutex.h"

namespace cupid {

namespace {

std::vector<NormalizedName> NormalizeAll(const Schema& schema,
                                         const NameNormalizer& normalizer) {
  std::vector<NormalizedName> names;
  names.reserve(static_cast<size_t>(schema.num_elements()));
  for (ElementId id : schema.AllElements()) {
    names.push_back(normalizer.Normalize(schema.element(id).name));
  }
  return names;
}

/// The members of `cats` flagged in `changed`, category by category.
CategoryMembers ChangedMembers(const CategoryMembers& cats,
                               const std::vector<uint8_t>& changed) {
  CategoryMembers out;
  out.begin.reserve(cats.begin.size());
  out.begin.push_back(0);
  for (size_t c = 0; c < cats.num_categories(); ++c) {
    for (int32_t a = cats.begin[c]; a < cats.begin[c + 1]; ++a) {
      const ElementId e = cats.members[static_cast<size_t>(a)];
      if (changed[static_cast<size_t>(e)]) out.members.push_back(e);
    }
    out.begin.push_back(static_cast<int32_t>(out.members.size()));
  }
  return out;
}

/// best_scale(e1,e2) = max cat_sim(c1,c2) over compatible category pairs
/// (c1,c2) containing them; 0 when none. With categories disabled every
/// pair gets scale 1. Shared by the reference and cached paths, so a
/// pruning change cannot diverge them. A warm run (non-null `plan`) fills
/// only the cells of changed rows and changed columns, the only ones its
/// scatter reads; the others stay 0.
Matrix<float> ScatterBestScale(const LinguisticOptions& options,
                               const Matrix<float>& cat_sim,
                               const CategoryMembers& cats1,
                               const CategoryMembers& cats2, int64_t rows,
                               int64_t cols, const LsimGatherPlan* plan) {
  Matrix<float> best_scale(rows, cols);
  if (!options.use_categories) {
    best_scale.Fill(1.0f);
    return best_scale;
  }
  auto raise = [&](const CategoryMembers& members1,
                   const CategoryMembers& members2) {
    const size_t n1 = members1.num_categories();
    const size_t n2 = members2.num_categories();
    for (size_t i = 0; i < n1; ++i) {
      if (members1.begin[i] == members1.begin[i + 1]) continue;
      const float* sim_row = cat_sim.row(static_cast<int64_t>(i));
      for (size_t j = 0; j < n2; ++j) {
        float scale = sim_row[j];
        if (scale <= options.thns) continue;  // incompatible categories
        for (int32_t a = members1.begin[i]; a < members1.begin[i + 1]; ++a) {
          float* out =
              best_scale.row(members1.members[static_cast<size_t>(a)]);
          for (int32_t b = members2.begin[j]; b < members2.begin[j + 1];
               ++b) {
            float& cell = out[members2.members[static_cast<size_t>(b)]];
            cell = std::max(cell, scale);
          }
        }
      }
    }
  };
  if (plan == nullptr) {
    raise(cats1, cats2);
  } else {
    // Changed rows against every column, every row against changed columns.
    raise(ChangedMembers(cats1, plan->source_changed), cats2);
    raise(cats1, ChangedMembers(cats2, plan->target_changed));
  }
  return best_scale;
}

Matrix<float> ComputeBestScale(const LinguisticOptions& options,
                               const Thesaurus& thesaurus,
                               const Categorization& categories1,
                               const Categorization& categories2,
                               int64_t rows, int64_t cols) {
  const auto& cats1 = categories1.categories;
  const auto& cats2 = categories2.categories;

  // Pairwise category compatibility; scale = ns of the category keywords.
  Matrix<float> cat_sim(static_cast<int64_t>(cats1.size()),
                        static_cast<int64_t>(cats2.size()));
  for (size_t i = 0; i < cats1.size(); ++i) {
    for (size_t j = 0; j < cats2.size(); ++j) {
      cat_sim(static_cast<int64_t>(i), static_cast<int64_t>(j)) =
          static_cast<float>(CategorySimilarity(cats1[i], cats2[j], thesaurus,
                                                options.substring));
    }
  }
  return ScatterBestScale(options, cat_sim, CategoryMembers::Of(categories1),
                          CategoryMembers::Of(categories2), rows, cols,
                          /*plan=*/nullptr);
}

/// Annotation vectors, built once per documented element (Section 10's
/// future-work item; see linguistic/annotations.h).
std::vector<AnnotationVector> BuildDocs(const Schema& schema,
                                        const Thesaurus& thesaurus) {
  std::vector<AnnotationVector> docs(
      static_cast<size_t>(schema.num_elements()));
  for (ElementId e = 0; e < schema.num_elements(); ++e) {
    if (!schema.element(e).documentation.empty()) {
      docs[static_cast<size_t>(e)] =
          BuildAnnotationVector(schema.element(e).documentation, thesaurus);
    }
  }
  return docs;
}

/// True iff element `e` of `s` and element `pe` of `ps` agree on every
/// lsim-relevant local feature (raw name, kind, data type, not-instantiated
/// flag, documentation, containment parent's root-ness/raw name/kind).
/// Equal features imply bit-equal lsim against any other feature-equal
/// element — regardless of whether the correspondence paired "the same"
/// element (the categorizer's locality contract, linguistic/categorizer.h).
bool SameLsimElementFeatures(const Schema& s, ElementId e, const Schema& ps,
                             ElementId pe) {
  const Element& a = s.element(e);
  const Element& b = ps.element(pe);
  if (a.kind != b.kind || a.data_type != b.data_type ||
      a.not_instantiated != b.not_instantiated || a.name != b.name ||
      a.documentation != b.documentation) {
    return false;
  }
  ElementId pa = s.parent(e);
  ElementId pb = ps.parent(pe);
  const bool none_a = pa == kNoElement, none_b = pb == kNoElement;
  if (none_a != none_b) return false;
  if (none_a) return true;
  const bool root_a = pa == s.root(), root_b = pb == ps.root();
  if (root_a != root_b) return false;
  if (root_a) return true;
  return s.element(pa).name == ps.element(pb).name &&
         s.element(pa).kind == ps.element(pb).kind;
}

/// Flags every element of `s` that `map` leaves unmapped (or maps outside
/// `prev`) or whose lsim-relevant features differ from its counterpart's.
void FlagChanged(const Schema& s, const Schema& prev,
                 const std::vector<ElementId>& map,
                 std::vector<uint8_t>* changed) {
  changed->assign(map.size(), 1);
  const auto n = static_cast<size_t>(s.num_elements());
  for (size_t e = 0; e < std::min(map.size(), n); ++e) {
    const ElementId o = map[e];
    if (prev.Contains(o) &&
        SameLsimElementFeatures(s, static_cast<ElementId>(e), prev, o)) {
      (*changed)[e] = 0;
    }
  }
}

/// One side of the plan: map current -> previous elements by `prior_ids`
/// (the edits' own id map), or without one by identity over the ids both
/// schemas have, then flag every element that is unmapped or whose
/// lsim-relevant features changed. Any pairing is sound — the flags are
/// what license reuse — so the map only decides how much is reused. The
/// warm structural delta derives its node correspondence from this map.
void PlanSide(const Schema& s, const Schema& prev,
              const std::vector<ElementId>* prior_ids,
              std::vector<ElementId>* map, std::vector<uint8_t>* changed) {
  const int64_t n = s.num_elements();
  // The session passes the identical Schema object for an unedited side;
  // every element then trivially maps to itself with equal features.
  if (&s == &prev) {
    map->resize(static_cast<size_t>(n));
    for (ElementId e = 0; e < n; ++e) (*map)[static_cast<size_t>(e)] = e;
    changed->assign(static_cast<size_t>(n), 0);
    return;
  }
  if (prior_ids != nullptr) {
    *map = *prior_ids;
  } else {
    map->assign(static_cast<size_t>(n), kNoElement);
    for (ElementId e = 0; e < std::min(n, prev.num_elements()); ++e) {
      (*map)[static_cast<size_t>(e)] = e;
    }
  }
  FlagChanged(s, prev, *map, changed);
}

}  // namespace

LsimGatherPlan BuildLsimGatherPlan(
    const Schema& s1, const Schema& s2, const Schema& prev_s1,
    const Schema& prev_s2, const std::vector<ElementId>* source_prior_ids,
    const std::vector<ElementId>* target_prior_ids) {
  LsimGatherPlan plan;
  PlanSide(s1, prev_s1, source_prior_ids, &plan.source_map,
           &plan.source_changed);
  PlanSide(s2, prev_s2, target_prior_ids, &plan.target_map,
           &plan.target_changed);
  return plan;
}

Status ValidateLinguisticOptions(const LinguisticOptions& options) {
  if (options.thns < 0.0 || options.thns > 1.0) {
    return Status::InvalidArgument("thns must be within [0,1]");
  }
  if (options.annotation_weight < 0.0 || options.annotation_weight > 1.0) {
    return Status::InvalidArgument("annotation_weight must be within [0,1]");
  }
  return Status::OK();
}

CategoryMembers CategoryMembers::Of(const Categorization& categories) {
  CategoryMembers out;
  out.begin.reserve(categories.categories.size() + 1);
  out.begin.push_back(0);
  for (const Category& c : categories.categories) {
    out.members.insert(out.members.end(), c.members.begin(), c.members.end());
    out.begin.push_back(static_cast<int32_t>(out.members.size()));
  }
  return out;
}

int64_t PreparedLsimSide::kernel_bytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(PreparedLsimSide));
  bytes += static_cast<int64_t>(
      (name_ids.capacity() + label_ids.capacity() +
       category_members.begin.capacity()) *
          sizeof(int32_t) +
      category_members.members.capacity() * sizeof(ElementId) +
      docs.capacity() * sizeof(AnnotationVector));
  for (const AnnotationVector& doc : docs) {
    bytes += static_cast<int64_t>(doc.terms.capacity() *
                                  sizeof(doc.terms[0]));
    for (const auto& term : doc.terms) {
      bytes += static_cast<int64_t>(term.first.size());
    }
  }
  return bytes;
}

Status LinguisticMatcher::CheckCacheBinding(const LsimCache& cache) const {
  if (cache.thesaurus_ != thesaurus_) {
    return Status::InvalidArgument(
        "LsimCache is bound to a different thesaurus");
  }
  // Cached name similarities depend on the substring options and token
  // weights they were computed under; reject a cache bound differently.
  const LinguisticOptions& co = cache.options_;
  if (co.substring.scale != options_.substring.scale ||
      co.substring.min_affix != options_.substring.min_affix ||
      co.token_weights.w != options_.token_weights.w) {
    return Status::InvalidArgument(
        "LsimCache is bound to different linguistic options");
  }
  return ValidateLinguisticOptions(options_);
}

Result<LinguisticResult> LinguisticMatcher::Match(const Schema& s1,
                                                  const Schema& s2) const {
  return Match(s1, s2, nullptr);
}

namespace {

/// Run-local inputs of the lsim scatter: per-element distinct-name indices,
/// the best category scale per element pair, annotation vectors (either
/// vector may be empty: no element of that side is documented) and, on a
/// warm run, which cells need scattering.
struct ScatterInputs {
  const LinguisticOptions* options;
  const std::vector<int32_t>* of_element1;
  const std::vector<int32_t>* of_element2;
  const Matrix<float>* best_scale;
  const std::vector<AnnotationVector>* docs1;
  const std::vector<AnnotationVector>* docs2;
  /// Warm runs: per row, 1 = scatter the whole row, 0 = only the cells in
  /// `changed_cols` (the rest was copied from the past). Null = every row
  /// whole (a cold run).
  const std::vector<uint8_t>* whole_rows;
  const std::vector<ElementId>* changed_cols;
};

/// Scatters distinct name-pair similarities into lsim rows [begin, end),
/// applying the per-pair category scale and annotation blend — the one
/// scatter every cached path shares. `ns_of(d1, d2, &ns)` serves the
/// similarity of distinct pair (d1, d2) or returns false; the scatter then
/// stops and returns the row it stopped in (`end` when every row completed).
/// Comparisons of completed rows only are added to `*comparisons`, so a
/// caller resuming from the returned row counts each cell once.
template <typename NsOf>
int64_t ScatterRows(const ScatterInputs& in, int64_t begin, int64_t end,
                    NsOf&& ns_of, Matrix<float>* lsim, int64_t* comparisons) {
  const double w = in.options->annotation_weight;
  const int64_t cols = lsim->cols();
  const int32_t* idx2 = in.of_element2->data();
  const bool any_docs = w > 0.0 && !in.docs1->empty() && !in.docs2->empty();
  for (int64_t e1 = begin; e1 < end; ++e1) {
    const int32_t d1 = (*in.of_element1)[static_cast<size_t>(e1)];
    const float* scale_row = in.best_scale->row(e1);
    float* lsim_row = lsim->row(e1);
    const bool blend =
        any_docs && !(*in.docs1)[static_cast<size_t>(e1)].empty();
    int64_t local = 0;
    auto cell = [&](int64_t e2) {
      float scale = scale_row[e2];
      if (scale <= 0.0f) return true;
      ++local;
      double ns;
      if (!ns_of(d1, idx2[e2], &ns)) return false;
      double lsim_value =
          std::clamp(ns * static_cast<double>(scale), 0.0, 1.0);
      if (blend && !(*in.docs2)[static_cast<size_t>(e2)].empty()) {
        lsim_value = (1.0 - w) * lsim_value +
                     w * AnnotationCosine((*in.docs1)[static_cast<size_t>(e1)],
                                          (*in.docs2)[static_cast<size_t>(e2)]);
      }
      lsim_row[e2] = static_cast<float>(lsim_value);
      return true;
    };
    if (in.whole_rows == nullptr || (*in.whole_rows)[static_cast<size_t>(e1)]) {
      for (int64_t e2 = 0; e2 < cols; ++e2) {
        if (!cell(e2)) return e1;
      }
    } else {
      for (ElementId e2 : *in.changed_cols) {
        if (!cell(e2)) return e1;
      }
    }
    *comparisons += local;
  }
  return end;
}

/// InvalidArgument unless `past` can be gathered into a rows x cols lsim:
/// its plan covers both sides, leaves no unchanged element unmapped, and
/// maps only to elements inside the past lsim.
Status ValidatePast(const LsimPast& past, int64_t rows, int64_t cols) {
  const LsimGatherPlan& plan = past.plan;
  if (plan.source_map.size() != static_cast<size_t>(rows) ||
      plan.target_map.size() != static_cast<size_t>(cols) ||
      plan.source_changed.size() != plan.source_map.size() ||
      plan.target_changed.size() != plan.target_map.size()) {
    return Status::InvalidArgument(
        "LsimGatherPlan does not match the schemas");
  }
  auto maps_inside = [](const std::vector<ElementId>& map,
                        const std::vector<uint8_t>& changed,
                        int64_t prev_elements) {
    for (size_t e = 0; e < map.size(); ++e) {
      const ElementId o = map[e];
      if (o == kNoElement ? !changed[e] : o < 0 || o >= prev_elements) {
        return false;
      }
    }
    return true;
  };
  if (!maps_inside(plan.source_map, plan.source_changed,
                   past.result->lsim.rows()) ||
      !maps_inside(plan.target_map, plan.target_changed,
                   past.result->lsim.cols())) {
    return Status::InvalidArgument(
        "LsimGatherPlan does not match the past lsim");
  }
  return Status::OK();
}

/// The past's prepared side, when a warm match may take it over for
/// `schema`: the plan maps the side by identity, none of its elements
/// changed, and it was prepared against `cache_id`. Null otherwise.
std::shared_ptr<const PreparedLsimSide> ReusableSide(
    const std::shared_ptr<const PreparedLsimSide>& side, const Schema& schema,
    const std::vector<ElementId>& map, const std::vector<uint8_t>& changed,
    uint64_t cache_id) {
  const auto n = static_cast<size_t>(schema.num_elements());
  if (side == nullptr || side->cache_id != cache_id ||
      side->name_ids.size() != n || map.size() != n || changed.size() != n) {
    return nullptr;
  }
  for (size_t e = 0; e < map.size(); ++e) {
    if (map[e] != static_cast<ElementId>(e) || changed[e]) return nullptr;
  }
  return side;
}

}  // namespace

Result<LinguisticResult> LinguisticMatcher::Match(
    const Schema& s1, const Schema& s2, LsimCache* cache, const LsimPast& past,
    const SchemaLinguistics* analysis1,
    const SchemaLinguistics* analysis2) const {
  if (cache == nullptr) {
    LsimCache fresh(thesaurus_, options_);
    return Match(s1, s2, &fresh, past, analysis1, analysis2);
  }
  obs::ScopedSpan span("lsim.match");
  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const PreparedLsimSide> side1, side2;
  bool prepared_filled = false;
  int prepared_sides = 0;
  // Prepares a side the past cannot lend: from its given analysis, else
  // analyzing it with the past side's names lent (same cache, so same
  // thesaurus).
  auto prepare = [&](const Schema& s, const SchemaLinguistics* analysis,
                     LsimSide side) {
    ++prepared_sides;
    if (analysis != nullptr) return Prepare(s, *analysis, side, cache);
    const PreparedLsimSide* lent =
        past.result == nullptr ? nullptr
        : side == LsimSide::kSource ? past.result->side1.get()
                                    : past.result->side2.get();
    if (lent != nullptr && lent->cache_id != cache->id_) lent = nullptr;
    return Prepare(s, Analyze(s, lent), side, cache);
  };
  if (past.result != nullptr) {
    side1 = ReusableSide(past.result->side1, s1, past.plan.source_map,
                         past.plan.source_changed, cache->id_);
    side2 = ReusableSide(past.result->side2, s2, past.plan.target_map,
                         past.plan.target_changed, cache->id_);
  }
  if (side1 == nullptr) {
    CUPID_ASSIGN_OR_RETURN(side1, prepare(s1, analysis1, LsimSide::kSource));
    prepared_filled = side1->cache_filled;
  }
  if (side2 == nullptr) {
    CUPID_ASSIGN_OR_RETURN(side2, prepare(s2, analysis2, LsimSide::kTarget));
    prepared_filled = prepared_filled || side2->cache_filled;
  }
  auto t1 = std::chrono::steady_clock::now();
  CUPID_ASSIGN_OR_RETURN(LinguisticResult out,
                         Match(std::move(side1), std::move(side2), cache,
                               past));
  out.cache_filled = out.cache_filled || prepared_filled;
  if (span.enabled()) {
    auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    span.Attr("prepare_ms", ms(t0, t1));
    span.Attr("kernel_ms", ms(t1, std::chrono::steady_clock::now()));
    span.Attr("warm", past.result != nullptr ? 1 : 0);
    span.Attr("prepared_sides", prepared_sides);
    span.Attr("gathered_rows", out.gathered_rows);
  }
  return out;
}

SchemaLinguistics LinguisticMatcher::Analyze(
    const Schema& schema, const SchemaLinguistics* prior) const {
  // Each distinct raw name is normalized once, or taken from `prior`: at
  // the same id, else (a removal moved ids) by raw name.
  const std::vector<NormalizedName>* lent =
      prior != nullptr ? prior->names.get() : nullptr;
  std::unordered_map<std::string_view, const NormalizedName*> by_raw;
  auto names = std::make_shared<std::vector<NormalizedName>>();
  // Reserved: the map points into `names` as it grows.
  names->reserve(static_cast<size_t>(schema.num_elements()));
  for (ElementId id : schema.AllElements()) {
    const std::string& raw = schema.element(id).name;
    const auto i = static_cast<size_t>(id);
    if (lent != nullptr && i < lent->size() && (*lent)[i].original == raw) {
      names->push_back((*lent)[i]);
      continue;
    }
    if (lent != nullptr && by_raw.empty()) {  // first miss: index `prior`
      for (const NormalizedName& n : *lent) by_raw.emplace(n.original, &n);
    }
    auto [it, fresh] = by_raw.try_emplace(raw, nullptr);
    names->push_back(fresh ? normalizer_.Normalize(raw) : *it->second);
    if (fresh) it->second = &names->back();
  }
  SchemaLinguistics out;
  out.categories = std::make_shared<const Categorization>(
      CategorizeSchema(schema, *names, normalizer_));
  out.category_members = CategoryMembers::Of(*out.categories);
  out.names = std::move(names);
  for (ElementId e = 0; e < schema.num_elements(); ++e) {
    if (!schema.element(e).documentation.empty()) {
      out.docs = BuildDocs(schema, *thesaurus_);
      break;
    }
  }
  return out;
}

Result<std::shared_ptr<PreparedLsimSide>> LinguisticMatcher::Prepare(
    const Schema& schema, LsimSide side, LsimCache* cache) const {
  return Prepare(schema, Analyze(schema), side, cache);
}

Result<std::shared_ptr<PreparedLsimSide>> LinguisticMatcher::Prepare(
    const Schema& schema, SchemaLinguistics analysis, LsimSide side,
    LsimCache* cache) const {
  if (cache == nullptr) {
    return Status::InvalidArgument("Prepare requires an LsimCache");
  }
  CUPID_RETURN_NOT_OK(CheckCacheBinding(*cache));
  auto prepared = std::make_shared<PreparedLsimSide>();
  static_cast<SchemaLinguistics&>(*prepared) = std::move(analysis);
  prepared->cache_id = cache->id_;
  prepared->side = side;
  prepared->cache_filled = cache->LookupNames(side, schema, *prepared->names,
                                              &prepared->name_ids);
  // Labels are registered even when categories are off: a prepared side
  // serves any matcher bound to the cache, whatever its use_categories.
  if (cache->LookupLabels(side, *prepared->categories,
                          &prepared->label_ids)) {
    prepared->cache_filled = true;
  }
  return prepared;
}

Result<LinguisticResult> LinguisticMatcher::Match(
    std::shared_ptr<const PreparedLsimSide> side1,
    std::shared_ptr<const PreparedLsimSide> side2, LsimCache* cache,
    const LsimPast& past) const {
  if (cache == nullptr) {
    return Status::InvalidArgument("prepared sides require their LsimCache");
  }
  if (side1 == nullptr || side2 == nullptr) {
    return Status::InvalidArgument("Match takes two prepared sides");
  }
  CUPID_RETURN_NOT_OK(CheckCacheBinding(*cache));
  if (side1->cache_id != cache->id_ || side2->cache_id != cache->id_) {
    return Status::InvalidArgument(
        "prepared side belongs to another LsimCache");
  }
  if (side1->side != LsimSide::kSource || side2->side != LsimSide::kTarget) {
    return Status::InvalidArgument(
        "Match takes a source-prepared side, then a target-prepared side");
  }
  const int64_t rows = static_cast<int64_t>(side1->name_ids.size());
  const int64_t cols = static_cast<int64_t>(side2->name_ids.size());
  if (past.result != nullptr) {
    CUPID_RETURN_NOT_OK(ValidatePast(past, rows, cols));
  }

  LinguisticResult out;
  out.lsim = Matrix<float>(rows, cols);

  // Category scaling reads the cache's label-pair table: a category's
  // keywords are a pure function of its label, so each label pair's
  // similarity is computed once per cache, bit-identical to recomputing it.
  Matrix<float> cat_sim;
  if (options_.use_categories &&
      cache->CategorySimilarities(side1->label_ids, side2->label_ids,
                                  &cat_sim)) {
    out.cache_filled = true;
  }
  const LsimGatherPlan* plan =
      past.result != nullptr ? &past.plan : nullptr;
  Matrix<float> best_scale =
      ScatterBestScale(options_, cat_sim, side1->category_members,
                       side2->category_members, rows, cols, plan);

  // A warm run copies each unchanged source's row from the past — one
  // memcpy per run of consecutively mapped, unchanged targets — and leaves
  // the changed rows and the changed-target cells of copied rows (still
  // zero) to the scatter.
  std::vector<ElementId> changed_cols;
  if (plan != nullptr) {
    std::vector<ElementId> copied_cols = plan->target_map;
    for (ElementId e2 = 0; e2 < cols; ++e2) {
      if (plan->target_changed[static_cast<size_t>(e2)]) {
        copied_cols[static_cast<size_t>(e2)] = kNoElement;
        changed_cols.push_back(e2);
      }
    }
    const std::vector<IdRun> runs = BuildMappedIdRuns(copied_cols);
    for (ElementId e1 = 0; e1 < rows; ++e1) {
      if (plan->source_changed[static_cast<size_t>(e1)]) continue;
      float* dst = out.lsim.row(e1);
      const float* src =
          past.result->lsim.row(plan->source_map[static_cast<size_t>(e1)]);
      for (const IdRun& run : runs) {
        std::memcpy(dst + run.dst, src + run.src,
                    static_cast<size_t>(run.len) * sizeof(float));
      }
      ++out.gathered_rows;
    }
  }

  // Serial scatter (the server runs one match per worker; parallelism
  // comes from concurrent matches over the shared cache). Read-first: rows
  // are served under the shared lock until the first name pair never
  // computed; the exclusive pass resumes from that row and fills only the
  // pairs this schema pair needs.
  const ScatterInputs in{&options_,
                         &side1->name_ids,
                         &side2->name_ids,
                         &best_scale,
                         &side1->docs,
                         &side2->docs,
                         plan != nullptr ? &plan->source_changed : nullptr,
                         &changed_cols};
  int64_t resume;
  {
    SharedReaderLock lock(&cache->mu_);
    LsimCacheReadView view = cache->LockedReadView();
    resume = ScatterRows(
        in, 0, rows,
        [&view](int32_t i, int32_t j, double* ns) {
          return view.NameSimilarityIfKnown(i, j, ns);
        },
        &out.lsim, &out.comparisons);
  }
  if (resume < rows) {
    out.cache_filled = true;
    SharedMutexLock lock(&cache->mu_);
    LsimCacheView view = cache->LockedView();
    view.EnsureCapacity();
    const TokenTypeWeights& tw = options_.token_weights;
    ScatterRows(
        in, resume, rows,
        [&view, &tw](int32_t i, int32_t j, double* ns) {
          *ns = view.NameSimilarity(i, j, tw);
          return true;
        },
        &out.lsim, &out.comparisons);
  }
  out.side1 = std::move(side1);
  out.side2 = std::move(side2);
  return out;
}

double LinguisticMatcher::NameSimilarity(std::string_view a,
                                         std::string_view b) const {
  return ElementNameSimilarity(normalizer_.Normalize(a),
                               normalizer_.Normalize(b), *thesaurus_,
                               options_.token_weights, options_.substring);
}

Result<LinguisticResult> LinguisticMatchReference(
    const Thesaurus* thesaurus, const LinguisticOptions& options,
    const Schema& s1, const Schema& s2) {
  CUPID_RETURN_NOT_OK(ValidateLinguisticOptions(options));
  const NameNormalizer normalizer(thesaurus);
  const std::vector<NormalizedName> names1 = NormalizeAll(s1, normalizer);
  const std::vector<NormalizedName> names2 = NormalizeAll(s2, normalizer);
  const Categorization categories1 = CategorizeSchema(s1, names1, normalizer);
  const Categorization categories2 = CategorizeSchema(s2, names2, normalizer);
  LinguisticResult out;
  out.lsim = Matrix<float>(s1.num_elements(), s2.num_elements());

  Matrix<float> best_scale =
      ComputeBestScale(options, *thesaurus, categories1, categories2,
                       s1.num_elements(), s2.num_elements());

  std::vector<AnnotationVector> docs1(static_cast<size_t>(s1.num_elements()));
  std::vector<AnnotationVector> docs2(static_cast<size_t>(s2.num_elements()));
  if (options.annotation_weight > 0.0) {
    docs1 = BuildDocs(s1, *thesaurus);
    docs2 = BuildDocs(s2, *thesaurus);
  }

  for (ElementId e1 = 0; e1 < s1.num_elements(); ++e1) {
    for (ElementId e2 = 0; e2 < s2.num_elements(); ++e2) {
      float scale = best_scale(e1, e2);
      if (scale <= 0.0f) continue;
      ++out.comparisons;
      double ns = ElementNameSimilarity(
          names1[static_cast<size_t>(e1)], names2[static_cast<size_t>(e2)],
          *thesaurus, options.token_weights, options.substring);
      double lsim = std::clamp(ns * static_cast<double>(scale), 0.0, 1.0);
      const AnnotationVector& d1 = docs1[static_cast<size_t>(e1)];
      const AnnotationVector& d2 = docs2[static_cast<size_t>(e2)];
      if (options.annotation_weight > 0.0 && !d1.empty() && !d2.empty()) {
        double w = options.annotation_weight;
        lsim = (1.0 - w) * lsim + w * AnnotationCosine(d1, d2);
      }
      out.lsim(e1, e2) = static_cast<float>(lsim);
    }
  }
  return out;
}

}  // namespace cupid
