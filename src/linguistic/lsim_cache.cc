#include "linguistic/lsim_cache.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "obs/metrics.h"
#include "util/strings.h"

namespace cupid {

std::string LsimCacheBindingKey(const LinguisticOptions& options) {
  std::string key;
  auto add_double = [&key](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    key += StringFormat("%016llx.", static_cast<unsigned long long>(bits));
  };
  add_double(options.substring.scale);
  key += StringFormat(
      "%llu.", static_cast<unsigned long long>(options.substring.min_affix));
  for (double w : options.token_weights.w) add_double(w);
  return key;
}

namespace {

/// Heap bytes a registered label is charged in bytes(): its map node (key
/// string, index, bucket links) and its keyword vector.
int64_t LabelBytes(const std::string& label, size_t keywords) {
  return static_cast<int64_t>(sizeof(std::string) + label.size() +
                              sizeof(int32_t) + 2 * sizeof(void*) +
                              sizeof(std::vector<TokenId>) +
                              keywords * sizeof(TokenId));
}

/// Grows `values` and its same-shaped `known` bits to cover [rows x cols],
/// preserving content, and returns the number of cells added. Grows
/// geometrically so a stream introducing one name or label at a time does
/// not copy the matrices per match — but only the overflowing dimension: a
/// per-source cache sees a few hundred source names against thousands of
/// target names, and doubling both would balloon the rows with the columns.
template <typename T>
int64_t GrowTable(int64_t rows, int64_t cols, Matrix<T>* values,
                  Matrix<uint8_t>* known) {
  if (rows <= values->rows() && cols <= values->cols()) return 0;
  const int64_t new_rows = rows <= values->rows()
                               ? values->rows()
                               : std::max<int64_t>(rows, values->rows() * 2);
  const int64_t new_cols = cols <= values->cols()
                               ? values->cols()
                               : std::max<int64_t>(cols, values->cols() * 2);
  Matrix<T> grown_values(new_rows, new_cols);
  Matrix<uint8_t> grown_known(new_rows, new_cols);
  for (int64_t i = 0; values->cols() > 0 && i < values->rows(); ++i) {
    std::memcpy(grown_values.row(i), values->row(i),
                static_cast<size_t>(values->cols()) * sizeof(T));
    std::memcpy(grown_known.row(i), known->row(i),
                static_cast<size_t>(values->cols()) * sizeof(uint8_t));
  }
  const int64_t added = new_rows * new_cols - values->rows() * values->cols();
  *values = std::move(grown_values);
  *known = std::move(grown_known);
  return added;
}

}  // namespace

LsimCache::LsimCache(const Thesaurus* thesaurus,
                     const LinguisticOptions& options,
                     obs::Gauge* bytes_gauge)
    : id_([] {
        static std::atomic<uint64_t> next_id{1};
        return next_id.fetch_add(1, std::memory_order_relaxed);
      }()),
      thesaurus_(thesaurus),
      options_(options),
      bytes_gauge_(bytes_gauge),
      memo_(&interner_, thesaurus, options.substring) {}

LsimCache::~LsimCache() {
  // No reader can hold the mutex of a cache being destroyed; the lock only
  // satisfies the guarded-access analysis.
  SharedReaderLock lock(&mu_);
  if (bytes_gauge_ != nullptr) bytes_gauge_->Add(-bytes_);
}

bool LsimCache::LookupNames(LsimSide side, const Schema& schema,
                            const std::vector<NormalizedName>& names,
                            std::vector<int32_t>* ids) {
  const ElementId n = schema.num_elements();
  ids->clear();
  ids->reserve(static_cast<size_t>(n));
  {
    SharedReaderLock lock(&mu_);
    const SideNames& registry = side == LsimSide::kSource ? side1_ : side2_;
    for (ElementId e = 0; e < n; ++e) {
      auto it = registry.ids.find(schema.element(e).name);
      if (it == registry.ids.end()) break;
      ids->push_back(it->second);
    }
    if (ids->size() == static_cast<size_t>(n)) return false;
  }
  // Registries only grow, so the indices found so far stay valid.
  SharedMutexLock lock(&mu_);
  SideNames& registry = side == LsimSide::kSource ? side1_ : side2_;
  for (auto e = static_cast<ElementId>(ids->size()); e < n; ++e) {
    ids->push_back(registry.Register(schema.element(e).name,
                                     names[static_cast<size_t>(e)],
                                     &interner_));
  }
  return true;
}

bool LsimCache::LookupLabels(LsimSide side, const Categorization& categories,
                             std::vector<int32_t>* ids) {
  const std::vector<Category>& cats = categories.categories;
  ids->clear();
  ids->reserve(cats.size());
  {
    SharedReaderLock lock(&mu_);
    const SideLabels& registry =
        side == LsimSide::kSource ? labels1_ : labels2_;
    for (const Category& c : cats) {
      auto it = registry.ids.find(c.label);
      if (it == registry.ids.end()) break;
      ids->push_back(it->second);
    }
    if (ids->size() == cats.size()) return false;
  }
  SharedMutexLock lock(&mu_);
  LsimCacheView view = LockedView();
  SideLabels* registry = side == LsimSide::kSource ? &labels1_ : &labels2_;
  for (size_t c = ids->size(); c < cats.size(); ++c) {
    ids->push_back(view.RegisterLabel(registry, cats[c]));
  }
  return true;
}

bool LsimCache::CategorySimilarities(const std::vector<int32_t>& labels1,
                                     const std::vector<int32_t>& labels2,
                                     Matrix<float>* cat_sim) {
  const int64_t rows = static_cast<int64_t>(labels1.size());
  const int64_t cols = static_cast<int64_t>(labels2.size());
  *cat_sim = Matrix<float>(rows, cols);
  {
    SharedReaderLock lock(&mu_);
    bool complete = true;
    for (int64_t i = 0; complete && i < rows; ++i) {
      const int32_t l1 = labels1[static_cast<size_t>(i)];
      float* out = cat_sim->row(i);
      for (int64_t j = 0; j < cols; ++j) {
        const int32_t l2 = labels2[static_cast<size_t>(j)];
        if (l1 >= cat_known_.rows() || l2 >= cat_known_.cols() ||
            !cat_known_(l1, l2)) {
          complete = false;
          break;
        }
        out[j] = cat_sim_(l1, l2);
      }
    }
    if (complete) return false;
  }
  SharedMutexLock lock(&mu_);
  LsimCacheView view = LockedView();
  view.EnsureCategoryCapacity();
  for (int64_t i = 0; i < rows; ++i) {
    float* out = cat_sim->row(i);
    for (int64_t j = 0; j < cols; ++j) {
      out[j] = view.CategorySimilarity(labels1[static_cast<size_t>(i)],
                                       labels2[static_cast<size_t>(j)]);
    }
  }
  return true;
}

void LsimCacheView::AddBytes(int64_t delta) {
  *bytes_ += delta;
  if (bytes_gauge_ != nullptr) bytes_gauge_->Add(delta);
}

void LsimCacheView::ChargeMemo(int64_t memo_bytes_before) {
  const int64_t grown = memo_->dense_bytes() - memo_bytes_before;
  if (grown != 0) AddBytes(grown);
}

void LsimCacheView::EnsureCapacity() {
  AddBytes(GrowTable(static_cast<int64_t>(side1_->interned.size()),
                     static_cast<int64_t>(side2_->interned.size()), ns_,
                     known_) *
           static_cast<int64_t>(sizeof(double) + sizeof(uint8_t)));
}

void LsimCacheView::EnsureCategoryCapacity() {
  AddBytes(GrowTable(static_cast<int64_t>(labels1_->keywords.size()),
                     static_cast<int64_t>(labels2_->keywords.size()),
                     cat_sim_, cat_known_) *
           static_cast<int64_t>(sizeof(float) + sizeof(uint8_t)));
}

int32_t LsimCacheView::RegisterLabel(LsimCache::SideLabels* labels,
                                     const Category& category) {
  // Find first: an exclusive LookupLabels registers every category from its
  // first unknown one on, and usually only a few of them are new.
  auto it = labels->ids.find(category.label);
  if (it != labels->ids.end()) return it->second;
  const auto id = static_cast<int32_t>(labels->keywords.size());
  labels->ids.emplace(category.label, id);
  std::vector<TokenId> ids;
  ids.reserve(category.keywords.size());
  for (const Token& t : category.keywords) ids.push_back(interner_->Intern(t));
  labels->keywords.push_back(std::move(ids));
  AddBytes(LabelBytes(category.label, category.keywords.size()));
  return id;
}

float LsimCacheView::ComputeCategorySimilarity(int32_t l1, int32_t l2) {
  // The same float cast of the same token-set formula as the batch
  // pipeline's cat_sim cell; the persistent memo serves token pairs that
  // name similarities or other labels already resolved.
  const int64_t memo_bytes = memo_->dense_bytes();
  const float sim = static_cast<float>(InternedTokenSetSimilarity(
      labels1_->keywords[static_cast<size_t>(l1)],
      labels2_->keywords[static_cast<size_t>(l2)], memo_));
  ChargeMemo(memo_bytes);
  (*cat_sim_)(l1, l2) = sim;
  (*cat_known_)(l1, l2) = 1;
  return sim;
}

double LsimCacheView::ComputeNameSimilarity(int32_t i, int32_t j,
                                            const TokenTypeWeights& weights) {
  // The inline hit path (NameSimilarity in the header) is deliberately NOT
  // instrumented — a counter per cached read would tax the hottest loop in
  // the system. This miss path already pays a full similarity computation,
  // so one relaxed increment is noise; hit counts are derivable as
  // (comparisons - pairs_computed) at phase level.
  static obs::Counter* pairs_computed =
      obs::MetricsRegistry::Default()->GetCounter(
          "cupid.lsim_cache.pairs_computed",
          "Name-pair similarities computed (cache misses) across caches");
  const int64_t memo_bytes = memo_->dense_bytes();
  (*ns_)(i, j) = InternedNameSimilarity(
      side1_->interned[static_cast<size_t>(i)],
      side2_->interned[static_cast<size_t>(j)], weights, memo_);
  ChargeMemo(memo_bytes);
  (*known_)(i, j) = 1;
  ++*cached_pairs_;
  pairs_computed->Increment();
  return (*ns_)(i, j);
}

}  // namespace cupid
