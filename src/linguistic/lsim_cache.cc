#include "linguistic/lsim_cache.h"

#include <algorithm>
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

LsimCache::~LsimCache() {
  // No reader can hold the mutex of a cache being destroyed; the lock only
  // satisfies the guarded-access analysis.
  SharedReaderLock lock(&mu_);
  if (bytes_gauge_ != nullptr) bytes_gauge_->Add(-TableBytes());
}

void LsimCacheView::EnsureCapacity(int64_t rows, int64_t cols) {
  Matrix<double>& ns = *ns_;
  Matrix<uint8_t>& known = *known_;
  if (rows <= ns.rows() && cols <= ns.cols()) return;
  // Grow geometrically so an edit stream introducing one name at a time does
  // not copy the matrices per edit — but only the overflowing dimension: a
  // per-source cache sees a few hundred source names against thousands of
  // target names, and doubling both would balloon the rows with the columns.
  int64_t new_rows =
      rows <= ns.rows() ? ns.rows() : std::max<int64_t>(rows, ns.rows() * 2);
  int64_t new_cols =
      cols <= ns.cols() ? ns.cols() : std::max<int64_t>(cols, ns.cols() * 2);
  Matrix<double> grown_ns(new_rows, new_cols);
  Matrix<uint8_t> grown_known(new_rows, new_cols);
  for (int64_t i = 0; ns.cols() > 0 && i < ns.rows(); ++i) {
    std::memcpy(grown_ns.row(i), ns.row(i),
                static_cast<size_t>(ns.cols()) * sizeof(double));
    std::memcpy(grown_known.row(i), known.row(i),
                static_cast<size_t>(ns.cols()) * sizeof(uint8_t));
  }
  if (bytes_gauge_ != nullptr) {
    const int64_t cell = sizeof(double) + sizeof(uint8_t);
    bytes_gauge_->Add((new_rows * new_cols - ns.rows() * ns.cols()) * cell);
  }
  ns = std::move(grown_ns);
  known = std::move(grown_known);
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
  (*ns_)(i, j) = InternedNameSimilarity(
      side1_->interned[static_cast<size_t>(i)],
      side2_->interned[static_cast<size_t>(j)], weights, memo_);
  (*known_)(i, j) = 1;
  ++*cached_pairs_;
  pairs_computed->Increment();
  return (*ns_)(i, j);
}

}  // namespace cupid
