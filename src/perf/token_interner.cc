#include "perf/token_interner.h"

namespace cupid {

TokenId TokenInterner::Intern(const Token& token) {
  std::string key = token.text;
  key.push_back(static_cast<char>(token.type));
  auto [it, inserted] =
      ids_.emplace(std::move(key), static_cast<TokenId>(tokens_.size()));
  if (inserted) tokens_.push_back(token);
  return it->second;
}

double TokenPairMemo::Compute(TokenId a, TokenId b) const {
  return TokenSimilarity(interner_->token(a), interner_->token(b),
                         *thesaurus_, opts_);
}

double TokenPairMemo::SimilaritySlow(TokenId a, TokenId b) {
  if (!sized_) {
    sized_ = true;
    if (interner_->size() <= kDenseLimit) {
      num_dense_ = interner_->size();
      dense_.assign(num_dense_ * num_dense_, 0.0);
      known_.assign(num_dense_ * num_dense_, 0);
    }
  }
  const size_t ua = static_cast<size_t>(a), ub = static_cast<size_t>(b);
  if (ua < num_dense_ && ub < num_dense_) {
    // The inline path already served a known dense pair.
    const size_t idx = ua * num_dense_ + ub;
    ++misses_;
    double sim = Compute(a, b);
    size_t mirror = ub * num_dense_ + ua;
    dense_[idx] = sim;
    known_[idx] = 1;
    dense_[mirror] = sim;
    known_[mirror] = 1;
    return sim;
  }
  uint64_t key = PairKey(a, b);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  double sim = Compute(a, b);
  memo_.emplace(key, sim);
  return sim;
}

}  // namespace cupid
