// Token interning and token-pair similarity memoization.
//
// The linguistic phase compares O(E1*E2) element-name pairs, but real
// schemas draw their names from a small vocabulary: the same tokens recur
// across hundreds of elements. Interning maps each distinct (text, type)
// token to a dense TokenId once, and TokenPairMemo resolves the
// thesaurus/affix work of TokenSimilarity once per distinct unordered id
// pair instead of once per element pair.
//
// The memoized value is bit-identical to TokenSimilarity (it is computed by
// calling it), so cached matching reproduces the naive lsim exactly. Every
// match keeps its interner and memo in an LsimCache
// (linguistic/lsim_cache.h): a one-shot match in a fresh one, a session or
// a service in one that persists across matches.

#ifndef CUPID_PERF_TOKEN_INTERNER_H_
#define CUPID_PERF_TOKEN_INTERNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "linguistic/name_similarity.h"
#include "linguistic/tokenizer.h"
#include "thesaurus/thesaurus.h"

namespace cupid {

/// Dense id of a distinct (text, type) token within a TokenInterner.
using TokenId = int32_t;

/// \brief Assigns dense ids to distinct tokens.
class TokenInterner {
 public:
  /// Returns the id of `token`, allocating one on first sight. Two tokens
  /// receive the same id iff they compare equal (same text and type).
  TokenId Intern(const Token& token);

  /// The token behind an id.
  const Token& token(TokenId id) const {
    return tokens_[static_cast<size_t>(id)];
  }

  /// Number of distinct tokens interned so far.
  size_t size() const { return tokens_.size(); }

 private:
  // Key: token text with the type appended as a trailing tag byte.
  std::unordered_map<std::string, TokenId> ids_;
  std::vector<Token> tokens_;
};

/// \brief Memoized TokenSimilarity over interned token ids.
///
/// Keys are unordered (TokenSimilarity is symmetric), so (a,b) and (b,a)
/// share one entry. The first lookup sizes a dense table, indexed by id
/// pair, to the tokens interned by then (a lookup is two loads) — unless
/// the vocabulary is larger than kDenseLimit. Pairs involving an id interned
/// later, and every pair of a too-large vocabulary, go to a hash map, so a
/// memo can be built before interning is complete and keep serving while it
/// grows.
class TokenPairMemo {
 public:
  /// All three referents must outlive the memo.
  TokenPairMemo(const TokenInterner* interner, const Thesaurus* thesaurus,
                const SubstringSimilarityOptions& opts)
      : interner_(interner), thesaurus_(thesaurus), opts_(opts) {}

  /// TokenSimilarity of the two interned tokens; computed on first request
  /// per unordered pair, served from the memo afterwards. The dense hit path
  /// is inline: the name-pair kernels call this for every token pair.
  double Similarity(TokenId a, TokenId b) {
    const size_t ua = static_cast<size_t>(a), ub = static_cast<size_t>(b);
    if (ua < num_dense_ && ub < num_dense_) {
      const size_t idx = ua * num_dense_ + ub;
      if (known_[idx]) {
        ++hits_;
        return dense_[idx];
      }
    }
    return SimilaritySlow(a, b);
  }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  /// Allocated bytes of the dense table (0 before the first lookup).
  int64_t dense_bytes() const {
    return static_cast<int64_t>(dense_.size() * sizeof(double) +
                                known_.size() * sizeof(uint8_t));
  }

 private:
  /// Above this vocabulary size the dense table (size^2 doubles) would cost
  /// more memory than the hash map saves time.
  static constexpr size_t kDenseLimit = 1024;

  static uint64_t PairKey(TokenId a, TokenId b) {
    uint32_t lo = static_cast<uint32_t>(a < b ? a : b);
    uint32_t hi = static_cast<uint32_t>(a < b ? b : a);
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  double Compute(TokenId a, TokenId b) const;
  /// Similarity past the dense hit path: sizes the dense table on the
  /// first lookup, fills a dense miss, or serves the hash map.
  double SimilaritySlow(TokenId a, TokenId b);

  const TokenInterner* interner_;
  const Thesaurus* thesaurus_;
  SubstringSimilarityOptions opts_;
  bool sized_ = false;
  size_t num_dense_ = 0;        // ids below this index the dense table
  std::vector<double> dense_;   // both (a,b) and (b,a) slots are filled
  std::vector<uint8_t> known_;
  std::unordered_map<uint64_t, double> memo_;  // pairs outside the table
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace cupid

#endif  // CUPID_PERF_TOKEN_INTERNER_H_
