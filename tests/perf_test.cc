// Tests for the performance layer (src/perf, src/util/thread_pool.h) and
// its integration: interner identity, memo hit semantics, cached-vs-naive
// bit-for-bit equivalence, thread-count determinism, and the hashed path
// index.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "linguistic/linguistic_matcher.h"
#include "linguistic/lsim_cache.h"
#include "perf/interned_names.h"
#include "perf/token_interner.h"
#include "schema/schema_builder.h"
#include "structural/tree_match.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"
#include "util/thread_pool.h"

namespace cupid {
namespace {

// ---------------------------------------------------------------- interner --

TEST(TokenInternerTest, EqualTokensShareAnId) {
  TokenInterner interner;
  TokenId a = interner.Intern({"price", TokenType::kContent});
  TokenId b = interner.Intern({"price", TokenType::kContent});
  TokenId c = interner.Intern({"cost", TokenType::kContent});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.token(a).text, "price");
  EXPECT_EQ(interner.token(c).text, "cost");
}

TEST(TokenInternerTest, TypeIsPartOfTheIdentity) {
  TokenInterner interner;
  TokenId content = interner.Intern({"of", TokenType::kContent});
  TokenId common = interner.Intern({"of", TokenType::kCommon});
  EXPECT_NE(content, common);
  EXPECT_EQ(interner.token(common).type, TokenType::kCommon);
}

// -------------------------------------------------------------------- memo --

TEST(TokenPairMemoTest, MissesOncePerDistinctPairThenHits) {
  Thesaurus th = DefaultThesaurus();
  TokenInterner interner;
  TokenId price = interner.Intern({"price", TokenType::kContent});
  TokenId cost = interner.Intern({"cost", TokenType::kContent});
  SubstringSimilarityOptions opts;
  TokenPairMemo memo(&interner, &th, opts);

  double first = memo.Similarity(price, cost);
  EXPECT_EQ(memo.misses(), 1);
  EXPECT_EQ(memo.hits(), 0);

  double again = memo.Similarity(price, cost);
  // Keys are unordered: the swapped pair is the same entry.
  double swapped = memo.Similarity(cost, price);
  EXPECT_EQ(memo.misses(), 1);
  EXPECT_EQ(memo.hits(), 2);
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, swapped);

  // The memoized value IS the naive TokenSimilarity.
  EXPECT_EQ(first, TokenSimilarity({"price", TokenType::kContent},
                                   {"cost", TokenType::kContent}, th, opts));
}

TEST(InternedNamesTest, SimilarityMatchesNaiveElementNameSimilarity) {
  Thesaurus th = DefaultThesaurus();
  NameNormalizer normalizer(&th);
  TokenInterner interner;
  SubstringSimilarityOptions opts;
  TokenTypeWeights weights;

  const char* names[] = {"UnitPrice", "unit_cost#2", "POShipTo",
                         "InvoiceAmount", "Qty"};
  for (const char* a : names) {
    for (const char* b : names) {
      NormalizedName na = normalizer.Normalize(a);
      NormalizedName nb = normalizer.Normalize(b);
      InternedName ia = InternName(na, &interner);
      InternedName ib = InternName(nb, &interner);
      TokenPairMemo memo(&interner, &th, opts);
      EXPECT_EQ(InternedNameSimilarity(ia, ib, weights, &memo),
                ElementNameSimilarity(na, nb, th, weights, opts))
          << a << " vs " << b;
    }
  }
}

// ------------------------------------------------------------- thread pool --

TEST(ThreadPoolTest, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(3), 3);
}

TEST(ThreadPoolTest, ParallelForCoversTheRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> counts(1000, 0);
  ParallelFor(&pool, 1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) counts[static_cast<size_t>(i)]++;
  });
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, ParallelForRunsInlineWithoutPool) {
  std::atomic<int64_t> sum{0};
  ParallelFor(nullptr, 100, [&](int64_t begin, int64_t end) {
    sum += end - begin;
  });
  EXPECT_EQ(sum.load(), 100);
}

// ------------------------------------------- cached vs naive lsim equality --

LinguisticOptions NaiveLinguistic() {
  LinguisticOptions o;
  o.use_perf_cache = false;
  return o;
}

TEST(PerfEquivalenceTest, CachedLsimEqualsNaiveBitForBit) {
  SyntheticOptions sopt;
  sopt.num_elements = 120;
  sopt.seed = 7;
  SyntheticPair p = GenerateSyntheticPair(sopt);
  Thesaurus th = DefaultThesaurus();

  LinguisticMatcher naive(&th, NaiveLinguistic());
  LinguisticOptions cached_opts;
  cached_opts.num_threads = 1;
  LinguisticMatcher cached(&th, cached_opts);

  auto rn = naive.Match(p.source, p.target);
  auto rc = cached.Match(p.source, p.target);
  ASSERT_TRUE(rn.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(rn->comparisons, rc->comparisons);
  ASSERT_EQ(rn->lsim.rows(), rc->lsim.rows());
  ASSERT_EQ(rn->lsim.cols(), rc->lsim.cols());
  for (int64_t i = 0; i < rn->lsim.rows(); ++i) {
    for (int64_t j = 0; j < rn->lsim.cols(); ++j) {
      ASSERT_EQ(rn->lsim(i, j), rc->lsim(i, j)) << "at (" << i << "," << j
                                                << ")";
    }
  }
}

TEST(PerfEquivalenceTest, LsimIsIdenticalAtAnyThreadCount) {
  SyntheticOptions sopt;
  sopt.num_elements = 90;
  sopt.seed = 21;
  SyntheticPair p = GenerateSyntheticPair(sopt);
  Thesaurus th = DefaultThesaurus();

  LinguisticOptions one;
  one.num_threads = 1;
  LinguisticOptions four;
  four.num_threads = 4;
  auto r1 = LinguisticMatcher(&th, one).Match(p.source, p.target);
  auto r4 = LinguisticMatcher(&th, four).Match(p.source, p.target);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r1->comparisons, r4->comparisons);
  for (int64_t i = 0; i < r1->lsim.rows(); ++i) {
    for (int64_t j = 0; j < r1->lsim.cols(); ++j) {
      ASSERT_EQ(r1->lsim(i, j), r4->lsim(i, j));
    }
  }
}

// --------------------------------------- cached vs naive end-to-end match --

TEST(PerfEquivalenceTest, EndToEndMatchIsIdenticalWithAndWithoutCaches) {
  SyntheticOptions sopt;
  sopt.num_elements = 60;
  sopt.seed = 99;
  SyntheticPair p = GenerateSyntheticPair(sopt);
  Thesaurus th = DefaultThesaurus();

  CupidConfig cached_cfg;
  cached_cfg.linguistic.use_perf_cache = true;
  cached_cfg.SetNumThreads(1);
  CupidConfig naive_cfg = cached_cfg;
  naive_cfg.linguistic.use_perf_cache = false;

  auto rc = CupidMatcher(&th, cached_cfg).Match(p.source, p.target);
  auto rn = CupidMatcher(&th, naive_cfg).Match(p.source, p.target);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rn.ok());
  const NodeSimilarities& sc = rc->tree_match.sims;
  const NodeSimilarities& sn = rn->tree_match.sims;
  ASSERT_EQ(sc.source_nodes(), sn.source_nodes());
  ASSERT_EQ(sc.target_nodes(), sn.target_nodes());
  for (TreeNodeId s = 0; s < sc.source_nodes(); ++s) {
    for (TreeNodeId t = 0; t < sc.target_nodes(); ++t) {
      ASSERT_EQ(sn.lsim(s, t), sc.lsim(s, t));
      ASSERT_EQ(sn.wsim(s, t), sc.wsim(s, t));
    }
  }
}

// ------------------------------------------------------ lsim cache growth --

/// A cache that sees one new target name per match (a per-source cache
/// under a stream of targets) grows only its columns: the table stays
/// within twice the registered rows x cols, never inflating the rows.
TEST(LsimCacheTest, TableGrowsOnlyTheOverflowingDimension) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
  options.num_threads = 1;
  LinguisticMatcher matcher(&th, options);
  LsimCache cache(&th, options);

  XmlSchemaBuilder source_builder("Src");
  for (int i = 0; i < 9; ++i) {
    source_builder.AddAttribute(source_builder.root(),
                                "a" + std::to_string(i), DataType::kString);
  }
  Schema source = std::move(source_builder).Build();

  constexpr int64_t kCell = sizeof(double) + sizeof(uint8_t);
  for (int k = 0; k < 1000; ++k) {
    XmlSchemaBuilder target_builder("Tgt");
    target_builder.AddAttribute(target_builder.root(),
                                "t" + std::to_string(k), DataType::kString);
    Schema target = std::move(target_builder).Build();
    auto cached = matcher.Match(source, target, &cache);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    const int64_t rows = static_cast<int64_t>(cache.num_source_names());
    const int64_t cols = static_cast<int64_t>(cache.num_target_names());
    ASSERT_LT(cache.bytes(), 2 * rows * cols * kCell)
        << "after " << k + 1 << " targets (" << rows << " x " << cols
        << " names)";
    if (k == 999) {
      auto plain = matcher.Match(source, target);
      ASSERT_TRUE(plain.ok());
      EXPECT_EQ(cached->comparisons, plain->comparisons);
      for (int64_t i = 0; i < plain->lsim.rows(); ++i) {
        for (int64_t j = 0; j < plain->lsim.cols(); ++j) {
          ASSERT_EQ(cached->lsim(i, j), plain->lsim(i, j));
        }
      }
    }
  }
  EXPECT_EQ(cache.num_source_names(), 10u);
  EXPECT_EQ(cache.num_target_names(), 1001u);
  EXPECT_GT(cache.bytes(), 0);
}

// -------------------------------------------------------------- path index --

TEST(PathIndexTest, FindNodeByPathMatchesLinearScan) {
  SyntheticOptions sopt;
  sopt.num_elements = 50;
  sopt.seed = 5;
  Schema s = GenerateSyntheticSchema(sopt);
  auto tree = BuildSchemaTree(s);
  ASSERT_TRUE(tree.ok());
  for (TreeNodeId n = 0; n < tree->num_nodes(); ++n) {
    std::string path = tree->PathName(n);
    TreeNodeId found = tree->FindNodeByPath(path);
    // The index returns the first node with this path, like a scan would.
    EXPECT_EQ(tree->PathName(found), path);
    EXPECT_LE(found, n);
  }
  EXPECT_EQ(tree->FindNodeByPath("No.Such.Path"), kNoTreeNode);
}

TEST(PathIndexTest, WsimByPathAndBestTargetForStillResolve) {
  XmlSchemaBuilder b1("S1");
  ElementId item = b1.AddElement(b1.root(), "Item");
  b1.AddAttribute(item, "Price", DataType::kMoney);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId item2 = b2.AddElement(b2.root(), "Item");
  b2.AddAttribute(item2, "Cost", DataType::kMoney);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  auto r = CupidMatcher(&th).Match(s1, s2);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->WsimByPath("S1.Item.Price", "S2.Item.Cost"), 0.0);
  EXPECT_EQ(r->WsimByPath("S1.No.Such", "S2.Item.Cost"), 0.0);
  EXPECT_EQ(r->BestTargetFor("S1.Item.Price"), "S2.Item.Cost");
  EXPECT_EQ(r->BestTargetFor("S1.Bogus"), "");
}

}  // namespace
}  // namespace cupid
