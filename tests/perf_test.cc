// Tests for the performance layer (src/perf, linguistic/lsim_cache.h) and
// its integration: interner identity, memo hit semantics, cached-vs-naive
// bit-for-bit equivalence against LinguisticMatchReference, and the hashed
// path index.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/datasets.h"
#include "eval/synthetic.h"
#include "incremental/schema_edit.h"
#include "linguistic/linguistic_matcher.h"
#include "linguistic/lsim_cache.h"
#include "obs/metrics.h"
#include "perf/interned_names.h"
#include "perf/token_interner.h"
#include "schema/schema_builder.h"
#include "structural/tree_match.h"
#include "tests/match_diff_testutil.h"
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

  // The first lookup sized the dense table to the two tokens interned by
  // then; a token interned later is served by the hash fallback, still
  // with one miss per distinct pair.
  EXPECT_GT(memo.dense_bytes(), 0);
  TokenId amount = interner.Intern({"amount", TokenType::kContent});
  double late = memo.Similarity(amount, price);
  EXPECT_EQ(memo.misses(), 2);
  EXPECT_EQ(memo.Similarity(price, amount), late);
  EXPECT_EQ(memo.misses(), 2);
  EXPECT_EQ(memo.hits(), 3);
  EXPECT_EQ(late, TokenSimilarity({"amount", TokenType::kContent},
                                  {"price", TokenType::kContent}, th, opts));
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

// ------------------------------------------- cached vs naive lsim equality --

/// Both cached entry points — the one-shot Match(s1, s2) and the kernel
/// over two prepared sides, Match(Prepare(s1, source), Prepare(s2, target),
/// cache) — equal the naive reference bit for bit.
TEST(PerfEquivalenceTest, CachedLsimEqualsNaiveBitForBit) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
  LinguisticMatcher cached(&th, options);
  for (int elements : {16, 64, 256, 1024}) {
    SyntheticOptions sopt;
    sopt.num_elements = elements;
    sopt.seed = 7;
    SyntheticPair p = GenerateSyntheticPair(sopt);
    auto rn = LinguisticMatchReference(&th, options, p.source, p.target);
    ASSERT_TRUE(rn.ok());
    LsimCache cache(&th, options);
    auto side1 = cached.Prepare(p.source, LsimSide::kSource, &cache);
    auto side2 = cached.Prepare(p.target, LsimSide::kTarget, &cache);
    ASSERT_TRUE(side1.ok()) << side1.status().ToString();
    ASSERT_TRUE(side2.ok()) << side2.status().ToString();
    auto one_shot = cached.Match(p.source, p.target);
    auto kernel = cached.Match(*side1, *side2, &cache);
    for (const auto* rc : {&one_shot, &kernel}) {
      const std::string path = rc == &one_shot ? "one-shot" : "kernel";
      ASSERT_TRUE(rc->ok()) << path << ": " << rc->status().ToString();
      EXPECT_EQ(rn->comparisons, (*rc)->comparisons)
          << path << ", " << elements << " elements";
      ASSERT_EQ(rn->lsim.rows(), (*rc)->lsim.rows());
      ASSERT_EQ(rn->lsim.cols(), (*rc)->lsim.cols());
      for (int64_t i = 0; i < rn->lsim.rows(); ++i) {
        for (int64_t j = 0; j < rn->lsim.cols(); ++j) {
          ASSERT_EQ(rn->lsim(i, j), (*rc)->lsim(i, j))
              << path << ", " << elements << " elements, at (" << i << ","
              << j << ")";
        }
      }
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
  CupidConfig config;

  auto rc = CupidMatcher(&th, config).Match(p.source, p.target);
  auto rn = ReferenceMatch(&th, config, p.source, p.target);
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rn.ok());
  ExpectIdenticalResults(*rc, *rn, "cached vs naive");
}

// ------------------------------------------------------ lsim cache growth --

void ExpectLsimEqual(const LinguisticResult& got, const LinguisticResult& want,
                     const std::string& context) {
  ASSERT_EQ(got.lsim.rows(), want.lsim.rows()) << context;
  ASSERT_EQ(got.lsim.cols(), want.lsim.cols()) << context;
  for (int64_t i = 0; i < want.lsim.rows(); ++i) {
    for (int64_t j = 0; j < want.lsim.cols(); ++j) {
      ASSERT_EQ(got.lsim(i, j), want.lsim(i, j))
          << context << " at (" << i << "," << j << ")";
    }
  }
}


/// A cache that sees one new target name per match (a per-source cache
/// under a stream of targets) grows only its columns: the name-pair table
/// stays within twice the registered rows x cols, never inflating the rows.
TEST(LsimCacheTest, TableGrowsOnlyTheOverflowingDimension) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
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
    ASSERT_LT(cache.name_table_bytes(), 2 * rows * cols * kCell)
        << "after " << k + 1 << " targets (" << rows << " x " << cols
        << " names)";
    if (k == 999) {
      auto plain = LinguisticMatchReference(&th, options, source, target);
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
  EXPECT_GT(cache.name_table_bytes(), 0);
  // bytes() also counts the label registries and the label-pair table.
  EXPECT_GT(cache.bytes(), cache.name_table_bytes());
}

/// bytes() — and the gauge that tracks it — counts the category-label
/// registries and the label-pair table: preparing a source whose names are
/// all known but whose categories bring a new label raises both, with the
/// name-pair table untouched. The gauge returns to zero when the cache dies.
TEST(LsimCacheTest, NewLabelsAloneRaiseBytesAndTheGauge) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
  LinguisticMatcher matcher(&th, options);
  obs::MetricsRegistry registry;
  obs::Gauge* gauge = registry.GetGauge("test.lsim_cache_bytes", "");

  auto build = [](DataType price_type) {
    XmlSchemaBuilder b("Order");
    ElementId item = b.AddElement(b.root(), "Item");
    b.AddAttribute(item, "Price", price_type);
    b.AddAttribute(item, "Name", DataType::kString);
    return std::move(b).Build();
  };
  Schema as_string = build(DataType::kString);
  Schema as_money = build(DataType::kMoney);  // same names, new type label
  {
    LsimCache cache(&th, options, gauge);
    auto first = matcher.Prepare(as_string, LsimSide::kSource, &cache);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE((*first)->cache_filled);
    const int64_t bytes_before = cache.bytes();
    const size_t labels_before = cache.num_source_labels();
    EXPECT_GT(bytes_before, 0);
    EXPECT_EQ(gauge->value(), bytes_before);

    auto again = matcher.Prepare(as_string, LsimSide::kSource, &cache);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE((*again)->cache_filled);  // all names and labels known
    EXPECT_EQ(cache.bytes(), bytes_before);

    auto retyped = matcher.Prepare(as_money, LsimSide::kSource, &cache);
    ASSERT_TRUE(retyped.ok());
    EXPECT_TRUE((*retyped)->cache_filled);
    EXPECT_EQ(cache.num_source_names(), static_cast<size_t>(4));
    EXPECT_GT(cache.num_source_labels(), labels_before);
    EXPECT_EQ(cache.name_table_bytes(), 0);
    EXPECT_GT(cache.bytes(), bytes_before);
    EXPECT_EQ(gauge->value(), cache.bytes());

    // Matching allocates the label-pair table; the gauge follows.
    auto target = matcher.Prepare(as_string, LsimSide::kTarget, &cache);
    ASSERT_TRUE(target.ok()) << target.status().ToString();
    auto matched = matcher.Match(*retyped, *target, &cache);
    ASSERT_TRUE(matched.ok()) << matched.status().ToString();
    EXPECT_TRUE(matched->cache_filled);
    EXPECT_GT(cache.bytes(), cache.name_table_bytes());
    EXPECT_EQ(gauge->value(), cache.bytes());
  }
  EXPECT_EQ(gauge->value(), 0);
}

/// `cache_filled` reports label work too: with every name, name pair and
/// label already in the cache (a categories-off match needs every name
/// pair, and preparing a side registers its labels whatever the options),
/// a match that only computes label pairs, or only registers a new source
/// label and its pairs, still took the exclusive lock — and says so.
TEST(LsimCacheTest, LabelFillsAloneSetCacheFilled) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
  LinguisticOptions no_categories = options;
  no_categories.use_categories = false;
  LinguisticMatcher matcher(&th, options);

  auto source_with = [](DataType price_type) {
    XmlSchemaBuilder b("Order");
    ElementId item = b.AddElement(b.root(), "Item");
    b.AddAttribute(item, "Price", price_type);
    b.AddAttribute(item, "Name", DataType::kString);
    return std::move(b).Build();
  };
  Schema source = source_with(DataType::kString);
  Schema retyped = source_with(DataType::kMoney);  // same names, new label
  XmlSchemaBuilder tb("Purchase");
  ElementId line = tb.AddElement(tb.root(), "Line");
  tb.AddAttribute(line, "Cost", DataType::kMoney);
  tb.AddAttribute(line, "Title", DataType::kString);
  Schema target = std::move(tb).Build();

  LsimCache cache(&th, options);
  ASSERT_TRUE(LinguisticMatcher(&th, no_categories)
                  .Match(source, target, &cache)
                  .ok());
  const int64_t pairs = cache.num_cached_pairs();
  EXPECT_GT(cache.num_target_labels(), 0u);
  auto target_side = matcher.Prepare(target, LsimSide::kTarget, &cache);
  ASSERT_TRUE(target_side.ok());
  EXPECT_FALSE((*target_side)->cache_filled);  // names and labels known

  auto expect = [&](const Schema& s, bool filled, const char* step) {
    auto prepared = matcher.Prepare(s, LsimSide::kSource, &cache);
    ASSERT_TRUE(prepared.ok()) << step;
    auto got = matcher.Match(*prepared, *target_side, &cache);
    ASSERT_TRUE(got.ok()) << step;
    EXPECT_EQ(got->cache_filled || (*prepared)->cache_filled, filled) << step;
    auto want = LinguisticMatchReference(&th, options, s, target);
    ASSERT_TRUE(want.ok());
    ExpectLsimEqual(*got, *want, step);
  };
  expect(source, true, "label pairs");
  expect(source, false, "warm");
  expect(retyped, true, "new label pairs only");
  expect(retyped, false, "warm again");
  EXPECT_EQ(cache.num_cached_pairs(), pairs);  // no name pair was computed
}

/// A prepared side carries registry indices of the cache and the side it
/// was prepared against; the kernel refuses any other cache — even one with
/// the same binding — a side passed in the wrong position, and a null side.
TEST(LsimCacheTest, PreparedSourceIsBoundToItsCache) {
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions options;
  LinguisticMatcher matcher(&th, options);
  SyntheticOptions sopt;
  sopt.num_elements = 30;
  sopt.seed = 3;
  SyntheticPair p = GenerateSyntheticPair(sopt);
  LsimCache cache(&th, options), other(&th, options);
  auto source = matcher.Prepare(p.source, LsimSide::kSource, &cache);
  auto target = matcher.Prepare(p.target, LsimSide::kTarget, &cache);
  auto other_target = matcher.Prepare(p.target, LsimSide::kTarget, &other);
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(other_target.ok());
  auto wrong = matcher.Match(*source, *target, &other);
  EXPECT_TRUE(wrong.status().IsInvalidArgument()) << wrong.status().ToString();
  auto mixed = matcher.Match(*source, *other_target, &cache);
  EXPECT_TRUE(mixed.status().IsInvalidArgument()) << mixed.status().ToString();
  auto source_as_target = matcher.Match(*source, *source, &cache);
  EXPECT_TRUE(source_as_target.status().IsInvalidArgument())
      << source_as_target.status().ToString();
  auto swapped = matcher.Match(*target, *source, &cache);
  EXPECT_TRUE(swapped.status().IsInvalidArgument());
  auto null_cache = matcher.Match(*source, *target, nullptr);
  EXPECT_TRUE(null_cache.status().IsInvalidArgument());
  EXPECT_TRUE(
      matcher.Match(nullptr, *target, &cache).status().IsInvalidArgument());
  EXPECT_TRUE(matcher.Prepare(p.source, LsimSide::kSource, nullptr)
                  .status()
                  .IsInvalidArgument());
  auto right = matcher.Match(*source, *target, &cache);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  auto want = LinguisticMatchReference(&th, options, p.source, p.target);
  ASSERT_TRUE(want.ok());
  ExpectLsimEqual(*right, *want, "bound sides");
}

/// One LsimCache warmed over a 4 x 4 grid of sources and targets of two
/// sizes, in a shuffled order, so both label registries — and the
/// label-pair table in both dimensions — grow while matches run. Matchers
/// that differ only in thns or use_categories share the cache (neither is
/// part of its binding). Every Match(s1, s2, cache), every warm Match
/// patching from another pair, and concurrent readers of the warm cache
/// must equal LinguisticMatchReference bit for bit.
TEST(LsimCacheTest, SharedLabelTableEqualsUncachedAcrossPairsAndOptions) {
  Thesaurus th = DefaultThesaurus();
  std::vector<Schema> sources, targets;
  for (int k = 0; k < 4; ++k) {
    SyntheticOptions sopt;
    sopt.num_elements = k % 2 == 0 ? 60 : 256;
    sopt.seed = 500 + static_cast<uint64_t>(k);
    SyntheticPair p = GenerateSyntheticPair(sopt);
    sources.push_back(std::move(p.source));
    targets.push_back(std::move(p.target));
  }
  struct Variant {
    std::string name;
    LinguisticOptions options;
  };
  std::vector<Variant> variants(4);
  variants[0].name = "default";
  variants[1].name = "thns=0";
  variants[1].options.thns = 0.0;
  variants[2].name = "thns=0.9";
  variants[2].options.thns = 0.9;
  variants[3].name = "no-categories";
  variants[3].options.use_categories = false;

  // Naive reference per (variant, source, target).
  std::vector<LinguisticResult> want;
  for (const Variant& v : variants) {
    for (const Schema& s : sources) {
      for (const Schema& t : targets) {
        auto r = LinguisticMatchReference(&th, v.options, s, t);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        want.push_back(std::move(*r));
      }
    }
  }
  auto want_at = [&](size_t v, size_t i, size_t j) -> const LinguisticResult& {
    return want[(v * 4 + i) * 4 + j];
  };

  // A fixed shuffle of the 16 pairs (a multiplicative permutation of 0..15).
  std::vector<size_t> order;
  for (size_t k = 0; k < 16; ++k) order.push_back((k * 7 + 3) % 16);

  LsimCache cache(&th, variants[0].options);
  size_t labels1 = 0, labels2 = 0;
  bool grew_source = false, grew_target = false;
  size_t prev_i = order.back() / 4, prev_j = order.back() % 4;
  for (size_t k : order) {
    const size_t i = k / 4, j = k % 4;
    for (size_t v = 0; v < variants.size(); ++v) {
      LinguisticMatcher matcher(&th, variants[v].options);
      const std::string context = variants[v].name + " source " +
                                  std::to_string(i) + " target " +
                                  std::to_string(j);
      auto cached = matcher.Match(sources[i], targets[j], &cache);
      ASSERT_TRUE(cached.ok()) << cached.status().ToString();
      ExpectLsimEqual(*cached, want_at(v, i, j), "match " + context);
      EXPECT_EQ(cached->comparisons, want_at(v, i, j).comparisons) << context;

      // Patch this pair from the previous one: every changed row and
      // column reads the label-pair table.
      LsimPast past;
      past.result = &want_at(v, prev_i, prev_j);
      past.plan = BuildLsimGatherPlan(sources[i], targets[j],
                                      sources[prev_i], targets[prev_j]);
      auto gathered = matcher.Match(sources[i], targets[j], &cache, past);
      ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
      ExpectLsimEqual(*gathered, want_at(v, i, j), "gather " + context);
    }
    prev_i = i;
    prev_j = j;
    if (labels1 != 0 && cache.num_source_labels() > labels1) grew_source = true;
    if (labels2 != 0 && cache.num_target_labels() > labels2) grew_target = true;
    labels1 = cache.num_source_labels();
    labels2 = cache.num_target_labels();
  }
  EXPECT_TRUE(grew_source);
  EXPECT_TRUE(grew_target);

  // Warm: four concurrent readers, each over every pair and variant, never
  // fill and still equal the reference.
  std::atomic<int> mismatches{0}, fills{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      for (size_t n = 0; n < 16; ++n) {
        const size_t k = (n + static_cast<size_t>(r) * 5) % 16;
        const size_t i = k / 4, j = k % 4;
        for (size_t v = 0; v < variants.size(); ++v) {
          LinguisticMatcher matcher(&th, variants[v].options);
          auto got = matcher.Match(sources[i], targets[j], &cache);
          if (!got.ok()) {
            ++mismatches;
            continue;
          }
          if (got->cache_filled) ++fills;
          const Matrix<float>& a = got->lsim;
          const Matrix<float>& b = want_at(v, i, j).lsim;
          for (int64_t x = 0; x < b.rows(); ++x) {
            for (int64_t y = 0; y < b.cols(); ++y) {
              if (a(x, y) != b(x, y)) ++mismatches;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fills.load(), 0);
}

/// A warm Match runs the one kernel: it takes the unedited side over from
/// its past (only the edited side is prepared), copies the rows of
/// unchanged sources however many elements changed, prepares again a side
/// the past prepared against another cache, and on a warm cache never takes
/// the exclusive lock — each result equal to the reference.
TEST(LsimCacheTest, WarmMatchReusesUneditedSideAndPatchesAnyChange) {
  Thesaurus th = DefaultThesaurus();
  SyntheticOptions sopt;
  sopt.num_elements = 256;
  sopt.seed = 610;
  SyntheticPair p = GenerateSyntheticPair(sopt);
  LinguisticOptions options;
  LinguisticMatcher matcher(&th, options);
  LsimCache cache(&th, options);
  auto cold = matcher.Match(p.source, p.target, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_NE(cold->side1, nullptr);
  ASSERT_NE(cold->side2, nullptr);

  auto warm_from = [&](const LinguisticResult& prev, const Schema& source,
                       LsimCache* on, const Schema* target = nullptr) {
    if (target == nullptr) target = &p.target;
    LsimPast past;
    past.result = &prev;
    past.plan = BuildLsimGatherPlan(source, *target, p.source, p.target);
    return matcher.Match(source, *target, on, past);
  };
  auto reference = [&](const Schema& source, const Schema* target = nullptr) {
    auto want = LinguisticMatchReference(&th, options, source,
                                         target ? *target : p.target);
    EXPECT_TRUE(want.ok());
    return std::move(*want);
  };

  // One renamed source element: the target side is the past's, the source
  // side is prepared again; a repeat on the now-warm cache fills nothing.
  Schema renamed = p.source;
  const ElementId leaf = renamed.num_elements() - 1;
  renamed.mutable_element(leaf)->name += "Renamed";
  auto one = warm_from(*cold, renamed, &cache);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->side2.get(), cold->side2.get());
  EXPECT_NE(one->side1.get(), cold->side1.get());
  EXPECT_EQ(one->gathered_rows, renamed.num_elements() - 1);
  EXPECT_TRUE(one->cache_filled);  // the new name was registered
  const LinguisticResult want_one = reference(renamed);
  ExpectLsimEqual(*one, want_one, "one rename");
  auto again = warm_from(*cold, renamed, &cache);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->cache_filled);
  ExpectLsimEqual(*again, want_one, "one rename on a warm cache");

  // A third of the source and a fifth of the target renamed: still
  // patched, not rebuilt, changed columns of copied rows included.
  Schema many = p.source;
  for (ElementId e = 1; e < many.num_elements(); e += 3) {
    many.mutable_element(e)->name += "X";
  }
  Schema many_targets = p.target;
  for (ElementId e = 2; e < many_targets.num_elements(); e += 5) {
    many_targets.mutable_element(e)->name += "Y";
  }
  auto patched = warm_from(*cold, many, &cache, &many_targets);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_GT(patched->gathered_rows, 0);
  EXPECT_LT(patched->gathered_rows, many.num_elements() * 3 / 4);
  ExpectLsimEqual(*patched, reference(many, &many_targets),
                  "a third of the sources, a fifth of the targets renamed");

  // A past prepared against another cache: neither side is reused.
  LsimCache other(&th, options);
  auto other_cold = matcher.Match(p.source, p.target, &other);
  ASSERT_TRUE(other_cold.ok());
  auto crossed = warm_from(*other_cold, renamed, &cache);
  ASSERT_TRUE(crossed.ok()) << crossed.status().ToString();
  EXPECT_NE(crossed->side2.get(), other_cold->side2.get());
  EXPECT_NE(crossed->side1.get(), other_cold->side1.get());
  EXPECT_EQ(crossed->gathered_rows, renamed.num_elements() - 1);
  ExpectLsimEqual(*crossed, want_one, "past from another cache");
}

/// A past whose plan does not fit it is InvalidArgument, never an
/// out-of-bounds copy: a plan built for other schemas than the past's lsim,
/// a plan of the wrong size, and an unchanged element left unmapped.
TEST(LsimCacheTest, MismatchedPastIsInvalidArgument) {
  Thesaurus th = DefaultThesaurus();
  SyntheticOptions sopt;
  sopt.num_elements = 60;
  sopt.seed = 620;
  SyntheticPair small = GenerateSyntheticPair(sopt);
  sopt.num_elements = 256;
  SyntheticPair big = GenerateSyntheticPair(sopt);
  LinguisticOptions options;
  LinguisticMatcher matcher(&th, options);
  LsimCache cache(&th, options);
  auto small_result = matcher.Match(small.source, small.target, &cache);
  ASSERT_TRUE(small_result.ok());

  // The plan relates `big` to itself, but the past lsim is small's.
  LsimPast past;
  past.result = &*small_result;
  past.plan = BuildLsimGatherPlan(big.source, big.target, big.source,
                                  big.target);
  auto outside = matcher.Match(big.source, big.target, &cache, past);
  EXPECT_TRUE(outside.status().IsInvalidArgument())
      << outside.status().ToString();

  // A plan sized for another pair.
  past.plan = BuildLsimGatherPlan(small.source, small.target, small.source,
                                  small.target);
  auto sized = matcher.Match(big.source, big.target, &cache, past);
  EXPECT_TRUE(sized.status().IsInvalidArgument()) << sized.status().ToString();

  // An unchanged but unmapped source element.
  past.plan.source_map[3] = kNoElement;
  auto unmapped = matcher.Match(small.source, small.target, &cache, past);
  EXPECT_TRUE(unmapped.status().IsInvalidArgument())
      << unmapped.status().ToString();

  // The plan intact: the warm match equals the cold one.
  past.plan.source_map[3] = 3;
  auto fine = matcher.Match(small.source, small.target, &cache, past);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  ExpectLsimEqual(*fine, *small_result, "intact plan");
}

/// Field-for-field equality of two schema analyses.
void ExpectSameAnalysis(const SchemaLinguistics& got,
                        const SchemaLinguistics& want,
                        const std::string& context) {
  ASSERT_NE(got.names, nullptr) << context;
  ASSERT_EQ(got.names->size(), want.names->size()) << context;
  for (size_t e = 0; e < got.names->size(); ++e) {
    const NormalizedName& g = (*got.names)[e];
    const NormalizedName& w = (*want.names)[e];
    EXPECT_EQ(g.original, w.original) << context << " name " << e;
    EXPECT_EQ(g.tokens, w.tokens) << context << " name " << e;
    EXPECT_EQ(g.concepts, w.concepts) << context << " name " << e;
  }
  const std::vector<Category>& gc = got.categories->categories;
  const std::vector<Category>& wc = want.categories->categories;
  ASSERT_EQ(gc.size(), wc.size()) << context;
  for (size_t c = 0; c < gc.size(); ++c) {
    EXPECT_EQ(gc[c].label, wc[c].label) << context << " category " << c;
    EXPECT_EQ(gc[c].keywords, wc[c].keywords) << context << " category " << c;
    EXPECT_EQ(gc[c].members, wc[c].members) << context << " category " << c;
  }
  EXPECT_EQ(got.categories->element_categories,
            want.categories->element_categories)
      << context;
  EXPECT_EQ(got.category_members.begin, want.category_members.begin)
      << context;
  EXPECT_EQ(got.category_members.members, want.category_members.members)
      << context;
  ASSERT_EQ(got.docs.size(), want.docs.size()) << context;
  for (size_t e = 0; e < got.docs.size(); ++e) {
    EXPECT_EQ(got.docs[e].terms, want.docs[e].terms) << context << " doc " << e;
  }
}

/// An artifact's analysis prepares the same side as the schema itself, on
/// either side of a fresh cache; and an analysis lent an earlier version's
/// names equals a fresh one.
TEST(LinguisticPrepareTest, PreparedFromAnalysisEqualsPreparedFromSchema) {
  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher matcher(&th, LinguisticOptions());
  SyntheticOptions sopt;
  sopt.num_elements = 80;
  sopt.seed = 27;
  Schema documented = Fig2Po();
  documented.mutable_element(1)->documentation = "Purchase order lines";
  documented.mutable_element(2)->documentation = "Ordered item quantity";
  const std::vector<Schema> schemas = {
      Fig2PurchaseOrder(), documented, GenerateSyntheticPair(sopt).source};
  for (const Schema& schema : schemas) {
    for (LsimSide side : {LsimSide::kSource, LsimSide::kTarget}) {
      const std::string context =
          schema.name() + (side == LsimSide::kSource ? " source" : " target");
      LsimCache a(&th, LinguisticOptions()), b(&th, LinguisticOptions());
      auto want = matcher.Prepare(schema, side, &a);
      auto got = matcher.Prepare(schema, matcher.Analyze(schema), side, &b);
      ASSERT_TRUE(want.ok() && got.ok()) << context;
      const PreparedLsimSide& w = **want;
      const PreparedLsimSide& g = **got;
      EXPECT_NE(g.cache_id, w.cache_id) << context;  // caches a and b
      EXPECT_EQ(g.side, w.side) << context;
      EXPECT_EQ(g.name_ids, w.name_ids) << context;
      EXPECT_EQ(g.label_ids, w.label_ids) << context;
      EXPECT_EQ(g.cache_filled, w.cache_filled) << context;
      ExpectSameAnalysis(g, w, context);
    }
    // Lent names: a rename, and a removal that shifts every later id.
    Schema renamed = schema;
    renamed.mutable_element(renamed.num_elements() - 1)->name = "Renamed";
    Schema removed = schema;
    ASSERT_TRUE(ApplySchemaEdit(&removed, SchemaEdit::RemoveElement(
                                              EditSide::kSource,
                                              schema.PathName(2)))
                    .ok());
    const SchemaLinguistics prior = matcher.Analyze(schema);
    for (const Schema* edited : {&renamed, &removed}) {
      ExpectSameAnalysis(matcher.Analyze(*edited, &prior),
                         matcher.Analyze(*edited), schema.name() + " lent");
    }
  }
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
