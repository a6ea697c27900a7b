// Property-based tests: invariants of the matching pipeline checked across
// parameterized sweeps of synthetic schemas and configurations.

#include <gtest/gtest.h>

#include <string>

#include "core/cupid_matcher.h"
#include "eval/metrics.h"
#include "eval/synthetic.h"
#include "incremental/match_session.h"
#include "linguistic/linguistic_matcher.h"
#include "structural/tree_match.h"
#include "tests/match_diff_testutil.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"
#include "util/random.h"

namespace cupid {
namespace {

// ------------------------------------------------- self-match is perfect --

class SelfMatchProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(SelfMatchProperty, SchemaMatchedAgainstItselfIsPerfect) {
  SyntheticOptions opt;
  opt.num_elements = 50;
  opt.seed = GetParam();
  // Identity pair: no mutations at all.
  opt.rename_probability = 0.0;
  opt.type_change_probability = 0.0;
  opt.flatten_probability = 0.0;
  SyntheticPair p = GenerateSyntheticPair(opt);

  Thesaurus th = DefaultThesaurus();
  CupidMatcher m(&th);
  auto r = m.Match(p.source, p.target);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  MatchQuality q = Evaluate(r->leaf_mapping, p.gold);
  // Near-perfect, not exactly perfect: token-set name similarity is
  // order-insensitive, so anagram names at different depths ("DateStatus"
  // vs a nested "StatusDate") can legitimately outscore the aligned pair.
  EXPECT_GE(q.recall(), 0.95) << "seed " << GetParam() << ": "
                              << FormatQuality(q);
  EXPECT_GE(q.precision(), 0.9) << "seed " << GetParam() << ": "
                                << FormatQuality(q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfMatchProperty,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ----------------------------------------- similarity values stay in [0,1] --

class RangeProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(RangeProperty, AllSimilaritiesWithinUnitInterval) {
  SyntheticOptions opt;
  opt.num_elements = 40;
  opt.seed = GetParam();
  SyntheticPair p = GenerateSyntheticPair(opt);

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(p.source, p.target);
  ASSERT_TRUE(lres.ok());
  for (ElementId a = 0; a < p.source.num_elements(); ++a) {
    for (ElementId b = 0; b < p.target.num_elements(); ++b) {
      EXPECT_GE(lres->lsim(a, b), 0.0f);
      EXPECT_LE(lres->lsim(a, b), 1.0f);
    }
  }
  auto t1 = BuildSchemaTree(p.source).ValueOrDie();
  auto t2 = BuildSchemaTree(p.target).ValueOrDie();
  auto r = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                     {});
  ASSERT_TRUE(r.ok());
  for (TreeNodeId a = 0; a < t1.num_nodes(); ++a) {
    for (TreeNodeId b = 0; b < t2.num_nodes(); ++b) {
      EXPECT_GE(r->sims.ssim(a, b), 0.0f);
      EXPECT_LE(r->sims.ssim(a, b), 1.0f);
      EXPECT_GE(r->sims.wsim(a, b), 0.0f);
      EXPECT_LE(r->sims.wsim(a, b), 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeProperty, testing::Values(4, 9, 16, 25));

// ------------------------------------------------ mapping postconditions --

struct CardinalityCase {
  MappingCardinality cardinality;
  uint64_t seed;
};

class MappingProperty : public testing::TestWithParam<CardinalityCase> {};

TEST_P(MappingProperty, AcceptanceThresholdAndCardinalityRespected) {
  SyntheticOptions opt;
  opt.num_elements = 45;
  opt.seed = GetParam().seed;
  SyntheticPair p = GenerateSyntheticPair(opt);

  Thesaurus th = DefaultThesaurus();
  CupidConfig cfg;
  cfg.mapping.cardinality = GetParam().cardinality;
  CupidMatcher m(&th, cfg);
  auto r = m.Match(p.source, p.target);
  ASSERT_TRUE(r.ok());

  // Track node ids, not paths: the synthetic generator may produce
  // same-named siblings whose paths collide as strings.
  std::set<TreeNodeId> targets;
  std::set<TreeNodeId> sources;
  for (const MappingElement& e : r->leaf_mapping.elements) {
    EXPECT_GE(e.wsim, cfg.mapping.th_accept);
    EXPECT_TRUE(r->source_tree.IsLeaf(e.source));
    EXPECT_TRUE(r->target_tree.IsLeaf(e.target));
    // Target nodes are unique under every cardinality policy.
    EXPECT_TRUE(targets.insert(e.target).second) << e.target_path;
    if (GetParam().cardinality != MappingCardinality::kOneToMany) {
      EXPECT_TRUE(sources.insert(e.source).second) << e.source_path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MappingProperty,
    testing::Values(CardinalityCase{MappingCardinality::kOneToMany, 3},
                    CardinalityCase{MappingCardinality::kOneToOneGreedy, 3},
                    CardinalityCase{MappingCardinality::kOneToOneStable, 3},
                    CardinalityCase{MappingCardinality::kOneToMany, 17},
                    CardinalityCase{MappingCardinality::kOneToOneGreedy, 17},
                    CardinalityCase{MappingCardinality::kOneToOneStable, 17}));

// ---------------------------------------------- robustness to mutations --

class MutationProperty : public testing::TestWithParam<double> {};

TEST_P(MutationProperty, QualityDegradesGracefullyWithRenames) {
  // More renames should not crash and should keep F1 above a floor that a
  // pure name matcher could not sustain.
  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = 99;
  opt.rename_probability = GetParam();
  SyntheticPair p = GenerateSyntheticPair(opt);

  Thesaurus th = DefaultThesaurus();
  CupidMatcher m(&th);
  auto r = m.Match(p.source, p.target);
  ASSERT_TRUE(r.ok());
  MatchQuality q = Evaluate(r->leaf_mapping, p.gold);
  EXPECT_GE(q.recall(), 0.5) << "rename_p=" << GetParam() << " "
                             << FormatQuality(q);
}

INSTANTIATE_TEST_SUITE_P(RenameLevels, MutationProperty,
                         testing::Values(0.0, 0.2, 0.4, 0.6));

// ---------------------------------------- lazy expansion output equality --

class LazyProperty : public testing::TestWithParam<uint64_t> {};

TEST_P(LazyProperty, LazyAndEagerLeafMappingsAgreeOnPlainTrees) {
  // Synthetic schemas have no shared types, so lazy expansion must be a
  // strict no-op.
  SyntheticOptions opt;
  opt.num_elements = 40;
  opt.seed = GetParam();
  SyntheticPair p = GenerateSyntheticPair(opt);

  Thesaurus th = DefaultThesaurus();
  CupidConfig eager;
  CupidConfig lazy;
  lazy.tree_match.lazy_expansion = true;
  CupidMatcher me(&th, eager);
  CupidMatcher ml(&th, lazy);
  auto re = me.Match(p.source, p.target);
  auto rl = ml.Match(p.source, p.target);
  ASSERT_TRUE(re.ok());
  ASSERT_TRUE(rl.ok());
  ASSERT_EQ(re->leaf_mapping.size(), rl->leaf_mapping.size());
  for (size_t i = 0; i < re->leaf_mapping.size(); ++i) {
    EXPECT_EQ(re->leaf_mapping.elements[i].source_path,
              rl->leaf_mapping.elements[i].source_path);
    EXPECT_EQ(re->leaf_mapping.elements[i].target_path,
              rl->leaf_mapping.elements[i].target_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyProperty, testing::Values(6, 7, 10));

// --------------------------------------------- threshold monotonicity ----

class ThresholdProperty : public testing::TestWithParam<double> {};

TEST_P(ThresholdProperty, HigherAcceptanceThresholdNeverAddsPairs) {
  SyntheticOptions opt;
  opt.num_elements = 50;
  opt.seed = 31;
  SyntheticPair p = GenerateSyntheticPair(opt);
  Thesaurus th = DefaultThesaurus();

  CupidConfig loose;
  loose.mapping.th_accept = 0.5;
  CupidConfig strict;
  strict.mapping.th_accept = GetParam();
  CupidMatcher m_loose(&th, loose);
  CupidMatcher m_strict(&th, strict);
  auto rl = m_loose.Match(p.source, p.target);
  auto rs = m_strict.Match(p.source, p.target);
  ASSERT_TRUE(rl.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_LE(rs->leaf_mapping.size(), rl->leaf_mapping.size());
  // Every strict pair also appears in the loose mapping.
  for (const MappingElement& e : rs->leaf_mapping.elements) {
    EXPECT_TRUE(rl->leaf_mapping.ContainsPair(e.source_path, e.target_path));
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdProperty,
                         testing::Values(0.6, 0.7, 0.8, 0.9));

// ------------------------------ incremental differential fuzz harness ----
//
// The visit-list engine's contract: every warm Rematch is bit-identical to
// from-scratch matching — matrices AND mappings — and its structural phase
// to the full-grid reference sweep. The from-scratch side runs the naive
// linguistic oracle (ReferenceMatch). Seeded random schemas take random
// 20-edit streams applied in batches of 1-3 edits per Rematch
// (incremental_test.cc covers the one-edit-per-rematch cadence), and the
// harness additionally asserts the gather fast paths actually engaged, so a
// silent fallback to the slow path cannot masquerade as coverage.

class IncrementalDifferentialProperty
    : public testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferentialProperty, TwentyEditStreamBitIdentical) {
  const uint64_t seed = GetParam();
  CupidConfig config;

  SyntheticOptions opt;
  opt.num_elements = 55;
  opt.seed = seed;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();

  MatchSession session(&thesaurus, pair.source, pair.target, config);
  SplitMix64 rng(seed * 104729 + 17);

  ASSERT_TRUE(session.Rematch().ok());
  bool gathered_lsim = false;
  bool warm_used = false;
  int edits_applied = 0;
  int step = 0;
  while (edits_applied < 20) {
    int batch = 1 + static_cast<int>(rng.NextBounded(3));
    for (int b = 0; b < batch && edits_applied < 20; ++b) {
      SchemaEdit edit = RandomSessionEdit(&rng, session.source(),
                                          session.target(), ++edits_applied);
      ASSERT_TRUE(session.ApplyEdit(edit).ok())
          << "seed " << seed << " edit " << edits_applied << " path "
          << edit.path;
    }
    auto inc = session.Rematch();
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    auto ref = ReferenceMatch(&thesaurus, config, session.source(),
                              session.target());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(++step) +
        " (edits " + std::to_string(edits_applied) + ")";
    ExpectIdenticalResults(**inc, *ref, context);
    if (::testing::Test::HasFatalFailure()) return;
    ExpectMatchesReferenceSweep(**inc, config, context);
    if (::testing::Test::HasFatalFailure()) return;
    warm_used |= session.last_stats().incremental;
    gathered_lsim |= session.last_stats().lsim_gathered_rows > 0;
  }
  // The stream must have exercised the warm structural path and the lsim
  // gather (copied rows on at least one step). Otherwise the equality above
  // proved nothing about the fast paths under test.
  EXPECT_TRUE(warm_used) << "no Rematch took the incremental path";
  EXPECT_TRUE(gathered_lsim) << "no Rematch went down the lsim gather";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialProperty,
                         testing::Values(101, 102, 103, 104, 105, 106, 107,
                                         108));

}  // namespace
}  // namespace cupid
