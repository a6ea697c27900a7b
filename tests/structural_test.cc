// Tests for structural matching (src/structural): type compatibility,
// TreeMatch dynamics (increases/decreases, pruning, optionality, lazy
// expansion), the recompute pass, and the visit-list engine against the
// full-grid reference sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/datasets.h"
#include "eval/synthetic.h"
#include "linguistic/linguistic_matcher.h"
#include "perf/leaf_bitset_index.h"
#include "schema/schema_builder.h"
#include "structural/tree_match.h"
#include "structural/type_compatibility.h"
#include "tests/match_diff_testutil.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"

namespace cupid {
namespace {

TreeNodeId FindNode(const SchemaTree& t, const std::string& path) {
  for (TreeNodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.PathName(n) == path) return n;
  }
  return kNoTreeNode;
}

// ---------------------------------------------------- type compatibility --

TEST(TypeCompatibilityTest, IdenticalTypesScoreHalf) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  EXPECT_DOUBLE_EQ(t.Get(DataType::kInteger, DataType::kInteger), 0.5);
  EXPECT_DOUBLE_EQ(t.Get(DataType::kString, DataType::kString), 0.5);
}

TEST(TypeCompatibilityTest, SameClassBelowIdentical) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  double same_class = t.Get(DataType::kInteger, DataType::kDecimal);
  EXPECT_LT(same_class, 0.5);
  EXPECT_GT(same_class, t.Get(DataType::kInteger, DataType::kBinary));
}

TEST(TypeCompatibilityTest, NeverExceedsHalf) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  for (int i = 0; i <= static_cast<int>(DataType::kAny); ++i) {
    for (int j = 0; j <= static_cast<int>(DataType::kAny); ++j) {
      double v = t.Get(static_cast<DataType>(i), static_cast<DataType>(j));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 0.5);
    }
  }
}

TEST(TypeCompatibilityTest, SymmetricByDefault) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  for (int i = 0; i <= static_cast<int>(DataType::kAny); ++i) {
    for (int j = 0; j <= static_cast<int>(DataType::kAny); ++j) {
      EXPECT_DOUBLE_EQ(
          t.Get(static_cast<DataType>(i), static_cast<DataType>(j)),
          t.Get(static_cast<DataType>(j), static_cast<DataType>(i)));
    }
  }
}

TEST(TypeCompatibilityTest, SetClampsAndSymmetrizes) {
  TypeCompatibilityTable t;
  t.Set(DataType::kInteger, DataType::kString, 0.9);  // clamped to 0.5
  EXPECT_DOUBLE_EQ(t.Get(DataType::kInteger, DataType::kString), 0.5);
  EXPECT_DOUBLE_EQ(t.Get(DataType::kString, DataType::kInteger), 0.5);
}

// -------------------------------------------------------------- TreeMatch --

/// Two tiny schemas with one matching and one non-matching container.
struct Fixture {
  Fixture() {
    XmlSchemaBuilder b1("S1");
    ElementId item1 = b1.AddElement(b1.root(), "Item");
    b1.AddAttribute(item1, "Qty", DataType::kDecimal);
    b1.AddAttribute(item1, "Price", DataType::kMoney);
    s1 = std::move(b1).Build();
    XmlSchemaBuilder b2("S2");
    ElementId item2 = b2.AddElement(b2.root(), "Item");
    b2.AddAttribute(item2, "Quantity", DataType::kDecimal);
    b2.AddAttribute(item2, "Cost", DataType::kMoney);
    s2 = std::move(b2).Build();
    thesaurus = DefaultThesaurus();
  }

  Result<TreeMatchResult> Run(const TreeMatchOptions& opts = {}) {
    LinguisticMatcher lm(&thesaurus, {});
    auto lres = lm.Match(s1, s2);
    if (!lres.ok()) return lres.status();
    auto t1 = BuildSchemaTree(s1);
    auto t2 = BuildSchemaTree(s2);
    if (!t1.ok()) return t1.status();
    if (!t2.ok()) return t2.status();
    tree1 = std::move(t1).ValueOrDie();
    tree2 = std::move(t2).ValueOrDie();
    return TreeMatch(*tree1, *tree2, lres->lsim,
                     TypeCompatibilityTable::Default(), opts);
  }

  Schema s1{"S1"}, s2{"S2"};
  Thesaurus thesaurus;
  std::optional<SchemaTree> tree1, tree2;
};

TEST(TreeMatchTest, LeafSsimInitializedFromTypeTable) {
  Fixture f;
  TreeMatchOptions opts;
  // Neutralize dynamics to observe pure initialization.
  opts.th_high = 1.0;
  opts.th_low = 0.0;
  opts.th_accept = 0.5;
  auto r = f.Run(opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  TreeNodeId qty = FindNode(*f.tree1, "S1.Item.Qty");
  TreeNodeId quantity = FindNode(*f.tree2, "S2.Item.Quantity");
  EXPECT_DOUBLE_EQ(r->sims.ssim(qty, quantity), 0.5);  // decimal-decimal
  TreeNodeId price = FindNode(*f.tree1, "S1.Item.Price");
  EXPECT_LT(r->sims.ssim(price, quantity), 0.5);  // money-decimal
}

TEST(TreeMatchTest, IncreaseAppliedUnderSimilarAncestors) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.increases_applied, 0);
  TreeNodeId qty = FindNode(*f.tree1, "S1.Item.Qty");
  TreeNodeId quantity = FindNode(*f.tree2, "S2.Item.Quantity");
  // Above the 0.5 initialization thanks to ancestor reinforcement.
  EXPECT_GT(r->sims.ssim(qty, quantity), 0.5);
  EXPECT_GE(r->sims.wsim(qty, quantity), 0.5);
}

TEST(TreeMatchTest, WsimIsConvexMix) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  for (TreeNodeId a = 0; a < f.tree1->num_nodes(); ++a) {
    for (TreeNodeId b = 0; b < f.tree2->num_nodes(); ++b) {
      EXPECT_GE(r->sims.wsim(a, b), 0.0);
      EXPECT_LE(r->sims.wsim(a, b), 1.0);
      EXPECT_GE(r->sims.ssim(a, b), 0.0);
      EXPECT_LE(r->sims.ssim(a, b), 1.0);
    }
  }
}

TEST(TreeMatchTest, LeafCountPruningSkipsLopsidedPairs) {
  // A 1-leaf container vs an 8-leaf container exceeds the 2x ratio.
  XmlSchemaBuilder b1("S1");
  ElementId small = b1.AddElement(b1.root(), "Small");
  b1.AddAttribute(small, "x", DataType::kInteger);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId big = b2.AddElement(b2.root(), "Big");
  for (int i = 0; i < 8; ++i) {
    b2.AddAttribute(big, "c" + std::to_string(i), DataType::kInteger);
  }
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();
  auto r = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                     {});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.pairs_pruned_leaf_count, 0);

  TreeMatchOptions no_prune;
  no_prune.leaf_count_ratio = 0.0;
  auto r2 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      no_prune);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.pairs_pruned_leaf_count, 0);
  EXPECT_GT(r2->stats.pairs_compared, r->stats.pairs_compared);
}

TEST(TreeMatchTest, OptionalDiscountRaisesSsim) {
  // S1.Box{a} vs S2.Box{a, opt1..opt2 optional}: with the discount the
  // unmatched optional leaves do not dilute ssim.
  XmlSchemaBuilder b1("S1");
  ElementId box1 = b1.AddElement(b1.root(), "Box");
  b1.AddAttribute(box1, "alpha", DataType::kInteger);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId box2 = b2.AddElement(b2.root(), "Box");
  b2.AddAttribute(box2, "alpha", DataType::kInteger);
  b2.AddAttribute(box2, "extra", DataType::kBinary, /*optional=*/true);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions with;
  with.optional_discount = true;
  TreeMatchOptions without;
  without.optional_discount = false;
  auto r1 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      with);
  auto r2 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      without);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  TreeNodeId n1 = FindNode(t1, "S1.Box");
  TreeNodeId n2 = FindNode(t2, "S2.Box");
  EXPECT_GT(r1->sims.ssim(n1, n2), r2->sims.ssim(n1, n2));
  // With the discount the single required pair dominates: ssim 1.
  EXPECT_DOUBLE_EQ(r1->sims.ssim(n1, n2), 1.0);
}

TEST(TreeMatchTest, DepthLimitedFrontierDegradesToChildren) {
  // With max_leaf_depth=1 TreeMatch uses immediate children, the
  // alternative design Section 6 argues against. Nested-vs-flat matching
  // should get WORSE.
  XmlSchemaBuilder b1("S1");
  ElementId cust1 = b1.AddElement(b1.root(), "Customer");
  ElementId name1 = b1.AddElement(cust1, "Name");
  b1.AddAttribute(name1, "First", DataType::kString);
  b1.AddAttribute(name1, "Last", DataType::kString);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId cust2 = b2.AddElement(b2.root(), "Customer");
  b2.AddAttribute(cust2, "First", DataType::kString);
  b2.AddAttribute(cust2, "Last", DataType::kString);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions leaves;
  TreeMatchOptions children;
  children.max_leaf_depth = 1;
  auto r_leaves = TreeMatch(t1, t2, lres->lsim,
                            TypeCompatibilityTable::Default(), leaves);
  auto r_children = TreeMatch(t1, t2, lres->lsim,
                              TypeCompatibilityTable::Default(), children);
  ASSERT_TRUE(r_leaves.ok());
  ASSERT_TRUE(r_children.ok());
  TreeNodeId c1 = FindNode(t1, "S1.Customer");
  TreeNodeId c2 = FindNode(t2, "S2.Customer");
  EXPECT_GE(r_leaves->sims.ssim(c1, c2), r_children->sims.ssim(c1, c2));
}

TEST(TreeMatchTest, OptionValidation) {
  Fixture f;
  TreeMatchOptions bad;
  bad.th_low = 0.9;  // violates th_low <= th_accept
  EXPECT_TRUE(f.Run(bad).status().IsInvalidArgument());
  TreeMatchOptions bad2;
  bad2.c_inc = 0.5;
  EXPECT_TRUE(f.Run(bad2).status().IsInvalidArgument());
  TreeMatchOptions bad3;
  bad3.c_dec = 0.0;
  EXPECT_TRUE(f.Run(bad3).status().IsInvalidArgument());
  TreeMatchOptions bad4;
  bad4.max_leaf_depth = -1;
  EXPECT_TRUE(f.Run(bad4).status().IsInvalidArgument());
}

TEST(TreeMatchTest, DimensionMismatchRejected) {
  Fixture f;
  auto t1 = BuildSchemaTree(f.s1).ValueOrDie();
  auto t2 = BuildSchemaTree(f.s2).ValueOrDie();
  Matrix<float> wrong(1, 1);
  auto r = TreeMatch(t1, t2, wrong, TypeCompatibilityTable::Default(), {});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TreeMatchTest, SkipLeavesFastPathOnNearIdenticalSchemas) {
  // Section 8.4 last paragraph: when immediate children match very well,
  // the leaf scan is skipped. Identical schemas trigger it everywhere.
  XmlSchemaBuilder b1("S1");
  ElementId a1 = b1.AddElement(b1.root(), "Box");
  ElementId m1 = b1.AddElement(a1, "Mid");
  b1.AddAttribute(m1, "x", DataType::kInteger);
  b1.AddAttribute(m1, "y", DataType::kString);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId a2 = b2.AddElement(b2.root(), "Box");
  ElementId m2 = b2.AddElement(a2, "Mid");
  b2.AddAttribute(m2, "x", DataType::kInteger);
  b2.AddAttribute(m2, "y", DataType::kString);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions fast;
  fast.skip_leaves_threshold = 0.9;
  auto r_fast = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), fast);
  ASSERT_TRUE(r_fast.ok());
  EXPECT_GT(r_fast->stats.leaf_scans_skipped, 0);

  auto r_slow = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), {});
  ASSERT_TRUE(r_slow.ok());
  EXPECT_EQ(r_slow->stats.leaf_scans_skipped, 0);
  // The accepted links agree between the fast path and the full scan.
  for (TreeNodeId a = 0; a < t1.num_nodes(); ++a) {
    for (TreeNodeId b = 0; b < t2.num_nodes(); ++b) {
      EXPECT_EQ(r_fast->sims.wsim(a, b) >= 0.5,
                r_slow->sims.wsim(a, b) >= 0.5)
          << t1.PathName(a) << " vs " << t2.PathName(b);
    }
  }
}

TEST(TreeMatchTest, SkipLeavesThresholdValidated) {
  Fixture f;
  TreeMatchOptions bad;
  bad.skip_leaves_threshold = 1.5;
  EXPECT_TRUE(f.Run(bad).status().IsInvalidArgument());
}

// ---------------------------------------------------------- lazy expansion --

/// Shared-type schema matched against a flat schema; lazy and eager must
/// produce the same accepted leaf links.
TEST(TreeMatchTest, LazyExpansionPreservesLeafDecisions) {
  XmlSchemaBuilder b1("S1");
  ElementId addr_type = b1.AddComplexType("AddressType");
  b1.AddAttribute(addr_type, "Street", DataType::kString);
  b1.AddAttribute(addr_type, "City", DataType::kString);
  for (const char* ctx : {"ShipTo", "BillTo"}) {
    ElementId e = b1.AddElement(b1.root(), ctx);
    ElementId a = b1.AddElement(e, "Address");
    b1.SetType(a, addr_type);
  }
  Schema s1 = std::move(b1).Build();

  XmlSchemaBuilder b2("S2");
  for (const char* ctx : {"DeliverTo", "InvoiceTo"}) {
    ElementId e = b2.AddElement(b2.root(), ctx);
    b2.AddAttribute(e, "Street", DataType::kString);
    b2.AddAttribute(e, "City", DataType::kString);
  }
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions eager;
  TreeMatchOptions lazy;
  lazy.lazy_expansion = true;
  auto r_eager = TreeMatch(t1, t2, lres->lsim,
                           TypeCompatibilityTable::Default(), eager);
  auto r_lazy = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), lazy);
  ASSERT_TRUE(r_eager.ok());
  ASSERT_TRUE(r_lazy.ok());
  EXPECT_GT(r_lazy->stats.pairs_skipped_lazy, 0);
  EXPECT_LT(r_lazy->stats.pairs_compared, r_eager->stats.pairs_compared);

  // Accepted leaf links must agree.
  for (TreeNodeId a = 0; a < t1.num_nodes(); ++a) {
    if (!t1.IsLeaf(a)) continue;
    for (TreeNodeId b = 0; b < t2.num_nodes(); ++b) {
      if (!t2.IsLeaf(b)) continue;
      bool strong_eager = r_eager->sims.wsim(a, b) >= 0.5;
      bool strong_lazy = r_lazy->sims.wsim(a, b) >= 0.5;
      EXPECT_EQ(strong_eager, strong_lazy)
          << t1.PathName(a) << " vs " << t2.PathName(b);
    }
  }
}

// --------------------------------------------------------------- recompute --

TEST(TreeMatchTest, RecomputeRefreshesNonLeafSimilarities) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  TreeMatchResult result = std::move(r).ValueOrDie();
  TreeNodeId i1 = FindNode(*f.tree1, "S1.Item");
  TreeNodeId i2 = FindNode(*f.tree2, "S2.Item");
  double before = result.sims.ssim(i1, i2);
  ASSERT_TRUE(RecomputeNonLeafSimilarities(*f.tree1, *f.tree2, {}, &result)
                  .ok());
  double after = result.sims.ssim(i1, i2);
  // The recompute should not lower a fully-matched container's ssim.
  EXPECT_GE(after, before);
  EXPECT_DOUBLE_EQ(after, 1.0);
}

TEST(TreeMatchTest, RecomputeDimensionMismatchRejected) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  TreeMatchResult result = std::move(r).ValueOrDie();
  XmlSchemaBuilder other("Other");
  Schema s = std::move(other).Build();
  auto tree = BuildSchemaTree(s).ValueOrDie();
  EXPECT_TRUE(RecomputeNonLeafSimilarities(tree, *f.tree2, {}, &result)
                  .IsInvalidArgument());
}

// ------------------------------------------- engine vs reference oracle --

/// One option variant inside the engine's supported subset.
struct OracleVariant {
  const char* name;
  TreeMatchOptions options;
};

std::vector<OracleVariant> OracleVariants() {
  TreeMatchOptions no_prune;
  no_prune.leaf_count_ratio = 0.0;
  TreeMatchOptions no_discount;
  no_discount.optional_discount = false;
  TreeMatchOptions th_low_accept;
  th_low_accept.th_accept = 0.4;
  TreeMatchOptions th_high_accept;
  th_high_accept.th_accept = 0.6;
  // Increase-heavy: more pairs clear th_high and each increase is steeper,
  // so the cold sweep sets many clear strong-link bits.
  TreeMatchOptions increase_heavy;
  increase_heavy.th_high = 0.5;
  increase_heavy.c_inc = 1.5;
  // Unit factors: the fired direction scales nothing, and no bit may move.
  TreeMatchOptions unit_inc;
  unit_inc.c_inc = 1.0;
  TreeMatchOptions unit_dec;
  unit_dec.c_dec = 1.0;
  // Link strength from lsim alone, or from ssim alone.
  TreeMatchOptions lsim_only;
  lsim_only.wstruct_leaf = 0.0;
  TreeMatchOptions ssim_only;
  ssim_only.wstruct_leaf = 1.0;
  return {{"defaults (leaf_count_ratio 2)", {}},
          {"leaf_count_ratio 0", no_prune},
          {"optional_discount off", no_discount},
          {"th_accept 0.4", th_low_accept},
          {"th_accept 0.6", th_high_accept},
          {"th_high 0.5, c_inc 1.5", increase_heavy},
          {"c_inc 1.0", unit_inc},
          {"c_dec 1.0", unit_dec},
          {"wstruct_leaf 0.0", lsim_only},
          {"wstruct_leaf 1.0", ssim_only}};
}

/// A cold TreeMatch + RecomputeNonLeafSimilarities must equal the reference
/// sweep + recompute bit for bit, after the sweep and after the recompute.
void ExpectColdEngineMatchesReference(const Schema& source,
                                      const Schema& target,
                                      const std::string& label) {
  Thesaurus th = DefaultThesaurus();
  auto lres = LinguisticMatcher(&th, {}).Match(source, target);
  ASSERT_TRUE(lres.ok()) << label;
  auto t1 = BuildSchemaTree(source);
  auto t2 = BuildSchemaTree(target);
  ASSERT_TRUE(t1.ok() && t2.ok()) << label;
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  for (const OracleVariant& v : OracleVariants()) {
    const TreeMatchOptions& opts = v.options;
    ASSERT_TRUE(SupportsIncrementalTreeMatch(opts)) << v.name;
    const std::string context = label + " / " + v.name;
    auto got = TreeMatch(*t1, *t2, lres->lsim, types, opts);
    auto want = TreeMatchReference(*t1, *t2, lres->lsim, types, opts);
    ASSERT_TRUE(got.ok() && want.ok()) << context;
    ExpectIdenticalStructural(*got, *want, context + " after the sweep");
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(got->stats.pairs_compared, want->stats.pairs_compared)
        << context;
    EXPECT_EQ(got->stats.pairs_pruned_leaf_count,
              want->stats.pairs_pruned_leaf_count)
        << context;
    // The engine's cold scans count 64-bit words of strong-link bits, the
    // reference counts leaf pairs; only whether any scan ran is comparable.
    EXPECT_EQ(got->stats.link_tests > 0, want->stats.link_tests > 0)
        << context;
    EXPECT_EQ(got->stats.scale_ops, want->stats.scale_ops) << context;
    EXPECT_EQ(got->stats.increases_applied, want->stats.increases_applied)
        << context;
    EXPECT_EQ(got->stats.decreases_applied, want->stats.decreases_applied)
        << context;
    ASSERT_TRUE(RecomputeNonLeafSimilarities(*t1, *t2, opts, &*got).ok());
    ASSERT_TRUE(
        RecomputeNonLeafSimilaritiesReference(*t1, *t2, opts, &*want).ok());
    ExpectIdenticalStructural(*got, *want, context + " after the recompute");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineOracleTest, Fig2) {
  Dataset d = Fig2Dataset();
  ExpectColdEngineMatchesReference(d.source, d.target, "Fig2");
}

TEST(EngineOracleTest, CidxExcel) {
  auto d = CidxExcelDataset();
  ASSERT_TRUE(d.ok());
  ExpectColdEngineMatchesReference(d->source, d->target, "CIDX-Excel");
}

TEST(EngineOracleTest, RdbStarJoinViews) {
  auto d = RdbStarDataset();
  ASSERT_TRUE(d.ok());
  // The join views make the tree a DAG: some node's leaves are not one
  // contiguous dense range, which the engine must scan leaf by leaf.
  auto tree = BuildSchemaTree(d->source);
  ASSERT_TRUE(tree.ok());
  LeafIndex leaves(*tree);
  int non_contiguous = 0;
  for (TreeNodeId n = 0; n < tree->num_nodes(); ++n) {
    if (!leaves.range_contiguous(n)) ++non_contiguous;
  }
  EXPECT_GT(non_contiguous, 0);
  ExpectColdEngineMatchesReference(d->source, d->target, "RDB-Star");
}

TEST(EngineOracleTest, CanonicalExamples) {
  for (int test = 1; test <= 6; ++test) {
    auto d = CanonicalExample(test);
    ASSERT_TRUE(d.ok()) << test;
    ExpectColdEngineMatchesReference(d->source, d->target,
                                     "canonical " + std::to_string(test));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EngineOracleTest, SeededSyntheticPairs) {
  struct Shape {
    int elements;
    uint64_t seed;
  };
  // 256 elements is the size the cold_match benchmark workload matches.
  for (const Shape& shape :
       {Shape{40, 1}, Shape{90, 2}, Shape{160, 3}, Shape{256, 4}}) {
    SyntheticOptions opt;
    opt.num_elements = shape.elements;
    opt.seed = shape.seed;
    SyntheticPair p = GenerateSyntheticPair(opt);
    ExpectColdEngineMatchesReference(
        p.source, p.target,
        "synthetic " + std::to_string(shape.elements) + " seed " +
            std::to_string(shape.seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cupid
