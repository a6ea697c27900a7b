// MatchSession correctness: after any edit stream, Rematch() must be
// bit-identical to a from-scratch CupidMatcher run on the edited schemas —
// the warm start may only skip work, never change results. Random edit
// streams drive every edit kind through the session and compare lsim, node
// similarities and both mappings value-for-value at every step, one stream
// at a time and four at once over a shared LsimCache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cupid_matcher.h"
#include "core/match_pipeline.h"
#include "eval/datasets.h"
#include "eval/synthetic.h"
#include "incremental/match_session.h"
#include "incremental/schema_edit.h"
#include "linguistic/lsim_cache.h"
#include "schema/schema_builder.h"
#include "tests/match_diff_testutil.h"
#include "thesaurus/default_thesaurus.h"
#include "util/random.h"

namespace cupid {
namespace {

/// What an edit stream's session results are compared against after every
/// Rematch.
enum class Oracle {
  kCupidMatcher,  ///< a cold CupidMatcher::Match
  kReference,     ///< ReferenceMatch: the naive linguistic oracle
};

/// Drives `num_edits` random edits through a session over `cache` (null =
/// the session's own), asserting bitwise equality with from-scratch
/// matching after every Rematch.
void RunEditStream(const Thesaurus* thesaurus, const CupidConfig& config,
                   uint64_t seed, int num_edits, Oracle oracle,
                   std::shared_ptr<LsimCache> cache = nullptr) {
  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = seed;
  SyntheticPair pair = GenerateSyntheticPair(opt);

  MatchSession session(thesaurus, pair.source, pair.target, config,
                       std::move(cache));
  CupidMatcher scratch(thesaurus, config);
  SplitMix64 rng(seed * 7919 + 13);

  for (int step = 0; step <= num_edits; ++step) {
    if (step > 0) {
      SchemaEdit edit =
          RandomSessionEdit(&rng, session.source(), session.target(), step);
      ASSERT_TRUE(session.ApplyEdit(edit).ok())
          << "seed " << seed << " step " << step << " path " << edit.path;
    }
    auto inc = session.Rematch();
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    auto ref = oracle == Oracle::kReference
                   ? ReferenceMatch(thesaurus, config, session.source(),
                                    session.target())
                   : scratch.Match(session.source(), session.target());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ExpectIdenticalResults(**inc, *ref,
                    "seed " + std::to_string(seed) + " step " +
                        std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MatchSessionPropertyTest, EditStreamBitIdenticalSingleThread) {
  Thesaurus thesaurus = DefaultThesaurus();
  for (uint64_t seed : {1u, 2u, 3u}) {
    RunEditStream(&thesaurus, CupidConfig(), seed, 12, Oracle::kCupidMatcher);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(MatchSessionPropertyTest, EditStreamBitIdenticalMultiThread) {
  // Four edit streams on four threads share one LsimCache, as a service's
  // concurrent sessions do: fills by one stream must never change another's
  // results.
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  auto cache = std::make_shared<LsimCache>(&thesaurus, config.linguistic);
  std::vector<std::thread> streams;
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    streams.emplace_back([&, seed] {
      RunEditStream(&thesaurus, config, seed, 12, Oracle::kCupidMatcher,
                    cache);
    });
  }
  for (std::thread& t : streams) t.join();
}

TEST(MatchSessionPropertyTest, EditStreamBitIdenticalNaiveLinguistic) {
  // The session runs the cached linguistic pipeline; the naive reference
  // path must still agree bit for bit.
  Thesaurus thesaurus = DefaultThesaurus();
  RunEditStream(&thesaurus, CupidConfig(), 31, 8, Oracle::kReference);
}

TEST(MatchPipelineTest, WarmSweepSnapshotEqualsColdSnapshot) {
  // A warm run's post-sweep ssim is the next warm run's past, so it must
  // equal a cold sweep's cell for cell, pruned pairs included: batches of
  // size-changing adds and removes flip leaf-count prune decisions, and a
  // cell pruned now must read 0 whatever the past stored there.
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  LsimCache cache(&thesaurus, config.linguistic);
  for (uint64_t seed : {1u, 2u, 3u}) {
    SyntheticOptions opt;
    opt.num_elements = 60;
    opt.seed = seed;
    SyntheticPair pair = GenerateSyntheticPair(opt);
    MatchSnapshot snapshot;
    auto first = RunMatchPipeline(
        &thesaurus, config,
        {std::make_shared<const Schema>(pair.source), nullptr},
        {std::make_shared<const Schema>(pair.target), nullptr}, {}, &cache,
        nullptr, &snapshot, "test.cold");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto result = std::make_unique<MatchResult>(std::move(*first));
    SplitMix64 rng(seed * 7919 + 13);
    for (int step = 1; step <= 8; ++step) {
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      // Only edited sides are copied, so an unedited side keeps its
      // artifact as a session's would, and each edited side carries its
      // elements' ids in the previous schema, composed over the edits.
      const Schema& source = *snapshot.source->schema;
      const Schema& target = *snapshot.target->schema;
      std::shared_ptr<Schema> next_source, next_target;
      std::vector<ElementId> source_ids, target_ids;
      for (int k = 0; k < 3; ++k) {
        SchemaEdit edit = RandomSessionEdit(
            &rng, next_source ? *next_source : source,
            next_target ? *next_target : target, step * 10 + k);
        const bool src = edit.side == EditSide::kSource;
        std::shared_ptr<Schema>& next = src ? next_source : next_target;
        std::vector<ElementId>& ids = src ? source_ids : target_ids;
        if (!next) {
          next = std::make_shared<Schema>(src ? source : target);
          for (ElementId e = 0; e < next->num_elements(); ++e) {
            ids.push_back(e);
          }
        }
        std::vector<ElementId> prior;
        ASSERT_TRUE(ApplySchemaEdit(next.get(), edit, &prior).ok())
            << context << " path " << edit.path;
        for (ElementId& p : prior) {
          if (p != kNoElement) p = ids[static_cast<size_t>(p)];
        }
        ids = std::move(prior);
      }
      auto side = [](const std::shared_ptr<Schema>& next,
                     const std::shared_ptr<const SchemaArtifact>& cur) {
        return next ? MatchSide{next, nullptr} : MatchSide{cur->schema, cur};
      };
      const MatchSide s = side(next_source, snapshot.source);
      const MatchSide t = side(next_target, snapshot.target);
      MatchSnapshot cold;
      auto scratch = RunMatchPipeline(&thesaurus, config, {s.schema, nullptr},
                                      {t.schema, nullptr}, {}, nullptr,
                                      nullptr, &cold, "test.cold");
      ASSERT_TRUE(scratch.ok()) << context << ": "
                                << scratch.status().ToString();
      MatchPast past{result.get(), &snapshot,
                     next_source ? &source_ids : nullptr,
                     next_target ? &target_ids : nullptr};
      MatchSnapshot warm;
      auto run = RunMatchPipeline(&thesaurus, config, s, t, {}, &cache, &past,
                                  &warm, "test.warm");
      ASSERT_TRUE(run.ok()) << context << ": " << run.status().ToString();
      ASSERT_TRUE(warm.warm) << context;
      ASSERT_EQ(warm.sweep_ssim.rows(), cold.sweep_ssim.rows()) << context;
      ASSERT_EQ(warm.sweep_ssim.cols(), cold.sweep_ssim.cols()) << context;
      for (int64_t ns = 0; ns < warm.sweep_ssim.rows(); ++ns) {
        for (int64_t nt = 0; nt < warm.sweep_ssim.cols(); ++nt) {
          ASSERT_EQ(warm.sweep_ssim(ns, nt), cold.sweep_ssim(ns, nt))
              << context << " sweep_ssim(" << ns << "," << nt << ")";
        }
      }
      ExpectIdenticalResults(*run, *scratch, context);
      if (::testing::Test::HasFatalFailure()) return;
      result = std::make_unique<MatchResult>(std::move(*run));
      snapshot = std::move(warm);
    }
  }
}

TEST(MatchSessionPropertyTest, UnsupportedOptionsFallBackToFullRecompute) {
  CupidConfig config;
  config.tree_match.lazy_expansion = true;  // outside the warm-start subset
  SyntheticOptions opt;
  opt.num_elements = 40;
  opt.seed = 5;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  MatchSession session(&thesaurus, pair.source, pair.target, config);
  ASSERT_TRUE(session.Rematch().ok());
  ASSERT_TRUE(session
                  .ApplyEdit(SchemaEdit::RenameElement(
                      EditSide::kSource, session.source().PathName(1), "Qty"))
                  .ok());
  auto r = session.Rematch();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(session.last_stats().incremental);
  CupidMatcher scratch(&thesaurus, config);
  auto ref = scratch.Match(session.source(), session.target());
  ASSERT_TRUE(ref.ok());
  ExpectIdenticalResults(**r, *ref, "lazy-expansion fallback");
}

// A leaf-count ratio in (0, 1) prunes even equal-size non-leaf pairs, so a
// leaf that gains a child turns a compared leaf pair into a pruned pair
// without any leaf-count change the warm start could see. Section 6 only
// means ratios of at least 1 ("within a factor of 2"); smaller positive
// ones are rejected up front.
TEST(MatchSessionTest, LeafCountRatioBelowOneIsInvalidArgument) {
  for (double ratio : {0.5, 0.99}) {
    CupidConfig config;
    config.tree_match.leaf_count_ratio = ratio;
    EXPECT_TRUE(ValidateTreeMatchOptions(config.tree_match)
                    .IsInvalidArgument())
        << ratio;
    EXPECT_TRUE(config.Validate().IsInvalidArgument()) << ratio;
  }
  for (double ratio : {0.0, 1.0, 2.0, 2.5}) {
    CupidConfig config;
    config.tree_match.leaf_count_ratio = ratio;
    EXPECT_TRUE(ValidateTreeMatchOptions(config.tree_match).ok()) << ratio;
    EXPECT_TRUE(config.Validate().ok()) << ratio;
  }
  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = 1;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  config.tree_match.leaf_count_ratio = 0.5;
  MatchSession session(&thesaurus, pair.source, pair.target, config);
  EXPECT_TRUE(session.Rematch().status().IsInvalidArgument());
}

TEST(MatchSessionTest, SingleRenameUsesWarmStartAndReusesPairs) {
  SyntheticOptions opt;
  opt.num_elements = 80;
  opt.seed = 9;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  MatchSession session(&thesaurus, pair.source, pair.target);
  ASSERT_TRUE(session.Rematch().ok());
  EXPECT_FALSE(session.last_stats().incremental);  // cold start

  ElementId leaf = kNoElement;
  for (ElementId id = 1; id < session.source().num_elements(); ++id) {
    if (session.source().IsLeaf(id)) leaf = id;
  }
  ASSERT_NE(leaf, kNoElement);
  ASSERT_TRUE(session
                  .ApplyEdit(SchemaEdit::RenameElement(
                      EditSide::kSource, session.source().PathName(leaf),
                      "RenamedLeaf"))
                  .ok());
  ASSERT_TRUE(session.Rematch().ok());
  EXPECT_TRUE(session.last_stats().incremental);
  EXPECT_GT(session.last_stats().tree_match.pairs_reused, 0);
  // Most of the name-level similarity table must have survived the edit.
  EXPECT_GT(session.last_stats().lsim_cached_pairs, 0);
}

// A target-only edit leaves the source schema untouched, so the new result
// takes over the previous source tree instead of a copy: its stored paths
// are the very same string objects. Renames keep the node count and adds
// change it, so both node-correspondence branches run on the edited side.
TEST(MatchSessionTest, TargetEditHandsOverTheSourceTree) {
  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = 12;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  MatchSession session(&thesaurus, pair.source, pair.target, config);
  auto r0 = session.Rematch();
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  const std::string* root_path = &(*r0)->source_tree.PathName(0);
  CupidMatcher scratch(&thesaurus, config);

  ElementId leaf = kNoElement;
  for (ElementId id = 1; id < session.target().num_elements(); ++id) {
    if (session.target().IsLeaf(id)) leaf = id;
  }
  ASSERT_NE(leaf, kNoElement);
  Element added;
  added.name = "ShipToCity";
  added.kind = ElementKind::kAtomic;
  added.data_type = DataType::kString;
  const SchemaEdit edits[] = {
      SchemaEdit::RenameElement(EditSide::kTarget,
                                session.target().PathName(leaf), "Amount"),
      SchemaEdit::AddElement(EditSide::kTarget, session.target().PathName(0),
                             added)};
  for (const SchemaEdit& edit : edits) {
    ASSERT_TRUE(session.ApplyEdit(edit).ok()) << edit.path;
    auto r = session.Rematch();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(session.last_stats().incremental);
    EXPECT_EQ(&(*r)->source_tree.PathName(0), root_path) << edit.path;
    auto ref = scratch.Match(session.source(), session.target());
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ExpectIdenticalResults(**r, *ref, "target edit " + edit.path);
  }
}

TEST(SchemaEditTest, ApplySchemaEditReportsPriorIds) {
  XmlSchemaBuilder b("S");
  const ElementId a = b.AddElement(b.root(), "A");
  b.AddAttribute(a, "X", DataType::kString);
  const ElementId c = b.AddElement(b.root(), "C");
  b.AddAttribute(c, "Y", DataType::kString);
  Schema schema = std::move(b).Build();
  std::vector<ElementId> prior;

  ASSERT_TRUE(ApplySchemaEdit(&schema,
                              SchemaEdit::RenameElement(EditSide::kSource,
                                                        "S.A.X", "Z"),
                              &prior)
                  .ok());
  EXPECT_EQ(prior, (std::vector<ElementId>{0, 1, 2, 3, 4}));

  Element leaf;
  leaf.name = "W";
  leaf.kind = ElementKind::kAtomic;
  leaf.data_type = DataType::kString;
  ASSERT_TRUE(
      ApplySchemaEdit(&schema,
                      SchemaEdit::AddElement(EditSide::kSource, "S.C", leaf),
                      &prior)
          .ok());
  EXPECT_EQ(prior, (std::vector<ElementId>{0, 1, 2, 3, 4, kNoElement}));

  ASSERT_TRUE(ApplySchemaEdit(&schema,
                              SchemaEdit::RemoveElement(EditSide::kSource,
                                                        "S.A"),
                              &prior)
                  .ok());
  EXPECT_EQ(prior, (std::vector<ElementId>{0, 3, 4, 5}));
  EXPECT_EQ(schema.PathName(3), "S.C.W");

  // A failed edit leaves the map as it was.
  EXPECT_TRUE(ApplySchemaEdit(&schema,
                              SchemaEdit::RemoveElement(EditSide::kSource,
                                                        "S.Nope"),
                              &prior)
                  .IsNotFound());
  EXPECT_EQ(prior, (std::vector<ElementId>{0, 3, 4, 5}));
}

// A removal compacts the surviving element ids. The edit's own id map
// keeps each survivor's identity, so the warm start gathers every
// surviving row, even where one containment path named two elements.
TEST(MatchSessionTest, RemovalKeepsExactElementIdentity) {
  XmlSchemaBuilder s("S");
  const ElementId order = s.AddElement(s.root(), "Order");
  for (int k = 0; k < 2; ++k) {
    const ElementId addr = s.AddElement(order, "Addr");
    s.AddAttribute(addr, "Street", DataType::kString);
    s.AddAttribute(addr, "City", DataType::kString);
  }
  XmlSchemaBuilder t("T");
  const ElementId po = t.AddElement(t.root(), "PurchaseOrder");
  const ElementId ship = t.AddElement(po, "ShipTo");
  t.AddAttribute(ship, "Street", DataType::kString);
  t.AddAttribute(ship, "City", DataType::kString);
  t.AddAttribute(po, "Total", DataType::kDecimal);
  Thesaurus thesaurus = DefaultThesaurus();
  MatchSession session(&thesaurus, std::move(s).Build(),
                       std::move(t).Build());
  ASSERT_TRUE(session.Rematch().ok());

  ASSERT_TRUE(session
                  .ApplyEdit(SchemaEdit::RemoveElement(EditSide::kSource,
                                                       "S.Order.Addr"))
                  .ok());
  ASSERT_EQ(session.source().num_elements(), 5);
  auto r = session.Rematch();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(session.last_stats().incremental);
  EXPECT_EQ(session.last_stats().lsim_gathered_rows, 5);
  CupidMatcher scratch(&thesaurus, CupidConfig{});
  auto ref = scratch.Match(session.source(), session.target());
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ExpectIdenticalResults(**r, *ref, "removal of one of two Addr");
}

TEST(MatchSessionTest, ServesCachedResultWhenUnedited) {
  SyntheticOptions opt;
  opt.num_elements = 30;
  opt.seed = 4;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  MatchSession session(&thesaurus, pair.source, pair.target);
  auto r1 = session.Rematch();
  ASSERT_TRUE(r1.ok());
  auto r2 = session.Rematch();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);  // same owned object, no recompute
}

TEST(MatchSessionTest, EditErrors) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticOptions opt;
  opt.num_elements = 20;
  opt.seed = 6;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  std::string root = pair.source.name();
  MatchSession session(&thesaurus, std::move(pair.source),
                       std::move(pair.target));

  EXPECT_FALSE(session
                   .ApplyEdit(SchemaEdit::RenameElement(
                       EditSide::kSource, "No.Such.Path", "X"))
                   .ok());
  EXPECT_FALSE(
      session.ApplyEdit(SchemaEdit::RemoveElement(EditSide::kSource, root))
          .ok());
  EXPECT_FALSE(session
                   .ApplyEdit(SchemaEdit::RenameElement(EditSide::kSource,
                                                        root, ""))
                   .ok());
  // RefInt elements cannot get reference edges through SchemaEdit, so
  // adding one must fail up front instead of detonating at Rematch.
  Element refint;
  refint.name = "DanglingRef";
  refint.kind = ElementKind::kRefInt;
  EXPECT_FALSE(
      session.ApplyEdit(SchemaEdit::AddElement(EditSide::kSource, root,
                                               std::move(refint)))
          .ok());
  // Errors must not have corrupted the schemas.
  EXPECT_TRUE(session.Rematch().ok());
}

TEST(MatchSessionTest, FailedRematchKeepsEditedSchemas) {
  SyntheticOptions opt;
  opt.num_elements = 20;
  opt.seed = 8;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  MatchSession session(&thesaurus, pair.source, pair.target, config);
  ASSERT_TRUE(session.Rematch().ok());

  std::string renamed = session.source().PathName(1);
  ASSERT_TRUE(session
                  .ApplyEdit(SchemaEdit::RenameElement(EditSide::kSource,
                                                       renamed, "Kept"))
                  .ok());
  // Sabotage the config so the next Rematch fails before matching.
  const_cast<CupidConfig&>(session.config()).tree_match.th_accept = 7.0;
  EXPECT_FALSE(session.Rematch().ok());
  // The queued edit must survive the failure...
  EXPECT_EQ(session.source().element(1).name, "Kept");
  // ...and a repaired config must pick it up.
  const_cast<CupidConfig&>(session.config()).tree_match.th_accept = 0.5;
  auto r = session.Rematch();
  ASSERT_TRUE(r.ok());
  CupidMatcher scratch(&thesaurus, session.config());
  auto ref = scratch.Match(session.source(), session.target());
  ASSERT_TRUE(ref.ok());
  ExpectIdenticalResults(**r, *ref, "post-failure rematch");
}

TEST(MatchSessionTest, JoinViewSchemasFallBackButStayCorrect) {
  // RDB-style schemas carry referential constraints; their trees get
  // join-view nodes, which the warm start conservatively refuses — results
  // must still match from-scratch exactly.
  Thesaurus thesaurus = RdbStarThesaurus();
  auto rdb = RdbSchema();
  auto star = StarSchema();
  ASSERT_TRUE(rdb.ok() && star.ok());
  CupidConfig config;
  MatchSession session(&thesaurus, *rdb, *star, config);
  ASSERT_TRUE(session.Rematch().ok());
  ASSERT_TRUE(session
                  .ApplyEdit(SchemaEdit::RenameElement(
                      EditSide::kSource, "RDB.Products.ProductName",
                      "ItemName"))
                  .ok());
  auto r = session.Rematch();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(session.last_stats().incremental);
  CupidMatcher scratch(&thesaurus, config);
  auto ref = scratch.Match(session.source(), session.target());
  ASSERT_TRUE(ref.ok());
  ExpectIdenticalResults(**r, *ref, "join-view fallback");
}

}  // namespace
}  // namespace cupid
