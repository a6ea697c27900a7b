// Tests for src/service: SchemaRepository (versioning, lineage,
// persistence), MatchService (bit-identical serving across the cached,
// session and direct paths, under concurrency), and JobScheduler
// (bounded admission, per-job stats).
//
// The service-level contract mirrors the incremental one: no matter which
// warm path served a request, the mappings must equal a from-scratch
// CupidMatcher::Match on the same schema versions value-for-value.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/datasets.h"
#include "eval/synthetic.h"
#include "importers/native_format.h"
#include "schema/schema_printer.h"
#include "obs/metrics.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "storage/fault_injection_env.h"
#include "thesaurus/default_thesaurus.h"
#include "util/strings.h"

namespace cupid {

/// Test backdoor into JobScheduler's generic admission path, used to pin
/// workers deterministically with closures the test controls.
class JobSchedulerTestPeer {
 public:
  static Result<std::shared_ptr<MatchJob>> SubmitTask(
      JobScheduler* scheduler,
      std::function<Result<MatchResponse>()> task) {
    return scheduler->SubmitTask(std::move(task));
  }
};

namespace {

void ExpectMappingEqual(const Mapping& got, const Mapping& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.elements[i].source_path, want.elements[i].source_path)
        << context << " [" << i << "]";
    ASSERT_EQ(got.elements[i].target_path, want.elements[i].target_path)
        << context << " [" << i << "]";
    ASSERT_EQ(got.elements[i].wsim, want.elements[i].wsim)
        << context << " [" << i << "]";
    ASSERT_EQ(got.elements[i].ssim, want.elements[i].ssim)
        << context << " [" << i << "]";
    ASSERT_EQ(got.elements[i].lsim, want.elements[i].lsim)
        << context << " [" << i << "]";
  }
}

/// Asserts `response` matches a from-scratch CupidMatcher run on the
/// request's schema versions, leaf and non-leaf alike.
void ExpectIdenticalToDirect(const MatchResponse& response,
                             const SchemaRepository& repo,
                             const Thesaurus& thesaurus,
                             const CupidConfig& config,
                             const std::string& context) {
  auto source = repo.Get(response.source, response.source_version);
  auto target = repo.Get(response.target, response.target_version);
  ASSERT_TRUE(source.ok() && target.ok()) << context;
  CupidMatcher matcher(&thesaurus, config);
  auto ref = matcher.Match(**source, **target);
  ASSERT_TRUE(ref.ok()) << context << ": " << ref.status().ToString();
  ExpectMappingEqual(response.leaf_mapping, ref->leaf_mapping,
                     context + " leaf");
  ExpectMappingEqual(response.nonleaf_mapping, ref->nonleaf_mapping,
                     context + " nonleaf");
}

/// Edge lines sorted: reloading may renumber elements (a foreign key parsed
/// inline sits at a different id than one linked after all tables), which
/// permutes PrintSchemaEdges line order without changing the edge set.
std::vector<std::string> SortedEdges(const Schema& s) {
  std::vector<std::string> lines = SplitAny(PrintSchemaEdges(s), "\n");
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ------------------------------------------------------------- repository --

TEST(SchemaRepositoryTest, RegisterResolveVersions) {
  SchemaRepository repo;
  ASSERT_EQ(*repo.Register("po", Fig2Po()), 1);
  ASSERT_EQ(*repo.Register("po", Fig2Po()), 2);
  EXPECT_EQ(repo.LatestVersion("po"), 2);
  EXPECT_EQ(repo.LatestVersion("nosuch"), 0);

  auto latest = repo.Resolve("po");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version, 2);
  auto v1 = repo.Resolve("po", 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version, 1);
  EXPECT_TRUE(repo.Resolve("po", 3).status().IsNotFound());
  EXPECT_TRUE(repo.Resolve("nosuch").status().IsNotFound());
  EXPECT_FALSE(repo.Register("", Fig2Po()).ok());

  EXPECT_EQ(repo.Names(), std::vector<std::string>{"po"});
}

TEST(SchemaRepositoryTest, SnapshotsSurviveLaterMutations) {
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  auto v1 = repo.Get("po", 1);
  ASSERT_TRUE(v1.ok());
  std::string before = PrintSchema(**v1);
  ASSERT_TRUE(
      repo.ApplyEdit("po", SchemaEdit::RenameElement(EditSide::kSource,
                                                     "PO.POLines", "Lines"))
          .ok());
  // The v1 snapshot is immutable; only v2 carries the rename.
  EXPECT_EQ(PrintSchema(**v1), before);
  auto v2 = repo.Get("po", 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_NE(PrintSchema(**v2), before);
}

TEST(SchemaRepositoryTest, EditChainLineage) {
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(
      repo.ApplyEdit("po", SchemaEdit::RenameElement(EditSide::kSource,
                                                     "PO.POLines", "Lines"))
          .ok());
  ASSERT_TRUE(repo.ApplyEdit("po", SchemaEdit::ChangeDataType(
                                       EditSide::kSource, "PO.POShipTo.City",
                                       DataType::kText))
                  .ok());
  auto chain = repo.EditChain("po", 1, 3);
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0].kind, SchemaEdit::Kind::kRenameElement);
  EXPECT_EQ((*chain)[1].kind, SchemaEdit::Kind::kChangeDataType);
  auto empty = repo.EditChain("po", 2, 2);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(repo.EditChain("po", 3, 1).has_value());   // backwards
  EXPECT_FALSE(repo.EditChain("po", 0, 2).has_value());   // bad versions
  EXPECT_FALSE(repo.EditChain("nosuch", 1, 1).has_value());

  // A re-registration severs the lineage.
  ASSERT_EQ(*repo.Register("po", Fig2Po()), 4);
  EXPECT_FALSE(repo.EditChain("po", 3, 4).has_value());
  EXPECT_FALSE(repo.EditChain("po", 1, 4).has_value());
}

TEST(SchemaRepositoryTest, RejectsHostileNames) {
  // Names become session-key components ('\x1f'-joined) and on-disk file
  // names; control bytes and path separators must be rejected at the door.
  SchemaRepository repo;
  EXPECT_FALSE(repo.Register(std::string("a\x1f") + "b", Fig2Po()).ok());
  EXPECT_FALSE(repo.Register("../escape", Fig2Po()).ok());
  EXPECT_FALSE(repo.Register("a/b", Fig2Po()).ok());
  EXPECT_FALSE(repo.Register("a\\b", Fig2Po()).ok());
  EXPECT_FALSE(repo.Register(".", Fig2Po()).ok());
  EXPECT_FALSE(repo.Register("..", Fig2Po()).ok());
  EXPECT_TRUE(repo.Register("fine-name_2", Fig2Po()).ok());
}

TEST(SchemaRepositoryTest, LoadFromRejectsTraversingManifests) {
  std::string dir = (std::filesystem::path(::testing::TempDir()) /
                     "cupid_repo_hostile")
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream manifest(std::filesystem::path(dir) / "MANIFEST.jsonl");
    manifest << R"({"name":"x","version":1,"file":"../outside.cupid"})"
             << "\n";
  }
  EXPECT_FALSE(SchemaRepository::LoadFrom(dir).ok());
}

TEST(SchemaRepositoryTest, LoadFromRejectsNonIntegralVersions) {
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("x", Fig2Po()).ok());
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           "cupid_repo_versions")
                              .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(repo.SaveTo(dir).ok());
  const std::filesystem::path manifest_path =
      std::filesystem::path(dir) / "MANIFEST.jsonl";
  std::string manifest;
  {
    std::ifstream in(manifest_path);
    std::getline(in, manifest);
  }
  const std::string version = "\"version\":1,";
  ASSERT_NE(manifest.find(version), std::string::npos) << manifest;
  // Each used to truncate to version 1 or parent 0 and load.
  for (const std::string& field :
       {std::string("\"version\":4294967297,"),
        std::string("\"version\":1.5,"),
        std::string("\"version\":1,\"parent\":4294967296,"),
        std::string("\"version\":1,\"parent\":0.5,")}) {
    std::string line = manifest;
    line.replace(line.find(version), version.size(), field);
    {
      std::ofstream out(manifest_path, std::ios::trunc);
      out << line << "\n";
    }
    auto loaded = SchemaRepository::LoadFrom(dir);
    EXPECT_TRUE(loaded.status().IsParseError()) << line;
  }
  {
    std::ofstream out(manifest_path, std::ios::trunc);
    out << manifest << "\n";
  }
  EXPECT_TRUE(SchemaRepository::LoadFrom(dir).ok());
}

TEST(SchemaRepositoryTest, ApplyEditErrors) {
  SchemaRepository repo;
  EXPECT_TRUE(repo.ApplyEdit("nosuch", SchemaEdit::RenameElement(
                                           EditSide::kSource, "X", "Y"))
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  EXPECT_FALSE(
      repo.ApplyEdit("po", SchemaEdit::RenameElement(EditSide::kSource,
                                                     "No.Such.Path", "Y"))
          .ok());
  // Failed edits must not create versions.
  EXPECT_EQ(repo.LatestVersion("po"), 1);
}

TEST(SchemaRepositoryTest, PersistenceRoundTripAllImporterFormats) {
  std::string data = CUPID_DATA_DIR;
  SchemaRepository repo;
  // Every importer format, loaded exactly as a server would load them.
  ASSERT_TRUE(repo.RegisterFile("cidx", data + "/cidx.xml").ok());
  ASSERT_TRUE(repo.RegisterFile("excel", data + "/excel.xml").ok());
  ASSERT_TRUE(repo.RegisterFile("rdb", data + "/rdb.sql").ok());
  ASSERT_TRUE(repo.RegisterFile("star", data + "/star.sql").ok());
  ASSERT_TRUE(repo.RegisterFile("order", data + "/order.dtd").ok());
  ASSERT_TRUE(repo.RegisterFile("po", data + "/po.cupid").ok());
  // A second version so the manifest covers version chains.
  ASSERT_TRUE(
      repo.ApplyEdit("po", SchemaEdit::RenameElement(EditSide::kSource,
                                                     "PO.POLines", "Lines"))
          .ok());

  std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cupid_repo").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(repo.SaveTo(dir).ok());
  auto reloaded = SchemaRepository::LoadFrom(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  ASSERT_EQ(reloaded->Names(), repo.Names());
  for (const std::string& name : repo.Names()) {
    ASSERT_EQ(reloaded->LatestVersion(name), repo.LatestVersion(name));
    for (int v = 1; v <= repo.LatestVersion(name); ++v) {
      auto a = repo.Get(name, v);
      auto b = reloaded->Get(name, v);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(PrintSchema(**a), PrintSchema(**b)) << name << "@" << v;
      EXPECT_EQ(SortedEdges(**a), SortedEdges(**b)) << name << "@" << v;
    }
  }
  EXPECT_FALSE(SchemaRepository::LoadFrom(dir + "/nosuch").ok());
}

// ---------------------------------------------------------- match service --

struct ServiceFixture {
  ServiceFixture() : thesaurus(DefaultThesaurus()), service(&thesaurus, &repo) {
    EXPECT_TRUE(repo.Register("po", Fig2Po()).ok());
    EXPECT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  }

  MatchRequest Request(const CupidConfig& config = CupidConfig()) {
    MatchRequest request;
    request.source = "po";
    request.target = "order";
    request.config = config;
    return request;
  }

  Thesaurus thesaurus;
  SchemaRepository repo;
  MatchService service;
};

TEST(MatchServiceTest, ServesBitIdenticalMappings) {
  ServiceFixture fx;
  auto r1 = fx.service.Match(fx.Request());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1->result_cache_hit);
  EXPECT_FALSE(r1->session_reused);
  EXPECT_EQ(r1->source_version, 1);
  EXPECT_EQ(r1->target_version, 1);
  ExpectIdenticalToDirect(*r1, fx.repo, fx.thesaurus, CupidConfig(),
                          "cold");

  // Identical request: served from the result cache, same mappings.
  auto r2 = fx.service.Match(fx.Request());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->result_cache_hit);
  ExpectMappingEqual(r2->leaf_mapping, r1->leaf_mapping, "cache hit leaf");

  // Cache opt-out: recomputed on the warm session, still identical.
  MatchRequest no_cache = fx.Request();
  no_cache.use_result_cache = false;
  auto r3 = fx.service.Match(no_cache);
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->result_cache_hit);
  EXPECT_TRUE(r3->session_reused);
  ExpectIdenticalToDirect(*r3, fx.repo, fx.thesaurus, CupidConfig(),
                          "warm session");

  // Session opt-out: one-shot matcher, still identical.
  MatchRequest direct = fx.Request();
  direct.use_result_cache = false;
  direct.use_session = false;
  auto r4 = fx.service.Match(direct);
  ASSERT_TRUE(r4.ok());
  EXPECT_FALSE(r4->session_reused);
  ExpectIdenticalToDirect(*r4, fx.repo, fx.thesaurus, CupidConfig(),
                          "direct");

  MatchService::CacheStats stats = fx.service.cache_stats();
  EXPECT_EQ(stats.result_hits, 1);
  EXPECT_EQ(stats.sessions_created, 1);
  EXPECT_EQ(stats.sessions_reused, 1);
}

TEST(MatchServiceTest, RepositoryEditTakesIncrementalPath) {
  ServiceFixture fx;
  ASSERT_TRUE(fx.service.Match(fx.Request()).ok());  // warm the session

  ASSERT_TRUE(fx.repo
                  .ApplyEdit("po", SchemaEdit::RenameElement(
                                       EditSide::kSource,
                                       "PO.POLines.Item.Qty", "Quantity"))
                  .ok());
  auto r = fx.service.Match(fx.Request());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->source_version, 2);
  EXPECT_TRUE(r->session_reused);
  EXPECT_TRUE(r->incremental);  // the edit chain warm-started Rematch
  EXPECT_FALSE(r->result_cache_hit);
  EXPECT_GT(r->stats.tree_match.pairs_reused, 0);
  ExpectIdenticalToDirect(*r, fx.repo, fx.thesaurus, CupidConfig(),
                          "post-edit");

  // Multi-edit chain (two repository edits between requests).
  ASSERT_TRUE(fx.repo
                  .ApplyEdit("order", SchemaEdit::ChangeDataType(
                                          EditSide::kSource,
                                          "PurchaseOrder.Items.Item.Quantity",
                                          DataType::kInteger))
                  .ok());
  ASSERT_TRUE(fx.repo
                  .ApplyEdit("po", SchemaEdit::RenameElement(
                                       EditSide::kSource, "PO.POShipTo",
                                       "ShipDestination"))
                  .ok());
  auto r2 = fx.service.Match(fx.Request());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->incremental);
  ExpectIdenticalToDirect(*r2, fx.repo, fx.thesaurus, CupidConfig(),
                          "post-edit-chain");
  EXPECT_GE(fx.service.cache_stats().incremental_rematches, 2);
}

TEST(MatchServiceTest, ReRegistrationRebuildsCold) {
  ServiceFixture fx;
  ASSERT_TRUE(fx.service.Match(fx.Request()).ok());
  // Re-register (no edit lineage): the warm session must be discarded, not
  // fed a schema it cannot reconcile.
  ASSERT_TRUE(fx.repo.Register("po", Fig2Po()).ok());
  auto r = fx.service.Match(fx.Request());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->source_version, 2);
  EXPECT_FALSE(r->session_reused);
  EXPECT_FALSE(r->incremental);
  ExpectIdenticalToDirect(*r, fx.repo, fx.thesaurus, CupidConfig(),
                          "re-registered");
}

TEST(MatchServiceTest, ExplicitVersionsServeOldSnapshots) {
  ServiceFixture fx;
  ASSERT_TRUE(fx.repo
                  .ApplyEdit("po", SchemaEdit::RenameElement(
                                       EditSide::kSource,
                                       "PO.POLines.Item.Qty", "Quantity"))
                  .ok());
  MatchRequest old = fx.Request();
  old.source_version = 1;
  auto r = fx.service.Match(old);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->source_version, 1);
  ExpectIdenticalToDirect(*r, fx.repo, fx.thesaurus, CupidConfig(),
                          "pinned version");
  // Distinct cache keys: latest is not served from the pinned entry.
  auto latest = fx.service.Match(fx.Request());
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->source_version, 2);
  EXPECT_FALSE(latest->result_cache_hit);
}

TEST(MatchServiceTest, RecoveredRepositoryRewarmsIncrementalSessions) {
  // The edit lineage written to WAL + snapshot must survive a crash well
  // enough for MatchService to keep taking the incremental path: a session
  // warmed on version 1 of the *recovered* repository fast-forwards along
  // the recovered edit chain instead of rebuilding cold.
  FaultInjectionEnv env;
  {
    DurabilityOptions options;
    options.env = &env;
    auto repo = SchemaRepository::Recover("wal", options);
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    ASSERT_TRUE(repo->Register("po", Fig2Po()).ok());
    ASSERT_TRUE(repo->Register("order", Fig2PurchaseOrder()).ok());
    ASSERT_TRUE(repo->ApplyEdit("po", SchemaEdit::RenameElement(
                                          EditSide::kSource,
                                          "PO.POLines.Item.Qty", "Quantity"))
                    .ok());
    ASSERT_TRUE(repo->ApplyEdit("po", SchemaEdit::RenameElement(
                                          EditSide::kSource, "PO.POShipTo",
                                          "ShipDestination"))
                    .ok());
  }
  // The process dies without a clean shutdown; only synced bytes survive.
  env.Crash();
  env.Heal();

  DurabilityOptions options;
  options.env = &env;
  auto recovered = SchemaRepository::Recover("wal", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->LatestVersion("po"), 3);

  Thesaurus thesaurus = DefaultThesaurus();
  MatchService service(&thesaurus, &*recovered);
  MatchRequest request;
  request.source = "po";
  request.target = "order";

  // Warm a session on the oldest version pair...
  MatchRequest pinned = request;
  pinned.source_version = 1;
  auto cold = service.Match(pinned);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->session_reused);

  // ...then ask for latest: the recovered lineage must carry the session
  // from v1 to v3 incrementally, and the result must still be identical
  // to a from-scratch match.
  auto warm = service.Match(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->source_version, 3);
  EXPECT_TRUE(warm->session_reused);
  EXPECT_TRUE(warm->incremental);
  ExpectIdenticalToDirect(*warm, *recovered, thesaurus, CupidConfig(),
                          "post-recovery incremental");
  EXPECT_GE(service.cache_stats().incremental_rematches, 1);
}

TEST(MatchServiceTest, UnknownSchemasAndBadConfigsAreRejected) {
  ServiceFixture fx;
  MatchRequest unknown = fx.Request();
  unknown.source = "nosuch";
  EXPECT_TRUE(fx.service.Match(unknown).status().IsNotFound());
  MatchRequest bad = fx.Request();
  bad.config.tree_match.th_accept = 7.0;
  EXPECT_TRUE(fx.service.Match(bad).status().IsInvalidArgument());
}

TEST(MatchServiceTest, LruEvictionAtCapacity) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  MatchService::Options options;
  options.result_cache_capacity = 1;
  MatchService service(&thesaurus, &repo, options);

  MatchRequest forward;
  forward.source = "po";
  forward.target = "order";
  MatchRequest backward = forward;
  backward.source = "order";
  backward.target = "po";

  ASSERT_TRUE(service.Match(forward).ok());
  ASSERT_TRUE(service.Match(backward).ok());  // evicts the forward entry
  auto again = service.Match(forward);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->result_cache_hit);
  EXPECT_GT(service.cache_stats().result_evictions, 0);
}

/// cache_stats() is a view over the metrics registry: the registry's
/// cupid.service.* counters and the per-instance stats must tell the same
/// story, and a second service on the same registry must start from zero
/// (baseline-delta semantics) while the shared counters keep accumulating.
TEST(MatchServiceTest, CacheStatsMirrorTheMetricsRegistry) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  obs::MetricsRegistry registry;
  MatchService::Options options;
  options.metrics = &registry;
  MatchService service(&thesaurus, &repo, options);

  MatchRequest request;
  request.source = "po";
  request.target = "order";
  ASSERT_TRUE(service.Match(request).ok());  // miss, creates a session
  ASSERT_TRUE(service.Match(request).ok());  // result-cache hit

  auto counter_value = [&](const std::string& name) -> int64_t {
    for (const obs::MetricSnapshot& m : registry.Snapshot()) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "metric not registered: " << name;
    return -1;
  };
  MatchService::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.result_hits, 1);
  EXPECT_EQ(stats.result_misses, 1);
  EXPECT_EQ(stats.sessions_created, 1);
  EXPECT_EQ(counter_value("cupid.service.result_cache.hits"),
            stats.result_hits);
  EXPECT_EQ(counter_value("cupid.service.result_cache.misses"),
            stats.result_misses);
  EXPECT_EQ(counter_value("cupid.service.sessions.created"),
            stats.sessions_created);

  // The request histogram saw every Match call.
  for (const obs::MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == "cupid.service.request_ms") {
      EXPECT_EQ(m.count, 2);
    }
  }

  // A second service on the same registry baselines at construction: it
  // starts from zero while the shared counters keep accumulating. (Per the
  // CacheStats contract, instance views are exact only while the instance
  // is the counters' sole updater — the one-service-per-process topology.)
  MatchService second(&thesaurus, &repo, options);
  EXPECT_EQ(second.cache_stats().result_misses, 0);
  ASSERT_TRUE(second.Match(request).ok());
  EXPECT_EQ(second.cache_stats().result_misses, 1);
  EXPECT_EQ(second.cache_stats().result_hits, 0);
  EXPECT_EQ(counter_value("cupid.service.result_cache.misses"), 2);
}

TEST(MatchServiceTest, SessionLruEvictionRewarmsBitIdentically) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  MatchService::Options options;
  options.result_cache_capacity = 0;  // isolate session behavior
  options.session_capacity = 1;
  MatchService service(&thesaurus, &repo, options);

  MatchRequest forward;
  forward.source = "po";
  forward.target = "order";
  MatchRequest backward = forward;
  backward.source = "order";
  backward.target = "po";

  // Warm (po, order); the reverse pair then evicts it at capacity 1.
  ASSERT_TRUE(service.Match(forward).ok());
  ASSERT_TRUE(service.Match(backward).ok());
  EXPECT_EQ(service.cache_stats().sessions_evicted, 1);

  // The evicted pair re-warms a fresh (cold) session — a new session is
  // created, and the result is still bit-identical to a direct match.
  auto rewarmed = service.Match(forward);
  ASSERT_TRUE(rewarmed.ok()) << rewarmed.status().ToString();
  EXPECT_FALSE(rewarmed->session_reused);
  EXPECT_EQ(service.cache_stats().sessions_created, 3);
  ExpectIdenticalToDirect(*rewarmed, repo, thesaurus, CupidConfig(),
                          "re-warmed after eviction");

  // The re-warmed session keeps working incrementally: a repository edit
  // followed by a re-request goes down the warm path, bit-identically.
  ASSERT_TRUE(repo.ApplyEdit("po", SchemaEdit::RenameElement(
                                       EditSide::kSource,
                                       "PO.POLines.Item.Qty", "Quantity"))
                  .ok());
  auto after_edit = service.Match(forward);
  ASSERT_TRUE(after_edit.ok()) << after_edit.status().ToString();
  EXPECT_TRUE(after_edit->session_reused);
  EXPECT_TRUE(after_edit->incremental);
  ExpectIdenticalToDirect(*after_edit, repo, thesaurus, CupidConfig(),
                          "incremental on re-warmed session");
}

TEST(MatchServiceTest, SessionLruTouchKeepsHotPairs) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  MatchService::Options options;
  options.result_cache_capacity = 0;
  options.session_capacity = 2;
  MatchService service(&thesaurus, &repo, options);

  MatchRequest ab;  // pair A
  ab.source = "po";
  ab.target = "order";
  MatchRequest ba = ab;  // pair B
  ba.source = "order";
  ba.target = "po";
  MatchRequest aa = ab;  // pair C (self-match)
  aa.target = "po";

  ASSERT_TRUE(service.Match(ab).ok());  // A
  ASSERT_TRUE(service.Match(ba).ok());  // B
  ASSERT_TRUE(service.Match(ab).ok());  // touch A: B becomes LRU
  ASSERT_TRUE(service.Match(aa).ok());  // C evicts B, not A
  auto warm_a = service.Match(ab);
  ASSERT_TRUE(warm_a.ok());
  EXPECT_TRUE(warm_a->session_reused) << "touched pair must stay warm";
  auto cold_b = service.Match(ba);
  ASSERT_TRUE(cold_b.ok());
  EXPECT_FALSE(cold_b->session_reused) << "idle pair must have been evicted";
  EXPECT_EQ(service.cache_stats().sessions_evicted, 2);
}

TEST(MatchServiceTest, ConcurrentClientsBitIdentical) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  auto cidx = CidxSchema();
  auto excel = ExcelSchema();
  ASSERT_TRUE(cidx.ok() && excel.ok());
  ASSERT_TRUE(repo.Register("cidx", std::move(*cidx)).ok());
  ASSERT_TRUE(repo.Register("excel", std::move(*excel)).ok());
  MatchService service(&thesaurus, &repo);

  const CupidConfig config = CupidConfig();
  struct Pair {
    const char* source;
    const char* target;
  };
  const Pair pairs[] = {{"po", "order"}, {"cidx", "excel"}, {"order", "po"}};

  // Reference mappings computed up front, single-threaded.
  std::vector<Mapping> want_leaf, want_nonleaf;
  for (const Pair& p : pairs) {
    CupidMatcher matcher(&thesaurus, config);
    auto ref = matcher.Match(**repo.Get(p.source), **repo.Get(p.target));
    ASSERT_TRUE(ref.ok());
    want_leaf.push_back(ref->leaf_mapping);
    want_nonleaf.push_back(ref->nonleaf_mapping);
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        size_t which = static_cast<size_t>(c + i) % 3;
        MatchRequest request;
        request.source = pairs[which].source;
        request.target = pairs[which].target;
        request.config = config;
        // Mix cache hits, session reuse and one-shot paths.
        request.use_result_cache = (i % 3) != 1;
        request.use_session = (i % 4) != 3;
        auto r = service.Match(request);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const Mapping& leaf = want_leaf[which];
        if (r->leaf_mapping.size() != leaf.size()) {
          ++mismatches;
          continue;
        }
        for (size_t e = 0; e < leaf.size(); ++e) {
          if (r->leaf_mapping.elements[e].source_path !=
                  leaf.elements[e].source_path ||
              r->leaf_mapping.elements[e].target_path !=
                  leaf.elements[e].target_path ||
              r->leaf_mapping.elements[e].wsim != leaf.elements[e].wsim) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  MatchService::CacheStats stats = service.cache_stats();
  EXPECT_GT(stats.result_hits, 0);   // the cache actually served traffic
  EXPECT_GT(stats.sessions_reused, 0);
}

/// True iff two mappings agree element for element, bit for bit.
bool SameMapping(const Mapping& got, const Mapping& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const MappingElement& a = got.elements[i];
    const MappingElement& b = want.elements[i];
    if (a.source_path != b.source_path || a.target_path != b.target_path ||
        a.wsim != b.wsim || a.ssim != b.ssim || a.lsim != b.lsim) {
      return false;
    }
  }
  return true;
}

/// Renames the element at `*path` of repository schema `name` to a fresh
/// name and points `*path` at it — a pure edit chain, so surviving
/// sessions of `name` replay it and rematch warm.
Status RenameInRepository(SchemaRepository* repo, const std::string& name,
                          int step, std::string* path) {
  std::string fresh = "Renamed" + std::to_string(step);
  CUPID_RETURN_NOT_OK(
      repo->ApplyEdit(name, SchemaEdit::RenameElement(EditSide::kSource,
                                                      *path, fresh))
          .status());
  *path = path->substr(0, path->rfind('.') + 1) + fresh;
  return Status::OK();
}

/// Every session of one source shares that source's LsimCache. A 4x4 grid
/// through one service from 4 threads, with a 3-session LRU forcing
/// evictions (and so cache re-creation), repository edits on two sources
/// (warm gathers on a shared cache) and an InvalidateAll mid-run: every
/// response equals a direct match on its versions, and once every request
/// finished and the service is invalidated no cache survives.
TEST(MatchServiceTest, PerSourceLsimCachesUnderChurnBitIdentical) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  constexpr int kSide = 4;
  std::vector<std::string> edit_paths;
  for (int i = 0; i < kSide; ++i) {
    SyntheticOptions opt;
    opt.num_elements = 36;
    opt.seed = 4100 + static_cast<uint64_t>(i);
    SyntheticPair pair = GenerateSyntheticPair(opt);
    // The last element whose path leads back to itself is the edit target.
    for (ElementId e = pair.source.num_elements() - 1; e > 0; --e) {
      if (pair.source.FindByPath(pair.source.PathName(e)) == e) {
        edit_paths.push_back(pair.source.PathName(e));
        break;
      }
    }
    ASSERT_EQ(edit_paths.size(), static_cast<size_t>(i + 1));
    ASSERT_TRUE(repo.Register("s" + std::to_string(i), pair.source).ok());
    ASSERT_TRUE(repo.Register("t" + std::to_string(i), pair.target).ok());
  }
  obs::MetricsRegistry metrics;
  MatchService::Options options;
  options.result_cache_capacity = 0;  // every request runs on a session
  options.session_capacity = 3;
  options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, options);
  obs::Gauge* live_caches = metrics.GetGauge("cupid.service.lsim_caches", "");
  obs::Gauge* cache_bytes =
      metrics.GetGauge("cupid.service.lsim_cache_bytes", "");
  const CupidConfig config = CupidConfig();

  auto request_for = [&](int source, int target) {
    MatchRequest request;
    request.source = "s" + std::to_string(source);
    request.target = "t" + std::to_string(target);
    request.config = config;
    return request;
  };
  auto matches_direct = [&](const MatchResponse& r) {
    auto source = repo.Get(r.source, r.source_version);
    auto target = repo.Get(r.target, r.target_version);
    if (!source.ok() || !target.ok()) return false;
    auto ref = CupidMatcher(&thesaurus, config).Match(**source, **target);
    return ref.ok() && SameMapping(r.leaf_mapping, ref->leaf_mapping) &&
           SameMapping(r.nonleaf_mapping, ref->nonleaf_mapping);
  };

  // Step k: every thread matches source k % 4, against its own target, so
  // the sessions of one source run concurrently on one cache. Thread 0
  // edits sources 0 and 1 from the second cycle on; thread 3 invalidates
  // the service once while the others are in flight.
  constexpr int kThreads = 4;
  constexpr int kSteps = 12;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      for (int k = 0; k < kSteps; ++k) {
        const int source = k % kSide;
        if (c == 0 && k >= kSide && source < 2) {
          if (!RenameInRepository(&repo, "s" + std::to_string(source), k,
                                  &edit_paths[static_cast<size_t>(source)])
                   .ok()) {
            ++failures;
          }
        }
        if (c == 3 && k == 6) service.InvalidateAll();
        auto r = service.Match(request_for(source, (c + k) % kSide));
        if (!r.ok()) {
          ++failures;
        } else if (!matches_direct(*r)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.cache_stats().sessions_evicted, 0);

  // Deterministic tail: two sessions of s0 share one cache, and an edit of
  // s0 rematches warm on it.
  service.InvalidateAll();
  EXPECT_EQ(live_caches->value(), 0);
  for (auto [source, target] : {std::pair{0, 0}, {0, 1}}) {
    auto r = service.Match(request_for(source, target));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(matches_direct(*r));
  }
  EXPECT_EQ(live_caches->value(), 1) << "sessions of s0 share one cache";
  ASSERT_TRUE(service.Match(request_for(1, 0)).ok());
  EXPECT_EQ(live_caches->value(), 2);
  EXPECT_GT(cache_bytes->value(), 0);
  ASSERT_TRUE(RenameInRepository(&repo, "s0", kSteps, &edit_paths[0]).ok());
  auto warm = service.Match(request_for(0, 0));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->session_reused);
  EXPECT_TRUE(warm->incremental);
  EXPECT_TRUE(matches_direct(*warm));

  service.InvalidateAll();
  EXPECT_EQ(live_caches->value(), 0);
  EXPECT_EQ(cache_bytes->value(), 0);
}

/// Synthetic schemas s0..s{n-1} and t0..t{n-1} of 36 elements.
void RegisterSyntheticGrid(SchemaRepository* repo, int n, uint64_t seed) {
  for (int i = 0; i < n; ++i) {
    SyntheticOptions opt;
    opt.num_elements = 36;
    opt.seed = seed + static_cast<uint64_t>(i);
    SyntheticPair pair = GenerateSyntheticPair(opt);
    ASSERT_TRUE(repo->Register("s" + std::to_string(i), pair.source).ok());
    ASSERT_TRUE(repo->Register("t" + std::to_string(i), pair.target).ok());
  }
}

MatchRequest GridRequest(int source, int target,
                         const CupidConfig& config = CupidConfig()) {
  MatchRequest request;
  request.source = "s" + std::to_string(source);
  request.target = "t" + std::to_string(target);
  request.config = config;
  return request;
}

/// Two cold sessions over one schema version share its artifact: the
/// second builds neither its tree nor its analysis, and both results read
/// one tree state. The artifact dies with the last session holding it.
TEST(MatchServiceTest, ColdSessionsShareOneArtifactPerVersion) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  RegisterSyntheticGrid(&repo, 2, 2700);
  const CupidConfig config;
  auto side = [&](const std::string& name) {
    return MatchSide{*repo.Get(name), nullptr};
  };
  auto first = std::make_unique<MatchSession>(&thesaurus, side("s0"),
                                              side("t0"), config, nullptr);
  ASSERT_TRUE(first->Rematch().ok());
  std::shared_ptr<const SchemaArtifact> shared =
      first->artifact(EditSide::kSource);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->schema, *repo.Get("s0"));  // pinned, not copied
  auto second = std::make_unique<MatchSession>(
      &thesaurus, MatchSide{shared->schema, shared}, side("t1"), config,
      nullptr);
  ASSERT_TRUE(second->Rematch().ok());
  EXPECT_EQ(second->artifact(EditSide::kSource), shared);
  EXPECT_EQ(&second->last_result()->source_tree.node(0),
            &first->last_result()->source_tree.node(0));
  auto want = CupidMatcher(&thesaurus, config)
                  .Match(**repo.Get("s0"), **repo.Get("t1"));
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(SameMapping(second->last_result()->leaf_mapping,
                          want->leaf_mapping));
  EXPECT_TRUE(SameMapping(second->last_result()->nonleaf_mapping,
                          want->nonleaf_mapping));

  std::weak_ptr<const SchemaArtifact> watch = shared;
  shared.reset();
  first.reset();
  EXPECT_FALSE(watch.expired());  // the second session still holds it
  second.reset();
  EXPECT_TRUE(watch.expired());
}

/// The service's store: a cold session takes every live artifact of its
/// versions, and storing an artifact sweeps the dead ones, so the map holds
/// live artifacts only (at most two per live session).
TEST(MatchServiceTest, ArtifactStoreSharesLiveVersionsOnly) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  RegisterSyntheticGrid(&repo, 2, 2710);
  obs::MetricsRegistry metrics;
  MatchService::Options options;
  options.result_cache_capacity = 0;
  options.session_capacity = 2;
  options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, options);
  obs::Counter* hits = metrics.GetCounter("cupid.service.artifacts.hits", "");
  obs::Counter* misses =
      metrics.GetCounter("cupid.service.artifacts.misses", "");
  obs::Gauge* live = metrics.GetGauge("cupid.service.artifacts.live", "");
  struct Step {
    int source, target;
    int64_t hits, misses, live;
  };
  // Sessions: (s0,t0); +(s0,t1); (s1,t1) evicts (s0,t0), so t0 dies;
  // (s1,t0) evicts (s0,t1), so s0 dies, and rebuilds t0.
  const Step steps[] = {{0, 0, 0, 2, 2},
                        {0, 1, 1, 3, 3},
                        {1, 1, 2, 4, 3},
                        {1, 0, 3, 5, 3}};
  for (const Step& step : steps) {
    const std::string context =
        "s" + std::to_string(step.source) + " t" + std::to_string(step.target);
    auto r = service.Match(GridRequest(step.source, step.target));
    ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
    EXPECT_FALSE(r->session_reused) << context;
    ExpectIdenticalToDirect(*r, repo, thesaurus, CupidConfig(), context);
    EXPECT_EQ(hits->value(), step.hits) << context;
    EXPECT_EQ(misses->value(), step.misses) << context;
    EXPECT_EQ(live->value(), step.live) << context;
  }
}

/// An artifact is served only for its own schema snapshot and binding:
/// re-registration keys a new version, a repository replaced under the
/// service (same name and version, other content) finds the old artifact
/// pinning another schema, InvalidateAll empties the store, and configs
/// whose tree build or linguistic binding differ build their own.
TEST(MatchServiceTest, ArtifactStoreNeverServesStaleOrForeignArtifacts) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  RegisterSyntheticGrid(&repo, 3, 2720);
  obs::MetricsRegistry metrics;
  MatchService::Options options;
  options.result_cache_capacity = 0;
  options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, options);
  obs::Counter* hits = metrics.GetCounter("cupid.service.artifacts.hits", "");
  obs::Counter* misses =
      metrics.GetCounter("cupid.service.artifacts.misses", "");
  auto expect_run = [&](const MatchRequest& request, int64_t new_hits,
                        int64_t new_misses, const std::string& context) {
    const int64_t h = hits->value(), m = misses->value();
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
    ExpectIdenticalToDirect(*r, repo, thesaurus, request.config, context);
    EXPECT_EQ(hits->value() - h, new_hits) << context;
    EXPECT_EQ(misses->value() - m, new_misses) << context;
  };
  expect_run(GridRequest(0, 0), 0, 2, "cold");
  expect_run(GridRequest(0, 2), 1, 1, "s0@1 shared");

  SyntheticOptions other;
  other.num_elements = 40;
  other.seed = 2799;
  ASSERT_TRUE(repo.Register("s0", GenerateSyntheticPair(other).source).ok());
  expect_run(GridRequest(0, 1), 0, 2, "re-registered s0@2");

  // Same names and versions, other content, while the sessions above still
  // hold the old s0@1 and t1@1 artifacts. (The (s0, t1) session itself is
  // at s0@2, so it rebuilds cold.)
  SchemaRepository replaced;
  RegisterSyntheticGrid(&replaced, 3, 2730);
  repo = std::move(replaced);
  expect_run(GridRequest(0, 1), 0, 2, "replaced repository");

  service.InvalidateAll();
  expect_run(GridRequest(1, 1), 0, 2, "invalidated");

  CupidConfig no_views;
  no_views.tree_build.expand_views = false;
  expect_run(GridRequest(1, 1, no_views), 0, 2, "tree build differs");
  CupidConfig weights;
  weights.linguistic.token_weights.w[0] *= 0.5;
  expect_run(GridRequest(1, 1, weights), 0, 2, "linguistic binding differs");
  CupidConfig thns;
  thns.linguistic.thns = 0.6;  // not read before the kernel
  expect_run(GridRequest(1, 1, thns), 2, 0, "binding equal");
}


constexpr char kOldA[] =
    "schema A\n"
    "node R\n"
    "  leaf Qty decimal\n"
    "  leaf City string\n"
    "  leaf Street string\n";
constexpr char kNewA[] =
    "schema A\n"
    "node R\n"
    "  leaf Qty decimal\n"
    "  leaf Town string\n"
    "  leaf Zip integer\n";
constexpr char kB[] =
    "schema B\n"
    "node R\n"
    "  leaf Quantity decimal\n"
    "  leaf City string\n"
    "  leaf Street string\n";

/// A repository replaced under the service repeats names and versions with
/// other content. Neither a cached result nor a warm session of the old
/// schemas may serve it: not at equal versions, and not by replaying the
/// new lineage's edit chain onto the old session.
TEST(MatchServiceTest, ReplacedRepositoryServesNoStaleResults) {
  Thesaurus thesaurus = DefaultThesaurus();
  MatchRequest request;
  request.source = "a";
  request.target = "b";
  for (int capacity : {128, 0}) {
    for (bool edited : {false, true}) {
      const std::string context =
          StringFormat("result cache %d, %s", capacity,
                       edited ? "new lineage edited" : "same versions");
      SchemaRepository repo;
      ASSERT_TRUE(repo.RegisterText("a", SchemaFormat::kNative, kOldA).ok());
      ASSERT_TRUE(repo.RegisterText("b", SchemaFormat::kNative, kB).ok());
      obs::MetricsRegistry metrics;
      MatchService::Options options;
      options.result_cache_capacity = capacity;
      options.metrics = &metrics;
      MatchService service(&thesaurus, &repo, options);
      ASSERT_TRUE(service.Match(request).ok()) << context;

      SchemaRepository replaced;
      ASSERT_TRUE(
          replaced.RegisterText("a", SchemaFormat::kNative, kNewA).ok());
      ASSERT_TRUE(replaced.RegisterText("b", SchemaFormat::kNative, kB).ok());
      if (edited) {
        ASSERT_TRUE(replaced
                        .ApplyEdit("a", SchemaEdit::RenameElement(
                                            EditSide::kSource, "A.R.Qty",
                                            "Quantity"))
                        .ok());
      }
      repo = std::move(replaced);

      auto r = service.Match(request);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status().ToString();
      EXPECT_FALSE(r->result_cache_hit) << context;
      EXPECT_FALSE(r->session_reused) << context;
      ExpectIdenticalToDirect(*r, repo, thesaurus, CupidConfig(), context);
      // The rebuilt state serves the new schemas from then on.
      auto again = service.Match(request);
      ASSERT_TRUE(again.ok()) << context;
      EXPECT_EQ(again->result_cache_hit, capacity > 0) << context;
      EXPECT_EQ(again->session_reused, capacity == 0) << context;
      ExpectIdenticalToDirect(*again, repo, thesaurus, CupidConfig(),
                              context + " again");
    }
  }
}

/// `response` carries its rendering, and splicing it writes the bytes a
/// fresh render of the response's own mappings writes.
void ExpectSplicedEqualsRendered(const MatchResponse& response,
                                 const std::string& context) {
  ASSERT_NE(response.mapping_json, nullptr) << context;
  MatchResponse unstored = response;
  unstored.mapping_json.reset();
  EXPECT_EQ(response.ToJson(true), unstored.ToJson(true)) << context;
  EXPECT_EQ(response.ToJson(false), unstored.ToJson(false)) << context;
}

/// Every result is rendered once, by the service, and every reply of it
/// (cached reads, batch items) splices those very bytes.
TEST(MatchServiceTest, EachResultRendersOnceAndRepliesStayByteEqual) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  obs::MetricsRegistry metrics;
  MatchService::Options options;
  options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, options);
  obs::Counter* renders =
      metrics.GetCounter("cupid.service.mapping_renders", "");
  MatchRequest request;
  request.source = "po";
  request.target = "order";

  auto cold = service.Match(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectSplicedEqualsRendered(*cold, "cold");
  EXPECT_EQ(renders->value(), 1);

  auto hit = service.Match(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->result_cache_hit);
  EXPECT_EQ(hit->mapping_json.get(), cold->mapping_json.get());
  ExpectSplicedEqualsRendered(*hit, "cache hit");
  EXPECT_EQ(renders->value(), 1);

  MatchRequest uncached = request;
  uncached.use_result_cache = false;
  auto warm = service.Match(uncached);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->session_reused);
  ExpectSplicedEqualsRendered(*warm, "use_result_cache:false");
  EXPECT_EQ(*warm->mapping_json, *cold->mapping_json);
  EXPECT_EQ(renders->value(), 2);

  MatchRequest direct = uncached;
  direct.use_session = false;
  auto one_shot = service.Match(direct);
  ASSERT_TRUE(one_shot.ok());
  ExpectSplicedEqualsRendered(*one_shot, "one-shot");
  EXPECT_EQ(*one_shot->mapping_json, *cold->mapping_json);
  EXPECT_EQ(renders->value(), 3);

  // K edits, each pushed once and read three times: K renders.
  constexpr int kEdits = 4;
  std::string path = "PO.POLines.Item.Qty";
  const int64_t before_edits = renders->value();
  for (int k = 0; k < kEdits; ++k) {
    const std::string context = "edit " + std::to_string(k);
    ASSERT_TRUE(RenameInRepository(&repo, "po", k, &path).ok()) << context;
    auto pushed = service.Match(request);
    ASSERT_TRUE(pushed.ok()) << context;
    EXPECT_TRUE(pushed->incremental) << context;
    ExpectSplicedEqualsRendered(*pushed, context);
    ExpectIdenticalToDirect(*pushed, repo, thesaurus, CupidConfig(), context);
    for (int read = 0; read < 3; ++read) {
      auto r = service.Match(request);
      ASSERT_TRUE(r.ok()) << context;
      EXPECT_TRUE(r->result_cache_hit) << context;
      EXPECT_EQ(r->mapping_json.get(), pushed->mapping_json.get()) << context;
    }
  }
  EXPECT_EQ(renders->value() - before_edits, kEdits);

  // Batch items: the cached ones share the stored bytes, the uncached one
  // renders its own.
  auto stored = service.Match(request);
  ASSERT_TRUE(stored.ok());
  JobScheduler::Options scheduler_options;
  scheduler_options.num_threads = 2;
  JobScheduler scheduler(&service, scheduler_options);
  const int64_t before_batch = renders->value();
  std::vector<Result<MatchResponse>> items =
      scheduler.MatchBatch({request, request, uncached, request});
  ASSERT_EQ(items.size(), 4u);
  for (size_t i = 0; i < items.size(); ++i) {
    const std::string context = "batch item " + std::to_string(i);
    ASSERT_TRUE(items[i].ok()) << context;
    ExpectSplicedEqualsRendered(*items[i], context);
    EXPECT_EQ(*items[i]->mapping_json, *stored->mapping_json) << context;
    if (i != 2) {
      EXPECT_EQ(items[i]->mapping_json.get(), stored->mapping_json.get())
          << context;
    }
  }
  EXPECT_EQ(renders->value() - before_batch, 1);
}

// ----------------------------------------------------------- job scheduler --

TEST(JobSchedulerTest, BatchesAtOneAndManyWorkersBitIdentical) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());

  const CupidConfig config = CupidConfig();
  CupidMatcher matcher(&thesaurus, config);
  auto ref = matcher.Match(**repo.Get("po"), **repo.Get("order"));
  ASSERT_TRUE(ref.ok());

  for (int workers : {1, 4}) {
    MatchService service(&thesaurus, &repo);
    JobScheduler::Options options;
    options.num_threads = workers;
    JobScheduler scheduler(&service, options);
    EXPECT_EQ(scheduler.num_threads(), workers);

    std::vector<MatchRequest> batch;
    for (int i = 0; i < 12; ++i) {
      MatchRequest request;
      request.source = "po";
      request.target = "order";
      request.config = config;
      request.use_result_cache = i % 2 == 0;
      batch.push_back(request);
    }
    std::vector<Result<MatchResponse>> results =
        scheduler.MatchBatch(std::move(batch));
    ASSERT_EQ(results.size(), 12u);
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << workers << " workers, job " << i << ": "
          << results[i].status().ToString();
      ExpectMappingEqual(results[i]->leaf_mapping, ref->leaf_mapping,
                         StringFormat("workers=%d job=%zu", workers, i));
      EXPECT_GE(results[i]->timings.queue_ms, 0.0);
    }
  }
}

TEST(JobSchedulerTest, BatchSurfacesPerRequestErrors) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  ASSERT_TRUE(repo.Register("order", Fig2PurchaseOrder()).ok());
  MatchService service(&thesaurus, &repo);
  JobScheduler scheduler(&service);

  MatchRequest good;
  good.source = "po";
  good.target = "order";
  MatchRequest bad = good;
  bad.target = "nosuch";
  auto results = scheduler.MatchBatch({good, bad, good});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_TRUE(results[2].ok());
}

TEST(JobSchedulerTest, BoundedAdmissionAndShutdown) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("po", Fig2Po()).ok());
  MatchService service(&thesaurus, &repo);
  JobScheduler::Options options;
  options.num_threads = 1;
  options.max_pending = 2;
  JobScheduler scheduler(&service, options);

  // Pin the single worker on a latch so admission counts are deterministic.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocking = [released]() -> Result<MatchResponse> {
    released.wait();
    return MatchResponse{};
  };
  auto quick = []() -> Result<MatchResponse> { return MatchResponse{}; };

  auto job1 = JobSchedulerTestPeer::SubmitTask(&scheduler, blocking);
  ASSERT_TRUE(job1.ok());
  auto job2 = JobSchedulerTestPeer::SubmitTask(&scheduler, quick);
  ASSERT_TRUE(job2.ok());  // queued behind the pinned worker
  auto job3 = JobSchedulerTestPeer::SubmitTask(&scheduler, quick);
  ASSERT_EQ(job3.status().code(), StatusCode::kOutOfRange);  // bound hit

  release.set_value();
  EXPECT_TRUE((*job1)->Wait().ok());
  EXPECT_TRUE((*job2)->Wait().ok());
  EXPECT_TRUE((*job1)->done());
  EXPECT_GE((*job2)->queue_ms(), 0.0);
  EXPECT_EQ(scheduler.pending(), 0);

  scheduler.Shutdown();
  auto after = JobSchedulerTestPeer::SubmitTask(&scheduler, quick);
  EXPECT_EQ(after.status().code(), StatusCode::kUnsupported);
  scheduler.Shutdown();  // idempotent
}

}  // namespace
}  // namespace cupid
