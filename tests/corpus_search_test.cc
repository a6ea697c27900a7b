// Tests for src/service/corpus_search.h: the ranked one-vs-N search must be
// bit-identical to an exhaustive per-pair CupidMatcher sweep — same order,
// same scores — no matter how it is executed (serial, sharded over a
// scheduler, shared LsimCache on or off, admission-rejected helpers, a
// search issued from the scheduler's only worker, concurrent searches),
// repeated searches must be bit-identical, the memoized pre-screen and
// prepared candidates must track repository changes,
// pruning must keep the planted best match, and out-of-domain requests must
// be rejected loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "incremental/schema_edit.h"
#include "obs/metrics.h"
#include "service/corpus_search.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"

namespace cupid {
namespace {

SyntheticCorpusOptions SmallCorpusOptions() {
  SyntheticCorpusOptions opt;
  opt.num_targets = 24;
  opt.source_elements = 50;
  opt.min_target_elements = 30;
  opt.max_target_elements = 70;
  opt.seed = 7;
  return opt;
}

/// Registers the corpus in `repo`; the probe goes in as "probe".
void RegisterCorpus(const SyntheticCorpus& corpus, SchemaRepository* repo) {
  ASSERT_TRUE(repo->Register("probe", corpus.source).ok());
  for (size_t i = 0; i < corpus.targets.size(); ++i) {
    ASSERT_TRUE(repo->Register(corpus.names[i], corpus.targets[i]).ok());
  }
}

/// The reference ranking: full CupidMatcher::Match against every stored
/// schema, scored and ordered with the public helpers the service uses.
std::vector<SearchHit> NaiveSweep(const Thesaurus* thesaurus,
                                  const CupidConfig& config,
                                  SchemaRepository* repo,
                                  const std::string& source_name,
                                  int top_k) {
  std::vector<SearchHit> hits;
  CupidMatcher matcher(thesaurus, config);
  auto source = repo->Resolve(source_name);
  EXPECT_TRUE(source.ok());
  for (const std::string& name : repo->Names()) {
    if (name == source_name) continue;
    auto target = repo->Resolve(name);
    EXPECT_TRUE(target.ok());
    auto result = matcher.Match(*source->schema, *target->schema);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    SearchHit hit;
    hit.target = name;
    hit.target_version = target->version;
    hit.score = CorpusRankingScore(*result);
    hit.leaf_elements = static_cast<int64_t>(result->leaf_mapping.size());
    hits.push_back(std::move(hit));
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.target != b.target) return a.target < b.target;
              return a.target_version < b.target_version;
            });
  if (hits.size() > static_cast<size_t>(top_k)) {
    hits.resize(static_cast<size_t>(top_k));
  }
  return hits;
}

void ExpectHitsEqual(const std::vector<SearchHit>& got,
                     const std::vector<SearchHit>& want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].target, want[i].target) << context << " [" << i << "]";
    EXPECT_EQ(got[i].target_version, want[i].target_version)
        << context << " [" << i << "]";
    // Bitwise score equality: the search pipeline must reproduce the naive
    // sweep's doubles exactly, not approximately.
    EXPECT_EQ(got[i].score, want[i].score) << context << " [" << i << "]";
    EXPECT_EQ(got[i].leaf_elements, want[i].leaf_elements)
        << context << " [" << i << "]";
  }
}

TEST(CorpusSearch, ExhaustiveEqualsNaiveSweepAcrossExecutionModes) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);

  SearchRequest request;
  request.source = "probe";
  request.top_k = 10;
  request.exhaustive = true;

  std::vector<SearchHit> want = NaiveSweep(&thesaurus, request.config, &repo,
                                           "probe", request.top_k);

  for (int threads : {0, 1, 4}) {  // 0 = no scheduler (serial path)
    MatchService match_service(&thesaurus, &repo);
    std::unique_ptr<JobScheduler> scheduler;
    if (threads > 0) {
      JobScheduler::Options sched_opt;
      sched_opt.num_threads = threads;
      scheduler = std::make_unique<JobScheduler>(&match_service, sched_opt);
    }
    CorpusSearchService search(&thesaurus, &repo, scheduler.get());

    auto response = search.Search(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    std::string context = "threads=" + std::to_string(threads);
    EXPECT_EQ(response->candidates_total,
              static_cast<int64_t>(corpus.targets.size()))
        << context;
    EXPECT_EQ(response->candidates_pruned, 0) << context;
    EXPECT_EQ(response->full_matches, response->candidates_total) << context;
    ExpectHitsEqual(response->hits, want, context);
  }
}

TEST(CorpusSearch, RepeatedSearchesAreBitIdentical) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);

  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 4;
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService search(&thesaurus, &repo, &scheduler);

  SearchRequest request;
  request.source = "probe";
  request.top_k = 8;

  auto first = search.Search(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The second and third searches serve name-pair work from the warmed
  // shared cache (first run filled it); results must not move by a bit.
  for (int run = 0; run < 2; ++run) {
    auto again = search.Search(request);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectHitsEqual(again->hits, first->hits,
                    "repeat run " + std::to_string(run));
    EXPECT_EQ(again->candidates_pruned, first->candidates_pruned);
    EXPECT_EQ(again->full_matches, first->full_matches);
  }
}

/// Several probes on one service share its LsimCache: each probe's labels
/// land in the same side-1 registry, so the label-pair table serves more
/// than one source schema. Three probes (the generated one and two stored
/// schemas), interleaved and each searched twice on a 4-worker scheduler,
/// must score every candidate exactly as a fresh CupidMatcher::Match does.
TEST(CorpusSearch, SharedCacheAcrossProbesEqualsNaiveSweep) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);

  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 4;
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService search(&thesaurus, &repo, &scheduler);

  const std::vector<std::string> probes = {"probe", corpus.names[3],
                                           corpus.names[17]};
  const int all = static_cast<int>(corpus.targets.size());
  std::vector<std::vector<SearchHit>> want;
  for (const std::string& probe : probes) {
    want.push_back(NaiveSweep(&thesaurus, CupidConfig(), &repo, probe, all));
  }
  for (int round = 0; round < 2; ++round) {
    for (size_t p = 0; p < probes.size(); ++p) {
      SearchRequest request;
      request.source = probes[p];
      request.top_k = all;
      request.exhaustive = true;
      auto response = search.Search(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ExpectHitsEqual(response->hits, want[p],
                      "probe " + probes[p] + " round " +
                          std::to_string(round));
    }
  }
}

/// Default-registry value of a corpus counter (0 before first use).
int64_t CorpusCounter(const std::string& name) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Default()->Snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

TEST(CorpusSearch, PrunedSearchKeepsThePlantedBestMatch) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpusOptions opt = SmallCorpusOptions();
  opt.num_targets = 40;
  SyntheticCorpus corpus = GenerateSyntheticCorpus(opt);
  ASSERT_EQ(corpus.closest_target, 0);
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);
  CorpusSearchService search(&thesaurus, &repo);

  SearchRequest exhaustive;
  exhaustive.source = "probe";
  exhaustive.top_k = 5;
  exhaustive.exhaustive = true;
  auto full = search.Search(exhaustive);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->hits.empty());

  SearchRequest pruned = exhaustive;
  pruned.exhaustive = false;
  pruned.prune = true;
  pruned.prune_fraction = 0.2;
  pruned.prune_min_keep = 5;
  const int64_t searches_before = CorpusCounter("cupid.corpus.searches");
  const int64_t pruned_before = CorpusCounter("cupid.corpus.candidates_pruned");
  const int64_t matched_before =
      CorpusCounter("cupid.corpus.candidates_matched");
  auto quick = search.Search(pruned);
  ASSERT_TRUE(quick.ok()) << quick.status().ToString();
  ASSERT_FALSE(quick->hits.empty());

  // The screen must actually prune...
  EXPECT_GT(quick->candidates_pruned, 0);
  EXPECT_LT(quick->full_matches, quick->candidates_total);
  // ...and the registry counters must advance by exactly what the
  // response reports (the metrics endpoint and the API tell one story).
  EXPECT_EQ(CorpusCounter("cupid.corpus.searches") - searches_before, 1);
  EXPECT_EQ(CorpusCounter("cupid.corpus.candidates_pruned") - pruned_before,
            quick->candidates_pruned);
  EXPECT_EQ(CorpusCounter("cupid.corpus.candidates_matched") - matched_before,
            quick->full_matches);
  // ...while keeping the overall best hit: top-1 equality with the
  // exhaustive ranking (the property the CI corpus smoke also gates).
  EXPECT_EQ(quick->hits[0].target, full->hits[0].target);
  EXPECT_EQ(quick->hits[0].score, full->hits[0].score);
  // Every pruned hit must appear in the exhaustive ranking with an
  // identical score (pruning changes the candidate set, never a score).
  for (const SearchHit& hit : quick->hits) {
    auto it = std::find_if(full->hits.begin(), full->hits.end(),
                           [&](const SearchHit& h) {
                             return h.target == hit.target;
                           });
    if (it != full->hits.end()) {
      EXPECT_EQ(hit.score, it->score) << hit.target;
    }
  }
  // The planted least-mutated relative is the expected winner.
  EXPECT_EQ(full->hits[0].target, corpus.names[0]);
}

TEST(CorpusSearch, RequestValidationRejectsOutOfDomainKnobs) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("probe", Schema("Probe")).ok());
  CorpusSearchService search(&thesaurus, &repo);

  SearchRequest ok_request;
  ok_request.source = "probe";

  SearchRequest bad = ok_request;
  bad.top_k = 0;
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());
  bad = ok_request;
  bad.top_k = -3;
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());
  bad = ok_request;
  bad.prune_fraction = 1.5;
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());
  bad = ok_request;
  bad.prune_fraction = -0.1;
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());
  bad = ok_request;
  bad.prune_min_keep = -1;
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());
  bad = ok_request;
  bad.source.clear();
  EXPECT_TRUE(search.Search(bad).status().IsInvalidArgument());

  // Unknown probe name surfaces as NotFound from the repository.
  bad = ok_request;
  bad.source = "nope";
  EXPECT_TRUE(search.Search(bad).status().IsNotFound());
}

TEST(CorpusSearch, ServiceOptionsValidationRejectsNegativeCapacities) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.Register("a", Schema("A")).ok());
  ASSERT_TRUE(repo.Register("b", Schema("B")).ok());

  MatchService::Options bad_options;
  bad_options.result_cache_capacity = -1;
  MatchService service(&thesaurus, &repo, bad_options);
  MatchRequest request;
  request.source = "a";
  request.target = "b";
  EXPECT_TRUE(service.Match(request).status().IsInvalidArgument());

  bad_options = MatchService::Options();
  bad_options.session_capacity = -7;
  MatchService service2(&thesaurus, &repo, bad_options);
  EXPECT_TRUE(service2.Match(request).status().IsInvalidArgument());
}

TEST(CorpusSearch, QueueFullInlineFallbackStaysDeterministic) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpusOptions opt = SmallCorpusOptions();
  opt.num_targets = 12;
  SyntheticCorpus corpus = GenerateSyntheticCorpus(opt);
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);

  SearchRequest request;
  request.source = "probe";
  request.top_k = 6;
  request.exhaustive = true;

  // Reference: no scheduler at all.
  CorpusSearchService serial(&thesaurus, &repo);
  auto want = serial.Search(request);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // A scheduler with a tiny admission bound: most submissions bounce with
  // OutOfRange and run inline on the coordinator — results must not move.
  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 2;
  sched_opt.max_pending = 1;
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService tiny(&thesaurus, &repo, &scheduler);
  auto got = tiny.Search(request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectHitsEqual(got->hits, want->hits, "tiny admission bound");
}

TEST(CorpusSearch, ResponseJsonCarriesScoresAndCounts) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpusOptions opt = SmallCorpusOptions();
  opt.num_targets = 6;
  SyntheticCorpus corpus = GenerateSyntheticCorpus(opt);
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);
  CorpusSearchService search(&thesaurus, &repo);

  SearchRequest request;
  request.source = "probe";
  request.top_k = 3;
  request.exhaustive = true;
  auto response = search.Search(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  std::string json = response->ToJson();
  EXPECT_NE(json.find("\"source\":\"probe\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"candidates_total\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hits\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"score\":"), std::string::npos) << json;
}

TEST(CorpusSearch, SearchOnTheOnlySchedulerWorkerCompletes) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpusOptions opt = SmallCorpusOptions();
  opt.num_targets = 12;
  SyntheticCorpus corpus = GenerateSyntheticCorpus(opt);
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);

  SearchRequest request;
  request.source = "probe";
  request.top_k = 6;
  request.exhaustive = true;

  CorpusSearchService serial(&thesaurus, &repo);
  auto want = serial.Search(request);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // The search runs on the scheduler's only worker, so the helper it
  // queues cannot start until the search has returned: the search must
  // score every candidate itself instead of waiting for the helper. A
  // search that waits deadlocks here; ctest's TIMEOUT turns that into a
  // failure.
  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 1;
  JobScheduler scheduler(&match_service, sched_opt);
  Result<SearchResponse> got(Status::Internal("search did not run"));
  int pending_after_search = -1;
  auto job = scheduler.SubmitTask([&]() -> Result<MatchResponse> {
    // The service and the response's inputs live only inside this task,
    // so the queued helper runs after all of them are gone.
    CorpusSearchService on_worker(&thesaurus, &repo, &scheduler);
    got = on_worker.Search(request);
    pending_after_search = scheduler.pending();
    return MatchResponse{};
  });
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  (*job)->Wait();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectHitsEqual(got->hits, want->hits, "search on the only worker");
  // This task plus the one helper, still queued when Search returned.
  EXPECT_EQ(pending_after_search, 2);
  // Runs the late helper, which must find nothing left to claim.
  scheduler.Shutdown();
  EXPECT_EQ(scheduler.pending(), 0);
}

/// Pre-screen score of `target` among `hits` (-1 when absent).
double PrescreenOf(const std::vector<SearchHit>& hits,
                   const std::string& target) {
  for (const SearchHit& hit : hits) {
    if (hit.target == target) return hit.prescreen;
  }
  return -1.0;
}

/// Runs an exhaustive and a pruned search through `memo` and through a
/// freshly constructed service over the same repository: every hit —
/// target, version, pre-screen and score — must agree exactly. Returns the
/// exhaustive hits, which carry a pre-screen score for every candidate.
std::vector<SearchHit> ExpectSameAsFreshService(
    const Thesaurus* thesaurus, SchemaRepository* repo,
    CorpusSearchService* memo, const std::string& context) {
  std::vector<SearchHit> all;
  for (bool exhaustive : {true, false}) {
    SearchRequest request;
    request.source = "probe";
    request.top_k = 100;
    request.exhaustive = exhaustive;
    request.prune_fraction = 0.25;
    request.prune_min_keep = 4;
    CorpusSearchService fresh(thesaurus, repo);
    auto want = fresh.Search(request);
    auto got = memo->Search(request);
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!want.ok() || !got.ok()) return all;
    const std::string where =
        context + (exhaustive ? " exhaustive" : " pruned");
    ExpectHitsEqual(got->hits, want->hits, where);
    EXPECT_EQ(got->candidates_pruned, want->candidates_pruned) << where;
    for (size_t i = 0; i < got->hits.size() && i < want->hits.size(); ++i) {
      EXPECT_EQ(got->hits[i].prescreen, want->hits[i].prescreen)
          << where << " [" << i << "]";
    }
    if (exhaustive) all = got->hits;
  }
  return all;
}

TEST(CorpusSearch, PrescreenMemoTracksRepositoryChanges) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);
  CorpusSearchService memo(&thesaurus, &repo);

  std::vector<SearchHit> before =
      ExpectSameAsFreshService(&thesaurus, &repo, &memo, "initial");
  ASSERT_EQ(before.size(), corpus.targets.size());

  // An edit stores a new version of one candidate; its token bag changes.
  const std::string& edited = corpus.names[2];
  auto snapshot = repo.Resolve(edited);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(repo.ApplyEdit(edited, SchemaEdit::RenameElement(
                                         EditSide::kSource,
                                         snapshot->schema->PathName(1),
                                         "ZebraQuokkaNarwhal"))
                  .ok());
  std::vector<SearchHit> after_edit =
      ExpectSameAsFreshService(&thesaurus, &repo, &memo, "after ApplyEdit");
  EXPECT_NE(PrescreenOf(after_edit, edited), PrescreenOf(before, edited));

  // Re-registering a name starts a fresh lineage at a newer version.
  const std::string& replaced = corpus.names[3];
  ASSERT_TRUE(repo.Register(replaced, corpus.targets[0]).ok());
  std::vector<SearchHit> after_register = ExpectSameAsFreshService(
      &thesaurus, &repo, &memo, "after re-Register");
  EXPECT_NE(PrescreenOf(after_register, replaced),
            PrescreenOf(after_edit, replaced));
  EXPECT_EQ(PrescreenOf(after_register, replaced),
            PrescreenOf(after_register, corpus.names[0]));

  // A wholesale replacement reuses every (name, version) for other schemas;
  // only InvalidateAll makes the memo forget them.
  SyntheticCorpusOptions other_opt = SmallCorpusOptions();
  other_opt.seed = 99;
  SyntheticCorpus other = GenerateSyntheticCorpus(other_opt);
  ASSERT_EQ(other.names, corpus.names);
  repo = SchemaRepository();
  RegisterCorpus(other, &repo);
  memo.InvalidateAll();
  std::vector<SearchHit> after_reload = ExpectSameAsFreshService(
      &thesaurus, &repo, &memo, "after InvalidateAll");
  EXPECT_NE(PrescreenOf(after_reload, corpus.names[0]),
            PrescreenOf(before, corpus.names[0]));
}

/// Default-registry value of the memo's bytes gauge.
int64_t PreparedBytes() {
  return obs::MetricsRegistry::Default()
      ->GetGauge("cupid.corpus.prepared_bytes", "")
      ->value();
}

/// An exhaustive search for `probe` ranking every candidate.
SearchRequest RankAll(const std::string& probe, int candidates) {
  SearchRequest request;
  request.source = probe;
  request.top_k = candidates;
  request.exhaustive = true;
  return request;
}

/// Each stored candidate is prepared once per version: the first search
/// fills the memo, a repeated search is served from it entirely, an edit
/// re-prepares only the edited candidate (and its new version is what gets
/// scored), and InvalidateAll empties it. Every search equals a per-pair
/// CupidMatcher sweep bit for bit.
TEST(CorpusSearch, PreparedCandidateMemoFollowsVersionsAndEqualsSweep) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);
  const int all = static_cast<int>(corpus.targets.size());
  const int64_t bytes_before = PreparedBytes();

  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 2;
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService search(&thesaurus, &repo, &scheduler);

  // Runs one exhaustive search, checks it against the sweep, and returns
  // how many candidates the memo served and how many it had to prepare.
  auto search_and_check = [&](const std::string& context, int64_t* hits,
                              int64_t* misses) {
    const int64_t hits_before = CorpusCounter("cupid.corpus.prepared.hits");
    const int64_t misses_before =
        CorpusCounter("cupid.corpus.prepared.misses");
    auto response = search.Search(RankAll("probe", all));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    *hits = CorpusCounter("cupid.corpus.prepared.hits") - hits_before;
    *misses = CorpusCounter("cupid.corpus.prepared.misses") - misses_before;
    EXPECT_EQ(*hits + *misses, response->full_matches) << context;
    ExpectHitsEqual(response->hits,
                    NaiveSweep(&thesaurus, CupidConfig(), &repo, "probe", all),
                    context);
  };

  int64_t hits = 0, misses = 0;
  search_and_check("first search", &hits, &misses);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(misses, all);
  const int64_t memo_bytes = PreparedBytes() - bytes_before;
  EXPECT_GT(memo_bytes, 0);

  search_and_check("repeated search", &hits, &misses);
  EXPECT_EQ(hits, all);
  EXPECT_EQ(misses, 0);
  EXPECT_EQ(PreparedBytes() - bytes_before, memo_bytes);

  // An edit stores a new version of one candidate: only it is prepared
  // again, and the hit reports the version that was scored.
  const std::string& edited = corpus.names[5];
  auto snapshot = repo.Resolve(edited);
  ASSERT_TRUE(snapshot.ok());
  auto edited_version = repo.ApplyEdit(
      edited, SchemaEdit::RenameElement(EditSide::kSource,
                                        snapshot->schema->PathName(1),
                                        "ZebraQuokkaNarwhal"));
  ASSERT_TRUE(edited_version.ok()) << edited_version.status().ToString();
  ASSERT_GT(*edited_version, snapshot->version);
  search_and_check("after edit", &hits, &misses);
  EXPECT_EQ(hits, all - 1);
  EXPECT_EQ(misses, 1);
  auto after_edit = search.Search(RankAll("probe", all));
  ASSERT_TRUE(after_edit.ok());
  bool found = false;
  for (const SearchHit& hit : after_edit->hits) {
    if (hit.target != edited) continue;
    found = true;
    EXPECT_EQ(hit.target_version, *edited_version);
  }
  EXPECT_TRUE(found);

  // InvalidateAll drops the memo with its cache: the next search prepares
  // every candidate again, and the gauge no longer counts the old memo.
  search.InvalidateAll();
  EXPECT_EQ(PreparedBytes(), bytes_before);
  search_and_check("after InvalidateAll", &hits, &misses);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(misses, all);
}

/// Four threads search one service concurrently on a 2-worker scheduler,
/// starting from an empty memo and an empty shared cache, so scorers race
/// to prepare the same candidates and fill the same cache entries. Every
/// response equals the same search on a serial service.
TEST(CorpusSearch, ConcurrentSearchesEqualSerialResults) {
  Thesaurus thesaurus = DefaultThesaurus();
  SyntheticCorpus corpus = GenerateSyntheticCorpus(SmallCorpusOptions());
  SchemaRepository repo;
  RegisterCorpus(corpus, &repo);
  const int all = static_cast<int>(corpus.targets.size());

  std::vector<SearchRequest> requests;
  for (const std::string& probe :
       {std::string("probe"), corpus.names[3], corpus.names[11],
        corpus.names[20]}) {
    requests.push_back(RankAll(probe, all));
    SearchRequest pruned;
    pruned.source = probe;
    pruned.top_k = 5;
    requests.push_back(pruned);
  }
  std::vector<std::vector<SearchHit>> want;
  {
    CorpusSearchService serial(&thesaurus, &repo);
    for (const SearchRequest& request : requests) {
      auto response = serial.Search(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      want.push_back(response->hits);
    }
  }

  MatchService match_service(&thesaurus, &repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = 2;
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService search(&thesaurus, &repo, &scheduler);
  constexpr int kThreads = 4;
  std::vector<std::vector<Result<SearchResponse>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the requests from its own offset, twice.
      for (size_t n = 0; n < 2 * requests.size(); ++n) {
        const size_t k = (n + 2 * static_cast<size_t>(t)) % requests.size();
        got[static_cast<size_t>(t)].push_back(search.Search(requests[k]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto& responses = got[static_cast<size_t>(t)];
    ASSERT_EQ(responses.size(), 2 * requests.size());
    for (size_t n = 0; n < responses.size(); ++n) {
      const size_t k = (n + 2 * static_cast<size_t>(t)) % requests.size();
      ASSERT_TRUE(responses[n].ok()) << responses[n].status().ToString();
      ExpectHitsEqual(responses[n]->hits, want[k],
                      "thread " + std::to_string(t) + " request " +
                          std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace cupid
