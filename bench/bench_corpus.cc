// E11 — corpus-scale one-vs-N search (the repository-serving scenario the
// ROADMAP names as the north star).
//
// A 200-target synthetic corpus (a planted near-copy of the probe plus
// related and unrelated schemas, Zipf-skewed names) is searched four ways:
//
//   * BM_CorpusNaiveLoop             the no-service baseline: a serial full
//                                    CupidMatcher::Match against every
//                                    stored schema, ranked after the fact
//   * BM_CorpusSearchExhaustive/T    CorpusSearchService with pruning off —
//                                    what the shared LsimCache and the
//                                    scheduler sharding buy on their own
//   * BM_CorpusSearchPruned/T        the full stack: linguistic pre-screen
//                                    to top-k', shared cache, sharding
//   * BM_CorpusPrunedEqualsExhaustive  correctness guard: for two probes
//                                    searched in turn on one service (so the
//                                    shared cache serves both), the full
//                                    exhaustive ranking must equal the naive
//                                    one and pruned hits their naive scores,
//                                    bit for bit, and the generated probe's
//                                    pruned top-1 its exhaustive top-1; the
//                                    pruned search follows the exhaustive
//                                    one, so its candidates all come from
//                                    the memo of prepared candidates
//                                    (warm_prepared_misses counts any that
//                                    did not); CI requires the mismatch and
//                                    warm-miss counters to be exactly 0
//
// CI runs this with --benchmark_out=BENCH_corpus.json, asserts the guards
// and that the pruned+shared-cache search beats the naive loop by the
// documented factor (docs/PERFORMANCE.md has the measured numbers).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "obs/metrics.h"
#include "service/corpus_search.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"

namespace cupid {
namespace {

constexpr int kNumTargets = 200;
constexpr int kTopK = 10;

struct Workload {
  SyntheticCorpus corpus;
  SchemaRepository repo;

  static std::unique_ptr<Workload> Create() {
    SyntheticCorpusOptions opt;
    opt.num_targets = kNumTargets;
    opt.source_elements = 120;
    opt.min_target_elements = 60;
    opt.max_target_elements = 160;
    opt.seed = 11;
    auto w = std::make_unique<Workload>();
    w->corpus = GenerateSyntheticCorpus(opt);
    if (!w->repo.Register("probe", w->corpus.source).ok()) return nullptr;
    for (size_t i = 0; i < w->corpus.targets.size(); ++i) {
      if (!w->repo.Register(w->corpus.names[i], w->corpus.targets[i]).ok()) {
        return nullptr;
      }
    }
    return w;
  }

  SearchRequest Request(bool exhaustive, const std::string& source = "probe",
                        int top_k = kTopK) const {
    SearchRequest request;
    request.source = source;
    request.top_k = top_k;
    request.exhaustive = exhaustive;
    request.prune_fraction = 0.1;
    request.prune_min_keep = 16;
    return request;
  }
};

/// The reference ranking of `probe` (a stored schema name): serial
/// CupidMatcher::Match against every other stored schema, scored with the
/// same public formula the service uses, best `top_k` first.
std::vector<SearchHit> NaiveSweep(const Thesaurus* thesaurus, const Workload& w,
                                  const std::string& probe = "probe",
                                  int top_k = kTopK) {
  CupidMatcher matcher(thesaurus, CupidConfig());
  auto source = w.repo.Resolve(probe);
  if (!source.ok()) return {};
  std::vector<SearchHit> hits;
  for (const std::string& name : w.repo.Names()) {
    if (name == probe) continue;
    auto target = w.repo.Resolve(name);
    if (!target.ok()) return {};
    auto result = matcher.Match(*source->schema, *target->schema);
    if (!result.ok()) return {};
    SearchHit hit;
    hit.target = name;
    hit.target_version = target->version;
    hit.score = CorpusRankingScore(*result);
    hits.push_back(std::move(hit));
  }
  std::sort(hits.begin(), hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.target < b.target;
            });
  if (hits.size() > static_cast<size_t>(top_k)) hits.resize(top_k);
  return hits;
}

void BM_CorpusNaiveLoop(benchmark::State& state) {
  std::unique_ptr<Workload> workload = Workload::Create();
  if (workload == nullptr) {
    state.SkipWithError("corpus setup failed");
    return;
  }
  Thesaurus thesaurus = DefaultThesaurus();
  int64_t searches = 0;
  for (auto _ : state) {
    std::vector<SearchHit> hits = NaiveSweep(&thesaurus, *workload);
    if (hits.empty()) {
      state.SkipWithError("naive sweep failed");
      break;
    }
    benchmark::DoNotOptimize(hits);
    ++searches;
  }
  state.SetItemsProcessed(searches);
  state.counters["candidates"] = kNumTargets;
  state.counters["full_matches"] = kNumTargets;
}
BENCHMARK(BM_CorpusNaiveLoop)->UseRealTime()->Unit(benchmark::kMillisecond);

void RunSearchBench(benchmark::State& state, bool exhaustive) {
  std::unique_ptr<Workload> workload = Workload::Create();
  if (workload == nullptr) {
    state.SkipWithError("corpus setup failed");
    return;
  }
  Thesaurus thesaurus = DefaultThesaurus();
  MatchService match_service(&thesaurus, &workload->repo);
  JobScheduler::Options sched_opt;
  sched_opt.num_threads = static_cast<int>(state.range(0));
  JobScheduler scheduler(&match_service, sched_opt);
  CorpusSearchService search(&thesaurus, &workload->repo, &scheduler);

  SearchRequest request = workload->Request(exhaustive);
  int64_t searches = 0;
  double full_matches = 0.0, pruned = 0.0;
  for (auto _ : state) {
    auto response = search.Search(request);
    if (!response.ok()) {
      state.SkipWithError("search failed");
      break;
    }
    benchmark::DoNotOptimize(response);
    full_matches = static_cast<double>(response->full_matches);
    pruned = static_cast<double>(response->candidates_pruned);
    ++searches;
  }
  state.SetItemsProcessed(searches);
  state.counters["candidates"] = kNumTargets;
  state.counters["full_matches"] = full_matches;
  state.counters["pruned"] = pruned;
}

void BM_CorpusSearchExhaustive(benchmark::State& state) {
  RunSearchBench(state, /*exhaustive=*/true);
}
BENCHMARK(BM_CorpusSearchExhaustive)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CorpusSearchPruned(benchmark::State& state) {
  RunSearchBench(state, /*exhaustive=*/false);
}
BENCHMARK(BM_CorpusSearchPruned)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Correctness guard: for each of two probes, searched in turn on one
/// service, the full exhaustive ranking must equal the naive ranking
/// wholesale and every pruned hit must score exactly as its naive match;
/// for the generated probe the pruned top hit must also be the exhaustive
/// one. The second probe reads the shared cache's tables the first filled.
/// Candidates prepared for the corpus memo so far, process-wide.
int64_t PreparedMisses() {
  return obs::MetricsRegistry::Default()
      ->GetCounter("cupid.corpus.prepared.misses", "")
      ->value();
}

void BM_CorpusPrunedEqualsExhaustive(benchmark::State& state) {
  double top1_mismatch = 0.0, score_mismatch = 0.0, rank_mismatch = 0.0;
  double warm_prepared_misses = 0.0;
  for (auto _ : state) {
    std::unique_ptr<Workload> workload = Workload::Create();
    if (workload == nullptr) {
      state.SkipWithError("corpus setup failed");
      return;
    }
    Thesaurus thesaurus = DefaultThesaurus();
    MatchService match_service(&thesaurus, &workload->repo);
    JobScheduler::Options sched_opt;
    sched_opt.num_threads = 4;
    JobScheduler scheduler(&match_service, sched_opt);
    CorpusSearchService search(&thesaurus, &workload->repo, &scheduler);

    for (const std::string& probe :
         {std::string("probe"), workload->corpus.names[kNumTargets / 2]}) {
      std::vector<SearchHit> naive =
          NaiveSweep(&thesaurus, *workload, probe, kNumTargets);
      auto exhaustive = search.Search(
          workload->Request(/*exhaustive=*/true, probe, kNumTargets));
      // Every candidate was prepared by the exhaustive search just above.
      const int64_t misses_before = PreparedMisses();
      auto pruned = search.Search(workload->Request(/*exhaustive=*/false,
                                                    probe));
      warm_prepared_misses +=
          static_cast<double>(PreparedMisses() - misses_before);
      if (naive.empty() || !exhaustive.ok() || !pruned.ok()) {
        state.SkipWithError("search failed");
        return;
      }
      if (exhaustive->hits.size() != naive.size()) {
        rank_mismatch += 1.0;
      } else {
        for (size_t i = 0; i < naive.size(); ++i) {
          if (exhaustive->hits[i].target != naive[i].target) {
            rank_mismatch += 1.0;
          }
          if (exhaustive->hits[i].score != naive[i].score) {
            score_mismatch += 1.0;
          }
        }
      }
      // Every pruned hit scores exactly as the naive match of its target.
      for (const SearchHit& hit : pruned->hits) {
        auto same = std::find_if(
            naive.begin(), naive.end(),
            [&hit](const SearchHit& n) { return n.target == hit.target; });
        if (same == naive.end() || same->score != hit.score) {
          score_mismatch += 1.0;
        }
      }
      // Recall: the pre-screen must keep the planted best match of the
      // generated probe (a stored schema as probe has no planted match).
      if (probe != "probe") continue;
      if (pruned->hits.empty() || exhaustive->hits.empty() ||
          pruned->hits[0].target != exhaustive->hits[0].target) {
        top1_mismatch += 1.0;
      } else if (pruned->hits[0].score != exhaustive->hits[0].score) {
        score_mismatch += 1.0;
      }
    }
  }
  state.counters["top1_mismatch"] = top1_mismatch;
  state.counters["score_mismatch"] = score_mismatch;
  state.counters["rank_mismatch"] = rank_mismatch;
  state.counters["warm_prepared_misses"] = warm_prepared_misses;
}
BENCHMARK(BM_CorpusPrunedEqualsExhaustive)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cupid

BENCHMARK_MAIN();
