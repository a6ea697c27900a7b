// E7 — scalability sweep (the paper's Section 10 lists "scalability
// analysis and testing" as necessary future work; this bench provides it).
//
// google-benchmark over synthetic schema pairs of growing size, measuring
// the full match pipeline and its linguistic phase in two configurations:
//   * cached: the shipped path — the linguistic phase runs on a fresh
//     LsimCache (token interning, token-pair memoization, distinct-name
//     dedup);
//   * naive:  the same pipeline with the linguistic phase replaced by the
//     reference implementation, LinguisticMatchReference.
// BM_CachedEqualsNaive cross-checks that both produce identical matrices
// (the max_abs_diff counters must be 0). BM_StructuralPhase measures the
// shipped structural engine (TreeMatch + the Section 7 recompute).
//
// Emit machine-readable results with:
//   bench_scalability --benchmark_out=BENCH_scalability.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "linguistic/linguistic_matcher.h"
#include "structural/tree_match.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"

namespace cupid {
namespace {

SyntheticPair MakePair(int64_t elements) {
  SyntheticOptions opt;
  opt.num_elements = static_cast<int>(elements);
  opt.seed = 1234;
  return GenerateSyntheticPair(opt);
}

/// The pipeline of CupidMatcher::Match with the naive linguistic phase.
Result<MatchResult> NaiveMatch(const Thesaurus* th, const CupidConfig& cfg,
                               const Schema& source, const Schema& target) {
  CUPID_ASSIGN_OR_RETURN(
      LinguisticResult lres,
      LinguisticMatchReference(th, cfg.linguistic, source, target));
  CUPID_ASSIGN_OR_RETURN(SchemaTree t1,
                         BuildSchemaTree(source, cfg.tree_build));
  CUPID_ASSIGN_OR_RETURN(SchemaTree t2,
                         BuildSchemaTree(target, cfg.tree_build));
  CUPID_ASSIGN_OR_RETURN(TreeMatchResult tm,
                         TreeMatch(t1, t2, lres.lsim, cfg.type_compatibility,
                                   cfg.tree_match));
  CUPID_RETURN_NOT_OK(
      RecomputeNonLeafSimilarities(t1, t2, cfg.tree_match, &tm));
  Mapping leaf, nonleaf;
  CUPID_RETURN_NOT_OK(
      GenerateStandardMappings(t1, t2, tm, cfg, &leaf, &nonleaf));
  return MatchResult{std::move(t1),   std::move(t2),   std::move(lres),
                     std::move(tm),   std::move(leaf), std::move(nonleaf)};
}

void RunFullMatch(benchmark::State& state, bool cached) {
  SyntheticPair p = MakePair(state.range(0));
  Thesaurus th = DefaultThesaurus();
  CupidConfig cfg;
  CupidMatcher m(&th, cfg);
  for (auto _ : state) {
    auto r = cached ? m.Match(p.source, p.target)
                    : NaiveMatch(&th, cfg, p.source, p.target);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
  state.counters["elements"] =
      static_cast<double>(p.source.num_elements() + p.target.num_elements());
}

void BM_FullMatch(benchmark::State& state) { RunFullMatch(state, true); }
BENCHMARK(BM_FullMatch)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_FullMatchNaive(benchmark::State& state) { RunFullMatch(state, false); }
BENCHMARK(BM_FullMatchNaive)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void RunLinguistic(benchmark::State& state, bool cached) {
  SyntheticPair p = MakePair(state.range(0));
  Thesaurus th = DefaultThesaurus();
  LinguisticOptions opts;
  LinguisticMatcher lm(&th, opts);
  for (auto _ : state) {
    auto r = cached ? lm.Match(p.source, p.target)
                    : LinguisticMatchReference(&th, opts, p.source, p.target);
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}

void BM_LinguisticPhase(benchmark::State& state) {
  RunLinguistic(state, true);
}
BENCHMARK(BM_LinguisticPhase)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void BM_LinguisticPhaseNaive(benchmark::State& state) {
  RunLinguistic(state, false);
}
BENCHMARK(BM_LinguisticPhaseNaive)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

/// The structural phase with default options: TreeMatch plus the Section 7
/// recompute, the two calls every match makes.
void BM_StructuralPhase(benchmark::State& state) {
  SyntheticPair p = MakePair(state.range(0));
  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(p.source, p.target);
  auto t1 = BuildSchemaTree(p.source).ValueOrDie();
  auto t2 = BuildSchemaTree(p.target).ValueOrDie();
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  TreeMatchOptions opts;
  for (auto _ : state) {
    auto r = TreeMatch(t1, t2, lres->lsim, types, opts);
    Status s = RecomputeNonLeafSimilarities(t1, t2, opts, &*r);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_StructuralPhase)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity();

void BM_TreeBuild(benchmark::State& state) {
  SyntheticOptions opt;
  opt.num_elements = static_cast<int>(state.range(0));
  opt.seed = 99;
  Schema s = GenerateSyntheticSchema(opt);
  for (auto _ : state) {
    auto t = BuildSchemaTree(s);
    benchmark::DoNotOptimize(t);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeBuild)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

/// Correctness guard for the comparison above: cached and naive pipelines
/// must produce identical lsim and wsim matrices (the counters below must
/// be exactly 0).
void BM_CachedEqualsNaive(benchmark::State& state) {
  SyntheticPair p = MakePair(state.range(0));
  Thesaurus th = DefaultThesaurus();
  CupidConfig cfg;

  double lsim_diff = 0.0, wsim_diff = 0.0;
  for (auto _ : state) {
    auto rc = CupidMatcher(&th, cfg).Match(p.source, p.target);
    auto rn = NaiveMatch(&th, cfg, p.source, p.target);
    if (!rc.ok() || !rn.ok()) {
      state.SkipWithError("match failed");
      return;
    }
    const NodeSimilarities& sc = rc->tree_match.sims;
    const NodeSimilarities& sn = rn->tree_match.sims;
    for (TreeNodeId s = 0; s < sc.source_nodes(); ++s) {
      for (TreeNodeId t = 0; t < sc.target_nodes(); ++t) {
        lsim_diff = std::max(lsim_diff, std::fabs(sc.lsim(s, t) - sn.lsim(s, t)));
        wsim_diff = std::max(wsim_diff, std::fabs(sc.wsim(s, t) - sn.wsim(s, t)));
      }
    }
  }
  state.counters["lsim_max_abs_diff"] = lsim_diff;
  state.counters["wsim_max_abs_diff"] = wsim_diff;
}
BENCHMARK(BM_CachedEqualsNaive)->Arg(128)->Arg(512)->Iterations(1);

}  // namespace
}  // namespace cupid

BENCHMARK_MAIN();
