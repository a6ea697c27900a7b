// E9 — incremental re-matching (MatchSession) on an edit-stream workload.
//
// The serving pattern Section 8.4 of the paper gestures at: schemas in a
// repository change a few elements at a time and get re-matched after each
// change, at 512 elements per side.
//
//   * BM_ScratchSingleEdit            full CupidMatcher::Match after each
//                                     single-element edit
//   * BM_IncrementalSingleEdit        MatchSession::Rematch after the same
//                                     kind of edits
//   * BM_IncrementalEqualsScratch     correctness guard: a 24-edit stream
//                                     where every Rematch must be
//                                     bit-identical to from-scratch (the
//                                     *_diff counters must be exactly 0)
//
// The acceptance bar: incremental >= 3x faster than scratch for
// single-element edits (the warm visit-list engine measured ~3.4x; CI
// guards >= 2.5x with slack for noisy runners and asserts the equality
// counters are exactly 0 before uploading the JSON):
//
//   bench_incremental --benchmark_out=BENCH_incremental.json
//       --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "incremental/match_session.h"
#include "thesaurus/default_thesaurus.h"

namespace cupid {
namespace {

constexpr int kElements = 512;
constexpr uint64_t kSeed = 1234;

SyntheticPair MakePair() {
  SyntheticOptions opt;
  opt.num_elements = kElements;
  opt.seed = kSeed;
  return GenerateSyntheticPair(opt);
}

/// Deterministic stream of single-element edits cycling through rename,
/// retype, add and remove, alternating sides. Add/remove pair up so the
/// schemas neither grow nor shrink over a long run.
class BenchEditStream {
 public:
  SchemaEdit Next(const Schema& src, const Schema& tgt) {
    int i = i_++;
    EditSide side = (i % 2 == 0) ? EditSide::kSource : EditSide::kTarget;
    const Schema& schema = (i % 2 == 0) ? src : tgt;
    std::string& last_added =
        (i % 2 == 0) ? last_added_src_ : last_added_tgt_;
    // Unambiguous leaf paths, in id order.
    std::vector<std::string> leaves;
    for (ElementId id = 1; id < schema.num_elements(); ++id) {
      if (!schema.IsLeaf(id)) continue;
      std::string path = schema.PathName(id);
      if (schema.FindByPath(path) == id) leaves.push_back(std::move(path));
    }
    size_t pick = (static_cast<size_t>(i) * 131) % leaves.size();
    switch (i % 8) {
      case 0:
      case 1:  // rename a leaf
        return SchemaEdit::RenameElement(side, leaves[pick],
                                         "Bench" + std::to_string(i));
      case 2:
      case 3: {  // retype a leaf
        static const DataType kTypes[] = {DataType::kString,
                                          DataType::kInteger,
                                          DataType::kDecimal, DataType::kMoney};
        return SchemaEdit::ChangeDataType(side, leaves[pick],
                                          kTypes[(i / 4) % 4]);
      }
      case 4:
      case 5: {  // add a leaf next to an existing one
        std::string parent = leaves[pick].substr(0, leaves[pick].rfind('.'));
        Element leaf;
        leaf.name = "BenchAdd" + std::to_string(i);
        leaf.kind = ElementKind::kAtomic;
        leaf.data_type = DataType::kString;
        last_added = parent + "." + leaf.name;
        return SchemaEdit::AddElement(side, parent, std::move(leaf));
      }
      default: {  // remove (preferably what case 4/5 added)
        if (!last_added.empty() &&
            schema.FindByPath(last_added) != kNoElement) {
          std::string path = last_added;
          last_added.clear();
          return SchemaEdit::RemoveElement(side, path);
        }
        return SchemaEdit::RemoveElement(side, leaves[pick]);
      }
    }
  }

 private:
  int i_ = 0;
  std::string last_added_src_, last_added_tgt_;
};

void BM_ScratchSingleEdit(benchmark::State& state) {
  SyntheticPair p = MakePair();
  Thesaurus th = DefaultThesaurus();
  CupidMatcher matcher(&th, CupidConfig());
  Schema src = p.source, tgt = p.target;
  BenchEditStream edits;
  for (auto _ : state) {
    state.PauseTiming();
    SchemaEdit e = edits.Next(src, tgt);
    Schema* s = e.side == EditSide::kSource ? &src : &tgt;
    if (!ApplySchemaEdit(s, e).ok()) state.SkipWithError("edit failed");
    state.ResumeTiming();
    auto r = matcher.Match(src, tgt);
    benchmark::DoNotOptimize(r);
  }
  state.counters["elements"] =
      static_cast<double>(src.num_elements() + tgt.num_elements());
}
BENCHMARK(BM_ScratchSingleEdit);

void BM_IncrementalSingleEdit(benchmark::State& state) {
  SyntheticPair p = MakePair();
  Thesaurus th = DefaultThesaurus();
  MatchSession session(&th, p.source, p.target, CupidConfig());
  if (!session.Rematch().ok()) state.SkipWithError("cold match failed");
  BenchEditStream edits;
  for (auto _ : state) {
    state.PauseTiming();
    SchemaEdit e = edits.Next(session.source(), session.target());
    if (!session.ApplyEdit(e).ok()) state.SkipWithError("edit failed");
    state.ResumeTiming();
    auto r = session.Rematch();
    benchmark::DoNotOptimize(r);
  }
  const RematchStats& stats = session.last_stats();
  state.counters["incremental"] = stats.incremental ? 1 : 0;
  state.counters["pairs_reused"] =
      static_cast<double>(stats.tree_match.pairs_reused);
  state.counters["link_tests"] =
      static_cast<double>(stats.tree_match.link_tests);
}
BENCHMARK(BM_IncrementalSingleEdit);

/// Correctness guard: every Rematch over a 24-edit stream must equal the
/// from-scratch run bit for bit. Counters must come out exactly 0.
void BM_IncrementalEqualsScratch(benchmark::State& state) {
  SyntheticPair p = MakePair();
  Thesaurus th = DefaultThesaurus();
  CupidConfig cfg;
  double sim_diff = 0.0;
  double mapping_mismatches = 0.0;
  for (auto _ : state) {
    MatchSession session(&th, p.source, p.target, cfg);
    CupidMatcher scratch(&th, cfg);
    BenchEditStream edits;
    for (int step = 0; step < 24; ++step) {
      SchemaEdit e = edits.Next(session.source(), session.target());
      if (!session.ApplyEdit(e).ok()) {
        state.SkipWithError("edit failed");
        break;
      }
      auto inc = session.Rematch();
      auto ref = scratch.Match(session.source(), session.target());
      if (!inc.ok() || !ref.ok()) {
        state.SkipWithError("match failed");
        break;
      }
      const NodeSimilarities& a = (*inc)->tree_match.sims;
      const NodeSimilarities& b = ref->tree_match.sims;
      for (TreeNodeId s = 0; s < a.source_nodes(); ++s) {
        for (TreeNodeId t = 0; t < a.target_nodes(); ++t) {
          sim_diff = std::max(
              {sim_diff, std::fabs(a.lsim(s, t) - b.lsim(s, t)),
               std::fabs(a.ssim(s, t) - b.ssim(s, t)),
               std::fabs(a.wsim(s, t) - b.wsim(s, t))});
        }
      }
      const Mapping& ma = (*inc)->leaf_mapping;
      const Mapping& mb = ref->leaf_mapping;
      if (ma.size() != mb.size()) {
        ++mapping_mismatches;
      } else {
        for (size_t i = 0; i < ma.size(); ++i) {
          if (ma.elements[i].source_path != mb.elements[i].source_path ||
              ma.elements[i].target_path != mb.elements[i].target_path ||
              ma.elements[i].wsim != mb.elements[i].wsim) {
            ++mapping_mismatches;
          }
        }
      }
    }
  }
  state.counters["sim_max_abs_diff"] = sim_diff;
  state.counters["mapping_mismatches"] = mapping_mismatches;
}
BENCHMARK(BM_IncrementalEqualsScratch)->Iterations(1);

}  // namespace
}  // namespace cupid

BENCHMARK_MAIN();
