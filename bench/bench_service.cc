// E10 — the match service layer under request traffic.
//
// Measures what the service adds over per-call matching: requests/sec at 1
// and N scheduler workers on the shipped data/ schema pairs (cidx->excel,
// rdb->star, po->purchase_order), on three workload shapes:
//
//   * BM_ServiceWarmRepeated/T   repeated identical requests — after the
//                                first round every request is an LRU
//                                result-cache hit (the steady state of
//                                read-heavy traffic)
//   * BM_ServiceWarmTraced/T     the warm workload with span tracing into
//                                a null sink — the observability overhead
//                                run CI gates against BM_ServiceWarmRepeated
//   * BM_ServiceSessionOnly/T    result cache off, warm per-pair sessions
//                                on — every request re-serves the session's
//                                cached result (the "cache key missed but
//                                the pair is warm" state)
//   * BM_ServiceColdDirect/T    result cache and sessions off — every
//                                request is a full CupidMatcher run (the
//                                no-service baseline)
//   * BM_ServiceEditRematch      one repository edit then a re-match per
//                                iteration — the incremental serving path
//   * BM_ServiceEqualsDirect     correctness guard: a mixed workload with
//                                edits of every kind where every response
//                                must equal the direct CupidMatcher::Match
//                                bit for bit and render byte for byte as
//                                printf would (mapping_mismatches and
//                                render_mismatches must be exactly 0)
//   * BM_ServiceColdGrid         a 6x6 synthetic grid cycled past a
//                                16-session LRU, result cache off: every
//                                request builds a cold session on its
//                                source's shared LsimCache and the live
//                                artifacts of its versions (artifact_hits);
//                                also a guard (mapping_mismatches must be
//                                exactly 0)
//
// CI runs this with --benchmark_out=BENCH_service.json, asserts the guard
// counters and that warm throughput beats cold throughput.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cupid_matcher.h"
#include "eval/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"
#include "util/json.h"

namespace cupid {
namespace {

/// The three shipped schema pairs, loaded from data/ through the importers.
struct Workload {
  SchemaRepository repo;
  std::vector<std::pair<std::string, std::string>> pairs;

  static std::unique_ptr<Workload> Create() {
    auto w = std::make_unique<Workload>();
    std::string data = CUPID_DATA_DIR;
    struct Entry {
      const char* name;
      const char* file;
    };
    const Entry files[] = {{"cidx", "cidx.xml"}, {"excel", "excel.xml"},
                           {"rdb", "rdb.sql"},   {"star", "star.sql"},
                           {"po", "po.cupid"},   {"order",
                                                  "purchase_order.cupid"}};
    for (const Entry& e : files) {
      if (!w->repo.RegisterFile(e.name, data + "/" + e.file).ok()) {
        return nullptr;
      }
    }
    w->pairs = {{"cidx", "excel"}, {"rdb", "star"}, {"po", "order"}};
    return w;
  }

  MatchRequest Request(size_t which, bool use_result_cache,
                       bool use_session) const {
    MatchRequest request;
    request.source = pairs[which % pairs.size()].first;
    request.target = pairs[which % pairs.size()].second;
    request.use_result_cache = use_result_cache;
    request.use_session = use_session;
    return request;
  }
};

constexpr int kRequestsPerIteration = 24;

void RunTrafficBench(benchmark::State& state, bool use_result_cache,
                     bool use_session) {
  std::unique_ptr<Workload> workload = Workload::Create();
  if (workload == nullptr) {
    state.SkipWithError("data/ schemas failed to load");
    return;
  }
  Thesaurus thesaurus = DefaultThesaurus();
  MatchService service(&thesaurus, &workload->repo);
  JobScheduler::Options options;
  options.num_threads = static_cast<int>(state.range(0));
  JobScheduler scheduler(&service, options);

  int64_t requests = 0;
  for (auto _ : state) {
    std::vector<MatchRequest> batch;
    batch.reserve(kRequestsPerIteration);
    for (int i = 0; i < kRequestsPerIteration; ++i) {
      batch.push_back(
          workload->Request(static_cast<size_t>(i), use_result_cache,
                            use_session));
    }
    auto responses = scheduler.MatchBatch(std::move(batch));
    for (const auto& response : responses) {
      if (!response.ok()) state.SkipWithError("request failed");
    }
    requests += kRequestsPerIteration;
  }
  state.SetItemsProcessed(requests);
  MatchService::CacheStats stats = service.cache_stats();
  int64_t lookups = stats.result_hits + stats.result_misses;
  state.counters["cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.result_hits) /
                         static_cast<double>(lookups);
  state.counters["sessions_created"] =
      static_cast<double>(stats.sessions_created);
  state.counters["sessions_reused"] =
      static_cast<double>(stats.sessions_reused);
}

void BM_ServiceWarmRepeated(benchmark::State& state) {
  RunTrafficBench(state, /*use_result_cache=*/true, /*use_session=*/true);
}
BENCHMARK(BM_ServiceWarmRepeated)->Arg(1)->Arg(4)->UseRealTime();

/// BM_ServiceWarmRepeated with span tracing enabled into a NullTraceSink:
/// pays the full record-building path (clock reads, attribute capture,
/// JSONL-ready records) without sink I/O. CI gates the throughput delta
/// against the untraced warm run (<2% measured locally; the CI gate allows
/// 10% for runner noise).
void BM_ServiceWarmTraced(benchmark::State& state) {
  static obs::NullTraceSink null_sink;
  obs::SetGlobalTraceSink(&null_sink);
  RunTrafficBench(state, /*use_result_cache=*/true, /*use_session=*/true);
  obs::SetGlobalTraceSink(nullptr);
}
BENCHMARK(BM_ServiceWarmTraced)->Arg(1)->Arg(4)->UseRealTime();

void BM_ServiceSessionOnly(benchmark::State& state) {
  RunTrafficBench(state, /*use_result_cache=*/false, /*use_session=*/true);
}
BENCHMARK(BM_ServiceSessionOnly)->Arg(1)->Arg(4)->UseRealTime();

void BM_ServiceColdDirect(benchmark::State& state) {
  RunTrafficBench(state, /*use_result_cache=*/false, /*use_session=*/false);
}
BENCHMARK(BM_ServiceColdDirect)->Arg(1)->Arg(4)->UseRealTime();

/// One repository edit + re-match per iteration: the serving pattern the
/// incremental layer exists for, measured end to end through the service.
void BM_ServiceEditRematch(benchmark::State& state) {
  std::unique_ptr<Workload> workload = Workload::Create();
  if (workload == nullptr) {
    state.SkipWithError("data/ schemas failed to load");
    return;
  }
  Thesaurus thesaurus = DefaultThesaurus();
  MatchService service(&thesaurus, &workload->repo);
  // Warm the pair once so every measured iteration is edit + rematch.
  MatchRequest request = workload->Request(2, /*use_result_cache=*/false,
                                           /*use_session=*/true);
  if (!service.Match(request).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  int64_t incremental = 0, total = 0;
  int counter = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SchemaEdit edit = SchemaEdit::RenameElement(
        EditSide::kSource, counter % 2 == 0 ? "PO.POLines.Item.Qty"
                                            : "PO.POLines.Item.Quantity",
        counter % 2 == 0 ? "Quantity" : "Qty");
    ++counter;
    if (!workload->repo.ApplyEdit("po", edit).ok()) {
      state.SkipWithError("edit failed");
      break;
    }
    state.ResumeTiming();
    auto response = service.Match(request);
    if (!response.ok()) {
      state.SkipWithError("match failed");
      break;
    }
    ++total;
    if (response->incremental) ++incremental;
  }
  state.SetItemsProcessed(total);
  state.counters["incremental_rate"] =
      total == 0 ? 0.0
                 : static_cast<double>(incremental) /
                       static_cast<double>(total);
}
BENCHMARK(BM_ServiceEditRematch)->UseRealTime();

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

/// Appends `"key":{...}` exactly as MatchResponse::ToJson writes a mapping,
/// but with every number printed by printf's %.6f.
void AppendReferenceMapping(const char* key, const Mapping& mapping,
                            std::string* out) {
  *out += '"';
  *out += key;
  *out += "\":{\"source_schema\":\"";
  JsonEscapeTo(mapping.source_schema, out);
  *out += "\",\"target_schema\":\"";
  JsonEscapeTo(mapping.target_schema, out);
  *out += "\",\"elements\":[";
  for (size_t i = 0; i < mapping.elements.size(); ++i) {
    const MappingElement& e = mapping.elements[i];
    if (i > 0) *out += ',';
    *out += "{\"source\":\"";
    JsonEscapeTo(e.source_path, out);
    *out += "\",\"target\":\"";
    JsonEscapeTo(e.target_path, out);
    char numbers[1024];
    std::snprintf(numbers, sizeof(numbers),
                  "\",\"wsim\":%.6f,\"ssim\":%.6f,\"lsim\":%.6f}", e.wsim,
                  e.ssim, e.lsim);
    *out += numbers;
  }
  *out += "]}";
}

/// The mapping section of a ToJson(true) payload: from "leaf_mapping" to
/// the end of "nonleaf_mapping" (the payload's closing brace excluded).
std::string MappingSection(const std::string& json) {
  size_t at = json.find("\"leaf_mapping\":");
  if (at == std::string::npos || json.empty()) return "";
  return json.substr(at, json.size() - 1 - at);
}

/// Correctness guard: a mixed workload (all pairs, cache on/off, edits of
/// every kind in between, warm sessions replaying them) where every
/// response must reproduce the direct CupidMatcher::Match mappings exactly
/// and render them byte for byte as printf would. CI requires both
/// counters == 0.
void BM_ServiceEqualsDirect(benchmark::State& state) {
  double mapping_mismatches = 0.0;
  double render_mismatches = 0.0;
  Element added;
  added.name = "lineNote";
  added.kind = ElementKind::kAtomic;
  added.data_type = DataType::kString;
  // (round, schema, edit): the cidx/excel pair runs on a warm session, so
  // its add and remove go through the session's node correspondence.
  const std::vector<std::tuple<int, std::string, SchemaEdit>> edits = {
      {3, "excel",
       SchemaEdit::AddElement(EditSide::kTarget, "PurchaseOrder.Items.Item",
                              added)},
      {4, "po",
       SchemaEdit::RenameElement(EditSide::kSource, "PO.POLines.Item.Qty",
                                 "Quantity")},
      {6, "cidx",
       SchemaEdit::RemoveElement(EditSide::kSource,
                                 "PO.Contact.ContactFunctionCode")},
      {8, "star",
       SchemaEdit::ChangeDataType(EditSide::kSource, "star.SALES.UnitPrice",
                                  DataType::kDecimal)}};
  for (auto _ : state) {
    std::unique_ptr<Workload> workload = Workload::Create();
    if (workload == nullptr) {
      state.SkipWithError("data/ schemas failed to load");
      return;
    }
    Thesaurus thesaurus = DefaultThesaurus();
    MatchService service(&thesaurus, &workload->repo);
    CupidMatcher matcher(&thesaurus, CupidConfig());
    for (int round = 0; round < 12; ++round) {
      for (const auto& [at, schema, edit] : edits) {
        if (at == round && !workload->repo.ApplyEdit(schema, edit).ok()) {
          state.SkipWithError("edit failed");
          return;
        }
      }
      MatchRequest request = workload->Request(
          static_cast<size_t>(round), /*use_result_cache=*/round % 2 == 0,
          /*use_session=*/round % 3 != 2);
      auto response = service.Match(request);
      if (!response.ok()) {
        state.SkipWithError("match failed");
        return;
      }
      auto source =
          workload->repo.Get(response->source, response->source_version);
      auto target =
          workload->repo.Get(response->target, response->target_version);
      auto ref = matcher.Match(**source, **target);
      if (!ref.ok()) {
        state.SkipWithError("direct match failed");
        return;
      }
      if (!SameMapping(response->leaf_mapping, ref->leaf_mapping) ||
          !SameMapping(response->nonleaf_mapping, ref->nonleaf_mapping)) {
        ++mapping_mismatches;
      }
      std::string want;
      AppendReferenceMapping("leaf_mapping", ref->leaf_mapping, &want);
      want += ',';
      AppendReferenceMapping("nonleaf_mapping", ref->nonleaf_mapping, &want);
      if (MappingSection(response->ToJson(true)) != want) {
        ++render_mismatches;
      }
    }
  }
  state.counters["mapping_mismatches"] = mapping_mismatches;
  state.counters["render_mismatches"] = render_mismatches;
}
BENCHMARK(BM_ServiceEqualsDirect)->Iterations(1);

/// Cold matches through the service: 6 synthetic sources x 6 targets,
/// cycled in a fixed shuffled order past a 16-session LRU with the result
/// cache off, so every request builds a cold session — while its source's
/// other sessions keep that source's LsimCache alive and warm. Every
/// response is compared against a direct CupidMatcher::Match computed up
/// front; CI requires mapping_mismatches == 0.
void BM_ServiceColdGrid(benchmark::State& state) {
  constexpr int kSide = 6;
  SchemaRepository repo;
  for (int i = 0; i < kSide; ++i) {
    SyntheticOptions options;
    options.num_elements = 96;
    options.seed = 6100 + static_cast<uint64_t>(i);
    SyntheticPair pair = GenerateSyntheticPair(options);
    if (!repo.Register("s" + std::to_string(i), std::move(pair.source))
             .ok() ||
        !repo.Register("t" + std::to_string(i), std::move(pair.target))
             .ok()) {
      state.SkipWithError("register failed");
      return;
    }
  }
  Thesaurus thesaurus = DefaultThesaurus();
  const CupidConfig config = CupidConfig();
  // Row-major pairs visited by a fixed stride coprime with 36: every pair
  // once per cycle, sources interleaved as in a shuffled workload.
  std::vector<MatchRequest> requests;
  std::vector<std::pair<Mapping, Mapping>> want;
  CupidMatcher matcher(&thesaurus, config);
  for (int k = 0; k < kSide * kSide; ++k) {
    const int pair = (k * 7) % (kSide * kSide);
    MatchRequest request;
    request.source = "s" + std::to_string(pair / kSide);
    request.target = "t" + std::to_string(pair % kSide);
    request.config = config;
    request.use_result_cache = false;
    auto ref = matcher.Match(**repo.Get(request.source),
                             **repo.Get(request.target));
    if (!ref.ok()) {
      state.SkipWithError("direct match failed");
      return;
    }
    want.emplace_back(std::move(ref->leaf_mapping),
                      std::move(ref->nonleaf_mapping));
    requests.push_back(std::move(request));
  }

  obs::MetricsRegistry metrics;
  MatchService::Options options;
  options.result_cache_capacity = 0;
  options.session_capacity = 16;
  options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, options);
  double mapping_mismatches = 0.0;
  int64_t served = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < requests.size(); ++k) {
      auto response = service.Match(requests[k]);
      if (!response.ok()) {
        state.SkipWithError("match failed");
        return;
      }
      if (!SameMapping(response->leaf_mapping, want[k].first) ||
          !SameMapping(response->nonleaf_mapping, want[k].second)) {
        ++mapping_mismatches;
      }
    }
    served += static_cast<int64_t>(requests.size());
  }
  state.SetItemsProcessed(served);
  state.counters["mapping_mismatches"] = mapping_mismatches;
  state.counters["sessions_reused"] =
      static_cast<double>(service.cache_stats().sessions_reused);
  // Cold sessions whose versions another live session already matched.
  state.counters["artifact_hits"] = static_cast<double>(
      metrics.GetCounter("cupid.service.artifacts.hits", "")->value());
}
BENCHMARK(BM_ServiceColdGrid)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace cupid

BENCHMARK_MAIN();
