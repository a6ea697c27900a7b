// cupid_perfbench — one run of the repository benchmark.
//
//   cupid_perfbench --workload cold_match|evolve|corpus_search --seed N
//                   --seconds S --trace 0|1 [--tiny] [--server-threads N]
//                   [--request-timeout S]
//
// --trace 0 prints the end-to-end metrics of the untraced server run;
// --trace 1 additionally runs the stream against a server with its own
// tracing on (for obs.trace_overhead), replays it in-process with spans,
// and prints the per-layer ledger and metrics. The last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when any reply failed the correctness gate. perfbench/README.md
// defines the workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cupid_perfbench --workload cold_match|evolve|"
               "corpus_search --seed N --seconds S --trace 0|1 [--tiny]\n"
               "       [--server-threads N] [--request-timeout S]\n");
  return 2;
}

/// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// The `q` percentile of each of kBlocks consecutive blocks of `v`.
std::vector<double> PerBlock(const std::vector<double>& v, double q) {
  if (v.size() < kBlocks) return {Percentile(v, q)};
  std::vector<double> per_block;
  for (size_t b = 0; b < kBlocks; ++b) {
    per_block.push_back(Percentile(
        std::vector<double>(v.begin() + b * v.size() / kBlocks,
                            v.begin() + (b + 1) * v.size() / kBlocks),
        q));
  }
  return per_block;
}

/// An end-to-end percentile is the median of the blocks' percentiles, so
/// a burst of host contention that covers one block does not move it.
double BlockPercentile(const std::vector<double>& v, double q) {
  return Median(PerBlock(v, q));
}

/// Median of `name` over the rows that recorded it; 0 when none did.
double MedianOf(const std::vector<std::map<std::string, double>>& rows,
                const std::string& name) {
  std::vector<double> values;
  for (const auto& row : rows) {
    auto it = row.find(name);
    if (it != row.end()) values.push_back(it->second);
  }
  return Median(values);
}

/// Primary requests first; the reads when no primary ran the layer.
double LayerMedian(const ReplayResult& replay, const std::string& name) {
  for (const auto* rows : {&replay.primary, &replay.reads}) {
    for (const auto& row : *rows) {
      if (row.count(name)) return MedianOf(*rows, name);
    }
  }
  return 0.0;
}

double CounterValue(const ServerRunResult& r, const std::string& name) {
  auto it = r.counters.find(name);
  return it == r.counters.end() ? 0.0 : it->second.value;
}

double HistogramMean(const ServerRunResult& r, const std::string& name) {
  auto it = r.counters.find(name);
  if (it == r.counters.end() || it->second.count <= 0) return 0.0;
  return it->second.sum_ms / it->second.count;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<double> Differences(const std::vector<double>& a,
                                const std::vector<double>& b) {
  std::vector<double> out;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    out.push_back(a[i] - b[i]);
  }
  return out;
}

double CpuMsPerOp(const ServerRunResult& r) {
  return r.latency_ms.empty()
             ? 0.0
             : r.server_cpu_ms / static_cast<double>(r.latency_ms.size());
}

std::vector<Metric> EndToEndMetrics(const ServerRunResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"latency_ms_p50", BlockPercentile(r.latency_ms, 0.50), "ms"},
      {"server_cpu_ms_per_op", CpuMsPerOp(r), "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
  };
}

struct LedgerRow {
  std::string layer;
  double ms;
};

/// The layers a primary request passes through, in order, with their
/// median self times; they should add up to latency_ms_p50.
std::vector<LedgerRow> Ledger(Workload w, const ReplayResult& replay,
                              double transport_ms) {
  auto m = [&](const char* name) { return LayerMedian(replay, name); };
  switch (w) {
    case Workload::kColdMatch:
      return {{"tree.build", m("tree.build")},
              {"linguistic.match", m("linguistic.match")},
              {"structural.treematch", m("structural.treematch")},
              {"structural.recompute", m("structural.recompute")},
              {"mapping.generate", m("mapping.generate")},
              {"service.session", m("service.session")},
              {"mapping.render", m("mapping.render")},
              {"net.protocol", m("net.protocol")},
              {"net.transport", transport_ms}};
    case Workload::kEvolve:
      return {{"repository.apply_edit", m("repository.apply_edit")},
              {"incremental.rematch", m("incremental.rematch")},
              {"service.session", m("service.session")},
              {"mapping.render", m("mapping.render")},
              {"net.transport", transport_ms}};
    case Workload::kCorpusSearch:
      return {{"corpus.prescreen", m("corpus.prescreen")},
              {"corpus.match", m("corpus.match")},
              {"corpus.search.self", m("corpus.search.self")},
              {"net.protocol", m("net.protocol")},
              {"net.transport", transport_ms}};
  }
  return {};
}

const char* LedgerGap(Workload w) {
  switch (w) {
    case Workload::kColdMatch:
      return "scheduler dispatch and request parse inside the round trip";
    case Workload::kEvolve:
      return "edit parse + broker notify + scheduler queue + push write "
             "(see net.push_ms, scheduler.queue_ms)";
    case Workload::kCorpusSearch:
      return "scheduler dispatch and request parse inside the round trip";
  }
  return "";
}

std::vector<Metric> PerLayerMetrics(Workload w, const ServerRunResult& r,
                                    const ReplayResult& replay) {
  auto m = [&](const char* name) { return LayerMedian(replay, name); };
  const double latency_p50 = BlockPercentile(r.latency_ms, 0.50);

  // Client round trip minus the server's own time for the request, then
  // minus the render and protocol shares measured in the replay. evolve
  // measures it on its reads (same reply size as a push; a push has no
  // single request to time).
  const bool on_reads = w == Workload::kEvolve;
  const double wire = Median(on_reads
                                 ? Differences(r.read_ms, r.read_server_ms)
                                 : Differences(r.latency_ms,
                                               r.latency_server_ms));
  const auto& rows = on_reads ? replay.reads : replay.primary;
  const double transport = wire - MedianOf(rows, "mapping.render") -
                           MedianOf(rows, "net.protocol");

  double ledger_ms = 0;
  std::vector<LedgerRow> ledger = Ledger(w, replay, transport);
  for (const LedgerRow& row : ledger) ledger_ms += row.ms;
  const double coverage = latency_p50 > 0 ? ledger_ms / latency_p50 : 0.0;

  std::printf("ledger (%s, median self time per primary request; "
              "latency_ms_p50 = %.3f ms)\n",
              WorkloadName(w), latency_p50);
  for (const LedgerRow& row : ledger) {
    std::printf("  %-24s %10.3f ms  %6.1f%%\n", row.layer.c_str(), row.ms,
                latency_p50 > 0 ? 100.0 * row.ms / latency_p50 : 0.0);
  }
  std::printf("  %-24s %10.3f ms  coverage %.3f\n", "sum", ledger_ms,
              coverage);
  if (coverage < 0.9) {
    std::printf("  unaccounted %.3f ms: %s\n", latency_p50 - ledger_ms,
                LedgerGap(w));
  }

  const double hits = CounterValue(r, "cupid.service.result_cache.hits");
  const double lookups =
      hits + CounterValue(r, "cupid.service.result_cache.misses");
  const double shared_hits = CounterValue(r, "cupid.corpus.shared_cache.hits");
  const double shared_total =
      shared_hits + CounterValue(r, "cupid.corpus.shared_cache.misses");
  const double primaries = static_cast<double>(r.latency_ms.size());
  return {
      {"importers.parse_ms", MedianOf(replay.registrations, "importers.parse"),
       "ms"},
      {"repository.register_ms",
       MedianOf(replay.registrations, "repository.register"), "ms"},
      {"repository.apply_edit_ms", m("repository.apply_edit"), "ms"},
      {"storage.compactions", CounterValue(r, "cupid.repo.compactions"),
       "count"},
      {"storage.wal_append_ms", HistogramMean(r, "cupid.wal.append_ms"), "ms"},
      {"repository.versions", static_cast<double>(r.versions_retained),
       "count"},
      {"linguistic.match_ms", m("linguistic.match"), "ms"},
      {"linguistic.comparisons", m("linguistic.comparisons"), "count"},
      {"tree.build_ms", m("tree.build"), "ms"},
      {"structural.treematch_ms", m("structural.treematch"), "ms"},
      {"structural.link_tests", m("structural.link_tests"), "count"},
      {"structural.recompute_ms", m("structural.recompute"), "ms"},
      {"mapping.generate_ms", m("mapping.generate"), "ms"},
      {"mapping.render_ms", m("mapping.render"), "ms"},
      {"incremental.rematch_ms", m("incremental.rematch"), "ms"},
      {"incremental.rate",
       primaries > 0 ? static_cast<double>(r.incremental_primaries) / primaries
                     : 0.0,
       "ratio"},
      {"incremental.pairs_reused_share", m("incremental.pairs_reused_share"),
       "ratio"},
      {"incremental.gathered_rows_share", m("incremental.gathered_rows_share"),
       "ratio"},
      {"service.match_ms", m("service.match"), "ms"},
      {"service.session_ms", m("service.session"), "ms"},
      {"service.sessions_evicted",
       CounterValue(r, "cupid.service.sessions.evicted"), "count"},
      {"service.result_hit_rate",
       lookups > 0 ? hits / lookups : 0.0,
       "ratio"},
      {"corpus.search_ms", m("corpus.search"), "ms"},
      {"corpus.prescreen_ms", m("corpus.prescreen"), "ms"},
      {"corpus.match_ms", m("corpus.match"), "ms"},
      {"corpus.full_matches", m("corpus.full_matches"), "count"},
      {"corpus.pruned_share", m("corpus.pruned_share"), "ratio"},
      {"corpus.shared_cache_hit_rate",
       shared_total > 0 ? shared_hits / shared_total : 0.0, "ratio"},
      {"scheduler.queue_ms", HistogramMean(r, "cupid.scheduler.queue_ms"),
       "ms"},
      {"net.protocol_ms", m("net.protocol"), "ms"},
      {"net.transport_ms", transport, "ms"},
      {"net.push_ms", HistogramMean(r, "cupid.net.push_ms"), "ms"},
      {"obs.trace_overhead",
       latency_p50 > 0
           ? BlockPercentile(r.traced_latency_ms, 0.50) / latency_p50
           : 0.0,
       "ratio"},
      {"ledger.coverage", coverage, "ratio"},
  };
}

void PrintDiagnostics(Workload w, const ServerRunResult& r) {
  std::printf("workload %s: requests sent=%lld ok=%lld failed=%lld "
              "timed_out=%lld\n",
              WorkloadName(w), static_cast<long long>(r.sent),
              static_cast<long long>(r.ok), static_cast<long long>(r.failed),
              static_cast<long long>(r.timed_out));
  std::printf("  primary: n=%zu p50=%.3f p90=%.3f p99=%.3f ms (all samples), "
              "%.1f ops/s over %.2f s, host steal %.1f%%\n",
              r.latency_ms.size(), Percentile(r.latency_ms, 0.5),
              Percentile(r.latency_ms, 0.9), Percentile(r.latency_ms, 0.99),
              r.timed_phase_s > 0
                  ? static_cast<double>(r.latency_ms.size()) / r.timed_phase_s
                  : 0.0,
              r.timed_phase_s, 100.0 * r.steal_share);
  std::printf("  primary p90 (median of blocks) %.3f ms; p50 per block:",
              BlockPercentile(r.latency_ms, 0.90));
  for (double p50 : PerBlock(r.latency_ms, 0.5)) std::printf(" %.2f", p50);
  std::printf("\n");
  if (!r.traced_latency_ms.empty()) {
    std::printf("  self-tracing server (CUPID_TRACE=1): p50 per block:");
    for (double p50 : PerBlock(r.traced_latency_ms, 0.5)) {
      std::printf(" %.2f", p50);
    }
    std::printf("\n");
  }
  std::printf("  server during the timed phase: %.0f ms CPU, %.0f minor "
              "faults\n",
              r.server_cpu_ms, r.server_minor_faults);
  auto fsync = r.counters.find("cupid.wal.fsync_ms");
  if (fsync != r.counters.end() && fsync->second.count > 0) {
    std::printf("  WAL fsync: %.0f calls, mean %.3f ms\n", fsync->second.count,
                fsync->second.sum_ms / fsync->second.count);
  }
  std::printf("  reads: n=%zu p50=%.3f p90=%.3f p99=%.3f ms (all samples)\n",
              r.read_ms.size(), Percentile(r.read_ms, 0.5),
              Percentile(r.read_ms, 0.9), Percentile(r.read_ms, 0.99));
  std::printf("  setup_s samples:");
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("; reference checks %.2f s\n", r.verify_s);
}

void PrintResult(bool correct, const ServerRunResult& r,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(std::max<int64_t>(1, r.sent));
  out += ",\"failed\":" + std::to_string(r.failed + r.timed_out);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" + value +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.server_binary = CUPID_SERVER_BINARY;
  std::string workload;
  bool tiny = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(v);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || options.trace;
    } else if (flag == "--server-threads") {
      options.server_threads = std::atoi(v);
    } else if (flag == "--request-timeout") {
      options.request_timeout_s = std::atof(v);
    } else {
      return Usage();
    }
  }
  if (workload == "cold_match") {
    options.workload = Workload::kColdMatch;
  } else if (workload == "evolve") {
    options.workload = Workload::kEvolve;
  } else if (workload == "corpus_search") {
    options.workload = Workload::kCorpusSearch;
  } else {
    return Usage();
  }
  if (!have_seed || !have_seconds || !have_trace ||
      options.server_threads < 1 || options.request_timeout_s <= 0) {
    return Usage();
  }
  options.sizes = tiny ? Sizes::Tiny() : Sizes();
  // A traced run prints no setup_s; one server start is enough.
  if (options.trace) options.setup_repeats = 1;
  options.work_dir =
      ".bench_build/work/" + workload + "-" + std::to_string(options.seed);
  std::filesystem::create_directories(options.work_dir);

  Inputs inputs = MakeInputs(options.workload, options.seed, options.seconds,
                             options.sizes);
  ServerRunResult server = RunAgainstServer(options, inputs);
  PrintDiagnostics(options.workload, server);
  bool correct = server.correct;
  for (const std::string& e : server.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = EndToEndMetrics(server);
  } else {
    ReplayResult replay = RunTracedReplay(options, inputs);
    for (const std::string& e : replay.errors) {
      std::fprintf(stderr, "perfbench: replay: %s\n", e.c_str());
    }
    correct = correct && replay.correct;
    metrics = PerLayerMetrics(options.workload, server, replay);
    if (!replay.span_file.empty()) {
      std::printf("spans written to %s\n", replay.span_file.c_str());
    }
  }
  PrintResult(correct, server, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
