// The traced half: the same seeded request stream, replayed in-process on
// the same stack the server wires up (repository, match service,
// scheduler, corpus search, protocol executor), with a benchmark span
// around each call into a layer. Where one server request runs several
// layers inside a single library call, the replay also calls those layers'
// public functions separately on the same inputs and checks that the
// pieces reproduce the whole.

#include <filesystem>

#include "core/cupid_matcher.h"
#include "incremental/match_session.h"
#include "linguistic/linguistic_matcher.h"
#include "net/protocol.h"
#include "perfbench.h"
#include "replies.h"
#include "service/corpus_search.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "structural/tree_match.h"
#include "thesaurus/default_thesaurus.h"
#include "trace.h"
#include "tree/tree_builder.h"

namespace perfbench {

namespace {

/// Request ids of the span stream: primaries from 0, reads and
/// registrations in their own ranges.
constexpr int64_t kReadBase = 10000000;
constexpr int64_t kRegisterBase = 20000000;

class Replay {
 public:
  Replay(const RunOptions& options, const Inputs& in, ReplayResult* out)
      : options_(options), in_(in), out_(out),
        thesaurus_(cupid::DefaultThesaurus()),
        config_(DefaultRequestConfig()) {}

  void Run() {
    if (in_.workload == Workload::kEvolve) {
      // Durable like the evolve server: ApplyEdit pays the WAL append.
      std::string wal = options_.work_dir + "/replay-wal";
      std::filesystem::remove_all(wal);
      auto recovered = cupid::SchemaRepository::Recover(wal);
      if (!recovered.ok()) {
        Fail("replay repository: " + recovered.status().ToString());
        return;
      }
      repo_ = std::move(recovered).ValueOrDie();
    }
    cupid::MatchService service(&thesaurus_, &repo_);
    // A search in the server occupies one of its two workers and shards
    // its candidates over the other; the replay calls Search from its own
    // thread, so one worker reproduces that.
    cupid::JobScheduler::Options scheduler_options;
    scheduler_options.num_threads = in_.workload == Workload::kCorpusSearch
                                        ? options_.server_threads - 1
                                        : options_.server_threads;
    cupid::JobScheduler scheduler(&service, scheduler_options);
    cupid::CorpusSearchService search(&thesaurus_, &repo_, &scheduler);
    cupid::ProtocolExecutor::Options exec_options;
    exec_options.socket_mode = true;
    cupid::ProtocolExecutor executor(&thesaurus_, &repo_, &service,
                                     &scheduler, &search, /*broker=*/nullptr,
                                     exec_options);
    service_ = &service;
    executor_ = &executor;

    Register();
    switch (in_.workload) {
      case Workload::kColdMatch:
        for (int pair : in_.warmup) Execute(MatchLine(in_, pair, false));
        for (size_t k = 0; k < in_.primary.size() && out_->correct; ++k) {
          ColdRequest(static_cast<int64_t>(k), in_.primary[k]);
        }
        break;
      case Workload::kEvolve:
        EvolveSteps();
        break;
      case Workload::kCorpusSearch:
        for (size_t p = 0; p < in_.probes.size(); ++p) {
          Execute(SearchLine(in_, static_cast<int>(p)));
        }
        for (size_t k = 0; k < in_.primary.size() && out_->correct; ++k) {
          SearchRequest(static_cast<int64_t>(k), in_.primary[k]);
        }
        break;
    }
    scheduler.Shutdown();
    Collect();
    if (in_.workload == Workload::kEvolve) {
      repo_ = cupid::SchemaRepository();
      std::filesystem::remove_all(options_.work_dir + "/replay-wal");
    }
  }

 private:
  void Fail(const std::string& message) {
    out_->correct = false;
    if (out_->errors.size() < 20) out_->errors.push_back(message);
  }

  std::string Execute(const std::string& line) {
    std::string reply;
    executor_->Execute(0, line, [&reply](const std::string& r) { reply = r; });
    if (reply.find("\"status\":\"ok\"") == std::string::npos) {
      Fail("replay request failed: " + reply.substr(0, 300));
    }
    return reply;
  }

  cupid::MatchRequest Request(int pair) const {
    const PairInput& p = in_.pairs[static_cast<size_t>(pair)];
    cupid::MatchRequest request;
    request.source = in_.schemas[static_cast<size_t>(p.source)].name;
    request.target = in_.schemas[static_cast<size_t>(p.target)].name;
    request.config = config_;
    return request;
  }

  void Register() {
    for (size_t i = 0; i < in_.schemas.size(); ++i) {
      const SchemaInput& s = in_.schemas[i];
      const int64_t id = kRegisterBase + static_cast<int64_t>(i);
      Span root(&rec_, "register", id);
      {
        Span span(&rec_, "importers.parse", id);
        auto parsed =
            cupid::ParseSchemaText(cupid::SchemaFormat::kNative, s.name, s.text);
        if (!parsed.ok()) Fail("parse " + s.name);
      }
      Span span(&rec_, "repository.register", id);
      if (!repo_.RegisterText(s.name, cupid::SchemaFormat::kNative, s.text)
               .ok()) {
        Fail("register " + s.name);
      }
    }
  }

  /// One match through MatchService, its rendering, and the protocol
  /// round (whose service call is then a result-cache hit; the protocol
  /// share is the Execute span minus that hit and the render).
  cupid::Result<cupid::MatchResponse> MatchRenderProtocol(int64_t id,
                                                          int pair) {
    cupid::Result<cupid::MatchResponse> response =
        cupid::Status::Internal("not run");
    {
      Span span(&rec_, "service.match", id);
      response = service_->Match(Request(pair));
    }
    if (!response.ok()) {
      Fail("replay match: " + response.status().ToString());
      return response;
    }
    {
      Span span(&rec_, "mapping.render", id);
      rendered_ = response->ToJson(true);
    }
    std::string reply;
    {
      Span span(&rec_, "net.protocol", id);
      reply = Execute(MatchLine(in_, pair, true));
    }
    extra_[id]["net.protocol.service"] = FieldNumber(reply, "total_ms", 0);
    return response;
  }

  void ColdRequest(int64_t id, int pair) {
    Span root(&rec_, "request", id);
    auto response = MatchRenderProtocol(id, pair);
    if (!response.ok()) return;
    if (response->result_cache_hit || response->incremental) {
      Fail("replay cold_match request was not cold");
    }
    // The five cold phases of CupidMatcher::Match, called one by one.
    const PairInput& p = in_.pairs[static_cast<size_t>(pair)];
    const cupid::Schema& source = in_.schemas[static_cast<size_t>(p.source)].schema;
    const cupid::Schema& target = in_.schemas[static_cast<size_t>(p.target)].schema;
    cupid::LinguisticMatcher linguistic(&thesaurus_, config_.linguistic);
    cupid::Result<cupid::LinguisticResult> lres =
        cupid::Status::Internal("not run");
    {
      Span span(&rec_, "linguistic.match", id);
      lres = linguistic.Match(source, target);
    }
    cupid::Result<cupid::SchemaTree> source_tree =
        cupid::Status::Internal("not run");
    cupid::Result<cupid::SchemaTree> target_tree = source_tree;
    {
      Span span(&rec_, "tree.build", id);
      source_tree = cupid::BuildSchemaTree(source, config_.tree_build);
      target_tree = cupid::BuildSchemaTree(target, config_.tree_build);
    }
    if (!lres.ok() || !source_tree.ok() || !target_tree.ok()) {
      Fail("replay cold phases failed");
      return;
    }
    cupid::Result<cupid::TreeMatchResult> tm =
        cupid::Status::Internal("not run");
    {
      Span span(&rec_, "structural.treematch", id);
      tm = cupid::TreeMatch(*source_tree, *target_tree, lres->lsim,
                            config_.type_compatibility, config_.tree_match);
    }
    if (!tm.ok()) {
      Fail("replay TreeMatch failed");
      return;
    }
    cupid::Status recomputed;
    {
      Span span(&rec_, "structural.recompute", id);
      recomputed = cupid::RecomputeNonLeafSimilarities(
          *source_tree, *target_tree, config_.tree_match, &*tm);
    }
    cupid::MatchResponse pieces;
    cupid::Status generated;
    {
      Span span(&rec_, "mapping.generate", id);
      generated = cupid::GenerateStandardMappings(
          *source_tree, *target_tree, *tm, config_, &pieces.leaf_mapping,
          &pieces.nonleaf_mapping);
    }
    if (!recomputed.ok() || !generated.ok() ||
        MappingSection(pieces.ToJson(true)) != MappingSection(rendered_)) {
      Fail("the cold phases called one by one do not reproduce "
           "MatchService::Match for " + Request(pair).source + "/" +
           Request(pair).target);
    }
    auto& extra = extra_[id];
    extra["linguistic.comparisons"] = static_cast<double>(lres->comparisons);
    extra["structural.link_tests"] =
        static_cast<double>(tm->stats.link_tests);
  }

  void EvolveSteps() {
    // Prime like the subscriptions do: a warm service session per pair,
    // plus the replay's own warm MatchSession for incremental.rematch.
    std::vector<std::unique_ptr<cupid::MatchSession>> sessions;
    for (size_t p = 0; p < in_.pairs.size(); ++p) {
      if (!service_->Match(Request(static_cast<int>(p))).ok()) {
        Fail("replay prime failed");
        return;
      }
      const PairInput& pair = in_.pairs[p];
      sessions.push_back(std::make_unique<cupid::MatchSession>(
          &thesaurus_, in_.schemas[static_cast<size_t>(pair.source)].schema,
          in_.schemas[static_cast<size_t>(pair.target)].schema, config_));
      if (!sessions.back()->Rematch().ok()) {
        Fail("replay session prime failed");
        return;
      }
    }
    for (size_t k = 0; k < in_.steps.size() && out_->correct; ++k) {
      const EditStep& step = in_.steps[k];
      const int64_t id = static_cast<int64_t>(k);
      {
        Span root(&rec_, "request", id);
        {
          Span span(&rec_, "repository.apply_edit", id);
          auto version = repo_.ApplyEdit(
              in_.schemas[static_cast<size_t>(step.schema)].name, step.edit);
          if (!version.ok() || *version != step.version_after) {
            Fail("replay edit " + std::to_string(k) + " failed");
          }
        }
        cupid::Result<cupid::MatchResponse> response =
            cupid::Status::Internal("not run");
        {
          Span span(&rec_, "service.match", id);
          response = service_->Match(Request(step.pair));
        }
        if (!response.ok()) {
          Fail("replay push match failed");
          return;
        }
        {
          Span span(&rec_, "mapping.render", id);
          rendered_ = response->ToJson(true);
        }
        cupid::MatchSession* session =
            sessions[static_cast<size_t>(step.pair)].get();
        cupid::Result<const cupid::MatchResult*> rematch =
            cupid::Status::Internal("not run");
        {
          Span span(&rec_, "incremental.rematch", id);
          cupid::Status applied = session->ApplyEdit(step.edit);
          if (applied.ok()) rematch = session->Rematch();
        }
        if (!rematch.ok()) {
          Fail("replay rematch failed");
          return;
        }
        cupid::MatchResponse pieces;
        pieces.leaf_mapping = (*rematch)->leaf_mapping;
        pieces.nonleaf_mapping = (*rematch)->nonleaf_mapping;
        if (MappingSection(pieces.ToJson(true)) != MappingSection(rendered_)) {
          Fail("replay MatchSession disagrees with MatchService at step " +
               std::to_string(k));
        }
        const cupid::RematchStats& stats = session->last_stats();
        const cupid::MatchResult& result = **rematch;
        auto& extra = extra_[id];
        extra["incremental.pairs_reused_share"] =
            static_cast<double>(stats.tree_match.pairs_reused) /
            (static_cast<double>(result.source_tree.num_nodes()) *
             static_cast<double>(result.target_tree.num_nodes()));
        extra["incremental.gathered_rows_share"] =
            static_cast<double>(stats.lsim_gathered_rows) /
            static_cast<double>(session->source().num_elements());
        extra["structural.link_tests"] =
            static_cast<double>(stats.tree_match.link_tests);
        if (!response->incremental) {
          Fail("replay push match " + std::to_string(k) +
               " was not incremental");
        }
      }
      for (int q : step.reads) Read(read_id_++, q);
    }
  }

  void SearchRequest(int64_t id, int probe) {
    std::string reply;
    {
      Span root(&rec_, "request", id);
      Span span(&rec_, "net.protocol", id);
      reply = Execute(SearchLine(in_, probe));
    }
    // Search is one library call: its share comes from the response's own
    // timings (total, pre-screen, sharded match).
    auto& extra = extra_[id];
    const double total = FieldNumber(reply, "total_ms", 0);
    extra["net.protocol.service"] = total;
    extra["corpus.search"] = total;
    extra["corpus.prescreen"] = FieldNumber(reply, "prescreen_ms", 0);
    extra["corpus.match"] = FieldNumber(reply, "match_ms", 0);
    const double candidates = FieldNumber(reply, "candidates_total", 0);
    extra["corpus.full_matches"] = FieldNumber(reply, "full_matches", 0);
    extra["corpus.pruned_share"] =
        candidates > 0 ? FieldNumber(reply, "candidates_pruned", 0) / candidates
                       : 0.0;
  }

  void Read(int64_t id, int pair) {
    Span root(&rec_, "read", id);
    auto response = MatchRenderProtocol(id, pair);
    if (response.ok() && !response->result_cache_hit) {
      Fail("replay read missed the result cache");
    }
  }

  /// Folds spans and per-request extras into the result rows.
  void Collect() {
    auto self = rec_.SelfMsByRequest();
    for (auto& [id, row] : self) {
      row.erase("request");
      row.erase("read");
      row.erase("register");
      auto extra = extra_.find(id);
      if (extra != extra_.end()) {
        for (const auto& [name, value] : extra->second) row[name] = value;
      }
      auto service = row.find("net.protocol.service");
      if (service != row.end()) {
        // Execute minus the service call inside it, minus rendering.
        double render = row.count("mapping.render") ? row["mapping.render"] : 0;
        row["net.protocol"] -= service->second + render;
        row.erase(service);
      }
      if (in_.workload == Workload::kColdMatch && id < kReadBase) {
        row["service.session"] =
            row["service.match"] - row["linguistic.match"] - row["tree.build"] -
            row["structural.treematch"] - row["structural.recompute"] -
            row["mapping.generate"];
      }
      if (in_.workload == Workload::kEvolve && id < kReadBase) {
        row["service.session"] =
            row["service.match"] - row["incremental.rematch"];
      }
      if (in_.workload == Workload::kCorpusSearch && id < kReadBase) {
        row["corpus.search.self"] =
            row["corpus.search"] - row["corpus.prescreen"] - row["corpus.match"];
      }
      if (id >= kRegisterBase) {
        out_->registrations.push_back(std::move(row));
      } else if (id >= kReadBase) {
        out_->reads.push_back(std::move(row));
      } else {
        out_->primary.push_back(std::move(row));
      }
    }
    out_->span_file = options_.work_dir + "/spans-" +
                      WorkloadName(in_.workload) + "-" +
                      std::to_string(options_.seed) + ".jsonl";
    if (!rec_.WriteJsonl(out_->span_file)) out_->span_file.clear();
  }

  const RunOptions& options_;
  const Inputs& in_;
  ReplayResult* out_;
  cupid::Thesaurus thesaurus_;
  cupid::CupidConfig config_;
  cupid::SchemaRepository repo_;
  cupid::MatchService* service_ = nullptr;
  cupid::ProtocolExecutor* executor_ = nullptr;
  SpanRecorder rec_;
  std::map<int64_t, std::map<std::string, double>> extra_;
  std::string rendered_;
  int64_t read_id_ = kReadBase;
};

}  // namespace

ReplayResult RunTracedReplay(const RunOptions& options, const Inputs& in) {
  ReplayResult out;
  Replay(options, in, &out).Run();
  return out;
}

}  // namespace perfbench
