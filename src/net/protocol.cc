#include "net/protocol.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/cupid_matcher.h"
#include "importers/schema_io.h"
#include "incremental/schema_edit.h"
#include "obs/metrics.h"
#include "schema/data_type.h"
#include "util/strings.h"

namespace cupid {

namespace {

void WriteDurabilityJson(const DurabilityStats& stats, JsonWriter* w) {
  w->BeginObject();
  w->Key("degraded");
  w->Bool(stats.degraded);
  w->Key("applied_seq");
  w->UInt(stats.applied_seq);
  w->Key("snapshot_seq");
  w->UInt(stats.snapshot_seq);
  w->Key("wal_records");
  w->UInt(stats.wal_records);
  w->Key("wal_bytes");
  w->Int(stats.wal_bytes);
  w->Key("snapshots_written");
  w->UInt(stats.snapshots_written);
  w->Key("snapshot_failures");
  w->UInt(stats.snapshot_failures);
  w->Key("recovered_records");
  w->UInt(stats.recovered_records);
  w->Key("recovered_bytes_dropped");
  w->Int(stats.recovered_bytes_dropped);
  w->Key("recovered_tail_dropped");
  w->Bool(stats.recovered_tail_dropped);
  w->EndObject();
}

/// Applies an optional "config" sub-object onto `config`. Every match runs
/// on one thread; concurrency comes from the scheduler's workers, so a
/// client cannot choose a thread count.
Status ApplyConfigJson(const JsonValue& v, CupidConfig* out) {
  const JsonValue* config = v.Find("config");
  if (config == nullptr) return Status::OK();
  if (!config->is_object()) {
    return Status::InvalidArgument("config must be an object");
  }
  double th = config->GetNumber("th_accept", 0.5);
  out->mapping.th_accept = th;
  out->tree_match.th_accept = th;
  out->tree_match.th_low = std::min(out->tree_match.th_low, th);
  out->tree_match.th_high = std::max(out->tree_match.th_high, th);
  if (config->GetBool("one_to_one", false)) {
    out->mapping.cardinality = MappingCardinality::kOneToOneStable;
  }
  return Status::OK();
}

/// Builds a MatchRequest from the fields of a match/batch JSON object.
Result<MatchRequest> ParseMatchRequest(const JsonValue& v) {
  MatchRequest request;
  request.source = v.GetString("source");
  request.target = v.GetString("target");
  if (request.source.empty() || request.target.empty()) {
    return Status::InvalidArgument("match needs source and target");
  }
  CUPID_ASSIGN_OR_RETURN(request.source_version,
                         v.GetCheckedInt("source_version", 0));
  CUPID_ASSIGN_OR_RETURN(request.target_version,
                         v.GetCheckedInt("target_version", 0));
  request.use_result_cache = v.GetBool("use_result_cache", true);
  request.use_session = v.GetBool("use_session", true);
  CUPID_RETURN_NOT_OK(ApplyConfigJson(v, &request.config));
  CUPID_RETURN_NOT_OK(request.config.Validate());
  return request;
}

/// Builds a SearchRequest from the fields of a search JSON object. Knob
/// validation is left to SearchRequest::Validate inside the service.
Result<SearchRequest> ParseSearchRequest(const JsonValue& v) {
  SearchRequest request;
  request.source = v.GetString("source");
  if (request.source.empty()) {
    return Status::InvalidArgument("search needs source");
  }
  CUPID_ASSIGN_OR_RETURN(request.source_version,
                         v.GetCheckedInt("source_version", 0));
  CUPID_ASSIGN_OR_RETURN(request.top_k,
                         v.GetCheckedInt("top_k", request.top_k));
  request.exhaustive = v.GetBool("exhaustive", request.exhaustive);
  request.prune = v.GetBool("prune", request.prune);
  request.prune_fraction =
      v.GetNumber("prune_fraction", request.prune_fraction);
  CUPID_ASSIGN_OR_RETURN(
      request.prune_min_keep,
      v.GetCheckedInt("prune_min_keep", request.prune_min_keep));
  CUPID_RETURN_NOT_OK(ApplyConfigJson(v, &request.config));
  return request;
}

Result<SchemaEdit> ParseEdit(const JsonValue& v) {
  std::string op = v.GetString("op");
  std::string path = v.GetString("path");
  if (op == "rename") {
    std::string to = v.GetString("to");
    if (path.empty() || to.empty()) {
      return Status::InvalidArgument("rename needs path and to");
    }
    return SchemaEdit::RenameElement(EditSide::kSource, path, to);
  }
  if (op == "retype") {
    CUPID_ASSIGN_OR_RETURN(DataType type,
                           DataTypeFromName(v.GetString("type")));
    if (path.empty()) return Status::InvalidArgument("retype needs path");
    return SchemaEdit::ChangeDataType(EditSide::kSource, path, type);
  }
  if (op == "add") {
    std::string parent = v.GetString("parent");
    std::string leaf_name = v.GetString("leaf");
    if (parent.empty() || leaf_name.empty()) {
      return Status::InvalidArgument("add needs parent and leaf");
    }
    Element leaf;
    leaf.name = leaf_name;
    leaf.kind = ElementKind::kAtomic;
    leaf.data_type = DataType::kString;
    if (const JsonValue* type = v.Find("type")) {
      CUPID_ASSIGN_OR_RETURN(leaf.data_type, DataTypeFromName(type->string));
    }
    leaf.optional = v.GetBool("optional", false);
    return SchemaEdit::AddElement(EditSide::kSource, parent, std::move(leaf));
  }
  if (op == "remove") {
    if (path.empty()) return Status::InvalidArgument("remove needs path");
    return SchemaEdit::RemoveElement(EditSide::kSource, path);
  }
  return Status::InvalidArgument("unknown edit op: " + op);
}

/// Re-runs `response`'s request directly through CupidMatcher and compares
/// mappings value-for-value ("ok" / "mismatch: <detail>").
std::string Selfcheck(const MatchResponse& response,
                      const SchemaRepository& repo, const Thesaurus& thesaurus,
                      const CupidConfig& config) {
  auto source = repo.Get(response.source, response.source_version);
  auto target = repo.Get(response.target, response.target_version);
  if (!source.ok() || !target.ok()) return "mismatch: schema gone";
  CupidMatcher matcher(&thesaurus, config);
  auto ref = matcher.Match(**source, **target);
  if (!ref.ok()) return "mismatch: direct match failed";
  auto compare = [](const Mapping& got, const Mapping& want,
                    const char* which) -> std::string {
    if (got.size() != want.size()) {
      return StringFormat("mismatch: %s size %zu != %zu", which, got.size(),
                          want.size());
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (got.elements[i].source_path != want.elements[i].source_path ||
          got.elements[i].target_path != want.elements[i].target_path ||
          got.elements[i].wsim != want.elements[i].wsim ||
          got.elements[i].ssim != want.elements[i].ssim ||
          got.elements[i].lsim != want.elements[i].lsim) {
        return StringFormat("mismatch: %s element %zu", which, i);
      }
    }
    return "";
  };
  std::string leaf = compare(response.leaf_mapping, ref->leaf_mapping, "leaf");
  if (!leaf.empty()) return leaf;
  std::string nonleaf =
      compare(response.nonleaf_mapping, ref->nonleaf_mapping, "nonleaf");
  if (!nonleaf.empty()) return nonleaf;
  // The reply carries the stored rendering, not the mappings above.
  if (response.mapping_json != nullptr &&
      *response.mapping_json !=
          RenderMappingMembers(ref->leaf_mapping, ref->nonleaf_mapping,
                               /*renders=*/nullptr)) {
    return "mismatch: rendered mappings";
  }
  return "ok";
}

/// Small ok-response builder for commands whose payload is a few scalar
/// fields (register/edit/save/subscribe/...).
class OkFrame {
 public:
  explicit OkFrame(const std::string& cmd) {
    w_.BeginObject();
    w_.Key("v");
    w_.Int(kProtocolVersion);
    w_.Key("status");
    w_.String("ok");
    w_.Key("cmd");
    w_.String(cmd);
  }
  OkFrame& Str(const char* key, const std::string& value) {
    w_.Key(key);
    w_.String(value);
    return *this;
  }
  OkFrame& Int(const char* key, int64_t value) {
    w_.Key(key);
    w_.Int(value);
    return *this;
  }
  std::string Finish() {
    w_.EndObject();
    return w_.str();
  }

 private:
  JsonWriter w_;
};

/// The pair fields of subscribe/unsubscribe: "source"/"target", with
/// "src"/"tgt" accepted as aliases.
Status ParsePair(const JsonValue& v, std::string* source,
                 std::string* target) {
  *source = v.GetString("source", v.GetString("src"));
  *target = v.GetString("target", v.GetString("tgt"));
  if (source->empty() || target->empty()) {
    return Status::InvalidArgument("needs source (src) and target (tgt)");
  }
  return Status::OK();
}

}  // namespace

ProtocolExecutor::ProtocolExecutor(const Thesaurus* thesaurus,
                                   SchemaRepository* repository,
                                   MatchService* service,
                                   JobScheduler* scheduler,
                                   CorpusSearchService* search,
                                   SubscriptionBroker* broker, Options options)
    : thesaurus_(thesaurus),
      repository_(repository),
      service_(service),
      scheduler_(scheduler),
      search_(search),
      broker_(broker),
      options_(options) {}

std::string ProtocolExecutor::ErrorFrame(const std::string& cmd,
                                         const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  w.Key("status");
  w.String("error");
  w.Key("cmd");
  w.String(cmd);
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeToString(status.code()));
  w.Key("message");
  w.String(status.message());
  w.EndObject();
  w.EndObject();
  return w.str();
}

Result<MatchResponse> ProtocolExecutor::RunMatch(MatchRequest request) {
  if (options_.socket_mode || scheduler_ == nullptr) {
    // Already on a scheduler worker (or there is no scheduler): run the
    // request here. Submitting and waiting from a worker would deadlock a
    // pool whose every worker does the same.
    return service_->Match(std::move(request));
  }
  auto job = scheduler_->Submit(std::move(request));
  if (!job.ok()) return job.status();
  return (*job)->Wait();
}

bool ProtocolExecutor::EmitMatchResponse(const MatchResponse& response,
                                         const CupidConfig& config,
                                         bool include_mappings,
                                         const Sink& sink) {
  // The protocol version up front, the response's own members (its stored
  // mapping JSON spliced in), then status (and selfcheck) at the tail.
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  response.WriteJsonFields(include_mappings, &w);
  w.Key("status");
  w.String("ok");
  bool ok = true;
  if (options_.selfcheck) {
    std::string verdict =
        Selfcheck(response, *repository_, *thesaurus_, config);
    w.Key("selfcheck");
    w.String(verdict);
    if (verdict != "ok") ok = false;
  }
  w.EndObject();
  sink(w.str());
  return ok;
}

bool ProtocolExecutor::CmdRegister(const JsonValue& v, const Sink& sink) {
  std::string name = v.GetString("name");
  if (name.empty()) {
    sink(ErrorFrame("register", Status::InvalidArgument("register needs name")));
    return false;
  }
  Result<int> version = Status::Internal("unreachable");
  if (const JsonValue* text = v.Find("text")) {
    auto format = SchemaFormatFromName(v.GetString("format", "native"));
    if (!format.ok()) {
      sink(ErrorFrame("register", format.status()));
      return false;
    }
    version = repository_->RegisterText(name, *format, text->string);
  } else {
    std::string path = v.GetString("file");
    if (path.empty()) {
      sink(ErrorFrame("register",
                      Status::InvalidArgument("register needs file or text")));
      return false;
    }
    if (options_.socket_mode) {
      // A socket client must not read the server's filesystem.
      sink(ErrorFrame("register",
                      Status::Unsupported(
                          "register file is not supported in --listen mode; "
                          "send the schema as text")));
      return false;
    }
    version = repository_->RegisterFile(name, path);
  }
  if (!version.ok()) {
    sink(ErrorFrame("register", version.status()));
    return false;
  }
  sink(OkFrame("register").Str("name", name).Int("version", *version)
           .Finish());
  return true;
}

bool ProtocolExecutor::CmdEdit(const JsonValue& v, const Sink& sink) {
  std::string name = v.GetString("name");
  auto edit = ParseEdit(v);
  Result<int> version = edit.ok() ? repository_->ApplyEdit(name, *edit)
                                  : Result<int>(edit.status());
  if (!version.ok()) {
    sink(ErrorFrame("edit", version.status()));
    return false;
  }
  sink(OkFrame("edit").Str("name", name).Int("version", *version).Finish());
  return true;
}

bool ProtocolExecutor::CmdMatch(const JsonValue& v, const Sink& sink) {
  auto request = ParseMatchRequest(v);
  if (!request.ok()) {
    sink(ErrorFrame("match", request.status()));
    return false;
  }
  bool include_mappings = v.GetBool("mappings", options_.default_mappings);
  CupidConfig config = request->config;
  Result<MatchResponse> response = RunMatch(*std::move(request));
  if (!response.ok()) {
    sink(ErrorFrame("match", response.status()));
    return false;
  }
  return EmitMatchResponse(*response, config, include_mappings, sink);
}

bool ProtocolExecutor::CmdBatch(const JsonValue& v, const Sink& sink) {
  const JsonValue* requests = v.Find("requests");
  if (requests == nullptr || !requests->is_array()) {
    sink(ErrorFrame("batch", Status::InvalidArgument("batch needs requests[]")));
    return false;
  }
  std::vector<MatchRequest> batch;
  std::vector<CupidConfig> configs;
  std::vector<bool> include;
  for (const JsonValue& item : requests->array) {
    auto request = ParseMatchRequest(item);
    if (!request.ok()) {
      sink(ErrorFrame("batch", request.status()));
      return false;
    }
    configs.push_back(request->config);
    include.push_back(item.GetBool("mappings", options_.default_mappings));
    batch.push_back(*std::move(request));
  }
  bool all_ok = true;
  if (options_.socket_mode || scheduler_ == nullptr) {
    // On a scheduler worker the batch runs serially (see RunMatch);
    // cross-request concurrency comes from other connections' workers.
    for (size_t i = 0; i < batch.size(); ++i) {
      Result<MatchResponse> response = service_->Match(batch[i]);
      if (!response.ok()) {
        sink(ErrorFrame("batch", response.status()));
        all_ok = false;
        continue;
      }
      if (!EmitMatchResponse(*response, configs[i], include[i], sink)) {
        all_ok = false;
      }
    }
    return all_ok;
  }
  // Concurrent fan-out over the scheduler's workers; responses are
  // emitted in request order.
  std::vector<Result<MatchResponse>> responses =
      scheduler_->MatchBatch(std::move(batch));
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) {
      sink(ErrorFrame("batch", responses[i].status()));
      all_ok = false;
      continue;
    }
    if (!EmitMatchResponse(*responses[i], configs[i], include[i], sink)) {
      all_ok = false;
    }
  }
  return all_ok;
}

bool ProtocolExecutor::CmdSearch(const JsonValue& v, const Sink& sink) {
  if (search_ == nullptr) {
    sink(ErrorFrame("search",
                    Status::Unsupported("search is not available here")));
    return false;
  }
  auto request = ParseSearchRequest(v);
  if (!request.ok()) {
    sink(ErrorFrame("search", request.status()));
    return false;
  }
  auto response = search_->Search(*request);
  if (!response.ok()) {
    sink(ErrorFrame("search", response.status()));
    return false;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  response->WriteJsonFields(&w);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("search");
  w.EndObject();
  sink(w.str());
  return true;
}

bool ProtocolExecutor::CmdSaveLoad(const std::string& cmd, const JsonValue& v,
                                   const Sink& sink) {
  std::string dir = v.GetString("dir");
  Status status =
      dir.empty() ? Status::InvalidArgument(cmd + " needs dir") : Status::OK();
  if (status.ok() && cmd == "save" && options_.socket_mode) {
    // A socket client must not write into the server's filesystem.
    status = Status::Unsupported(
        "save is not supported in --listen mode; persist with --wal-dir");
  }
  if (status.ok() && cmd == "save") status = repository_->SaveTo(dir);
  if (status.ok() && cmd == "load" && options_.socket_mode) {
    // Replacing the repository wholesale while scheduler workers and the
    // subscription broker read it concurrently is unsafe; socket servers
    // restart to load.
    status = Status::Unsupported(
        "load is not supported in --listen mode; restart the server "
        "pointing at the directory to load");
  }
  if (status.ok() && cmd == "load" && repository_->durable()) {
    // Swapping in a non-durable repository would silently stop
    // logging mutations; durable servers only ever load their WAL dir.
    status = Status::Unsupported(
        "load is not supported on a durable server; restart with "
        "--wal-dir pointing at the directory to recover");
  }
  if (status.ok() && cmd == "load") {
    auto loaded = SchemaRepository::LoadFrom(dir);
    if (!loaded.ok()) {
      status = loaded.status();
    } else {
      // Replace wholesale; stale sessions/results must not survive the
      // version-number restart.
      *repository_ = std::move(*loaded);
      service_->InvalidateAll();
      if (search_ != nullptr) search_->InvalidateAll();
    }
  }
  if (!status.ok()) {
    sink(ErrorFrame(cmd, status));
    return false;
  }
  sink(OkFrame(cmd).Str("dir", dir).Finish());
  return true;
}

bool ProtocolExecutor::CmdStats(const Sink& sink) {
  MatchService::CacheStats stats = service_->cache_stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("stats");
  w.Key("result_hits");
  w.Int(stats.result_hits);
  w.Key("result_misses");
  w.Int(stats.result_misses);
  w.Key("result_evictions");
  w.Int(stats.result_evictions);
  w.Key("sessions_created");
  w.Int(stats.sessions_created);
  w.Key("sessions_reused");
  w.Int(stats.sessions_reused);
  w.Key("sessions_evicted");
  w.Int(stats.sessions_evicted);
  w.Key("incremental_rematches");
  w.Int(stats.incremental_rematches);
  if (scheduler_ != nullptr) {
    w.Key("scheduler_threads");
    w.Int(scheduler_->num_threads());
    w.Key("scheduler_pending");
    w.Int(static_cast<int64_t>(scheduler_->pending()));
  }
  if (broker_ != nullptr) {
    w.Key("subscriptions");
    w.Int(broker_->subscriptions());
  }
  if (repository_->durable()) {
    w.Key("durability");
    WriteDurabilityJson(repository_->durability_stats(), &w);
  }
  w.Key("schemas");
  w.BeginArray();
  for (const std::string& name : repository_->Names()) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("latest_version");
    w.Int(repository_->LatestVersion(name));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  sink(w.str());
  return true;
}

bool ProtocolExecutor::CmdMetrics(const JsonValue& v, const Sink& sink) {
  // The whole process-wide registry, either as a JSON array of metric
  // objects (machine-readable, the protocol-native shape) or as a
  // Prometheus text page embedded in "text" (multi-line exposition
  // kept inside the JSONL framing).
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  std::string format = v.GetString("format", "json");
  if (format == "prometheus") {
    JsonWriter w;
    w.BeginObject();
    w.Key("v");
    w.Int(kProtocolVersion);
    w.Key("status");
    w.String("ok");
    w.Key("cmd");
    w.String("metrics");
    w.Key("format");
    w.String(format);
    w.Key("text");
    w.String(reg->RenderPrometheus());
    w.EndObject();
    sink(w.str());
    return true;
  }
  if (format == "json") {
    // RenderJson is already a JSON array; splice it into the envelope.
    sink("{\"v\":" + std::to_string(kProtocolVersion) +
         ",\"status\":\"ok\",\"cmd\":\"metrics\"," +
         "\"format\":\"json\",\"metrics\":" + reg->RenderJson() + "}");
    return true;
  }
  sink(ErrorFrame("metrics",
                  Status::InvalidArgument("unknown metrics format: " + format)));
  return false;
}

bool ProtocolExecutor::CmdSubscribe(uint64_t client_id, const JsonValue& v,
                                    const Sink& sink) {
  if (broker_ == nullptr) {
    sink(ErrorFrame("subscribe", Status::Unsupported(
                                     "subscribe requires --listen mode")));
    return false;
  }
  std::string source, target;
  Status status = ParsePair(v, &source, &target);
  if (!status.ok()) {
    sink(ErrorFrame("subscribe", status));
    return false;
  }
  CupidConfig config;
  status = ApplyConfigJson(v, &config);
  if (status.ok()) status = config.Validate();
  if (status.ok() && service_->repository()->LatestVersion(source) == 0) {
    status = Status::NotFound("unknown source schema: " + source);
  }
  if (status.ok() && service_->repository()->LatestVersion(target) == 0) {
    status = Status::NotFound("unknown target schema: " + target);
  }
  if (!status.ok()) {
    sink(ErrorFrame("subscribe", status));
    return false;
  }
  // The ack is sinked by the broker atomically with registration (under
  // its lock): the ok-response precedes the first push on the connection,
  // and a client that has read the ok is guaranteed to be registered —
  // an edit racing the subscribe cannot slip between ack and liveness.
  status = broker_->Subscribe(
      client_id, source, target, config, [&sink, &source, &target] {
        sink(OkFrame("subscribe").Str("source", source).Str("target", target)
                 .Finish());
      });
  if (!status.ok()) {
    // Only shutdown races land here (the pair was validated above, and
    // schemas are never deleted).
    sink(ErrorFrame("subscribe", status));
    return false;
  }
  return true;
}

bool ProtocolExecutor::CmdUnsubscribe(uint64_t client_id, const JsonValue& v,
                                      const Sink& sink) {
  if (broker_ == nullptr) {
    sink(ErrorFrame("unsubscribe", Status::Unsupported(
                                       "unsubscribe requires --listen mode")));
    return false;
  }
  std::string source, target;
  Status status = ParsePair(v, &source, &target);
  if (!status.ok()) {
    sink(ErrorFrame("unsubscribe", status));
    return false;
  }
  // Remove BEFORE acknowledging: events observed after the ok-response
  // must not produce pushes.
  status = broker_->Unsubscribe(client_id, source, target);
  if (!status.ok()) {
    sink(ErrorFrame("unsubscribe", status));
    return false;
  }
  sink(OkFrame("unsubscribe").Str("source", source).Str("target", target)
           .Finish());
  return true;
}

bool ProtocolExecutor::Execute(uint64_t client_id, const std::string& line,
                               const Sink& sink) {
  if (!IsValidUtf8(line)) {
    sink(ErrorFrame("?", Status::InvalidArgument(
                             "request is not valid UTF-8")));
    return false;
  }
  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    sink(ErrorFrame("?", parsed.status()));
    return false;
  }
  if (!parsed->is_object()) {
    sink(ErrorFrame("?", Status::InvalidArgument(
                             "request must be a JSON object")));
    return false;
  }
  std::string cmd = parsed->GetString("cmd");
  if (cmd == "register") return CmdRegister(*parsed, sink);
  if (cmd == "edit") return CmdEdit(*parsed, sink);
  if (cmd == "match") return CmdMatch(*parsed, sink);
  if (cmd == "batch") return CmdBatch(*parsed, sink);
  if (cmd == "search") return CmdSearch(*parsed, sink);
  if (cmd == "save" || cmd == "load") return CmdSaveLoad(cmd, *parsed, sink);
  if (cmd == "stats") return CmdStats(sink);
  if (cmd == "metrics") return CmdMetrics(*parsed, sink);
  if (cmd == "subscribe") return CmdSubscribe(client_id, *parsed, sink);
  if (cmd == "unsubscribe") return CmdUnsubscribe(client_id, *parsed, sink);
  sink(ErrorFrame(cmd.empty() ? "?" : cmd,
                  Status::InvalidArgument("unknown cmd")));
  return false;
}

}  // namespace cupid
