// The end-to-end half: the shipped cupid_server, driven over loopback by one
// client with one request in flight (a closed loop), tracing off. With
// --trace 1 a second server with the program's own tracing on takes the
// same stream, for obs.trace_overhead.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "perfbench.h"
#include "process.h"
#include "replies.h"
#include "service/corpus_search.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"
#include "trace.h"
#include "util/json.h"

namespace perfbench {

namespace {

/// Worker threads for the reference computations after the timed phase.
constexpr int kReferenceThreads = 4;

/// Runs task(i) for i in [0, n) on a few threads.
void ParallelFor(int n, const std::function<void(int)>& task) {
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::min(n, kReferenceThreads); ++t) {
    workers.emplace_back([&] {
      for (int i = next++; i < n; i = next++) task(i);
    });
  }
  for (std::thread& w : workers) w.join();
}

/// One server process and the client connection driving it.
class Driver {
 public:
  Driver(const RunOptions& options, ServerRunResult* result)
      : options_(options), result_(result) {}

  bool healthy() const { return healthy_; }
  /// No further requests go out (the server's state is no longer known).
  void Abandon() { healthy_ = false; }

  void Fail(const std::string& message) {
    result_->correct = false;
    if (result_->errors.size() < 20) result_->errors.push_back(message);
  }

  /// `env` is added to the server's environment; its stderr goes to
  /// `log_name` in the work directory.
  bool Start(const std::string& wal_dir, const std::vector<std::string>& env,
             const std::string& log_name) {
    std::vector<std::string> args = {"--listen", "0", "--threads",
                                     std::to_string(options_.server_threads)};
    if (!wal_dir.empty()) {
      args.push_back("--wal-dir");
      args.push_back(wal_dir);
    }
    auto server = ServerProcess::Start(options_.server_binary, args, env,
                                       options_.work_dir + "/" + log_name,
                                       options_.request_timeout_s);
    if (!server.ok()) {
      Fail("server start: " + server.status().ToString());
      healthy_ = false;
      return false;
    }
    server_ = std::move(server).ValueOrDie();
    cupid::Status connected = client_.Connect(server_->port());
    if (!connected.ok()) {
      Fail("connect: " + connected.ToString());
      healthy_ = false;
    }
    return healthy_;
  }

  /// A server that stalled a request is unlikely to drain gracefully;
  /// it gets a short grace period before SIGKILL.
  void Stop() {
    if (server_ != nullptr) server_->Stop(result_->timed_out > 0 ? 2.0 : 20.0);
  }

  double PeakRssMb() const {
    return server_ == nullptr ? 0.0 : server_->PeakRssMb();
  }

  ServerProcess::Usage Usage() const {
    return server_ == nullptr ? ServerProcess::Usage() : server_->ReadUsage();
  }

  bool Send(const std::string& line) {
    if (!healthy_) return false;
    ++result_->sent;
    if (!client_.Send(line)) {
      Fail("send failed: connection lost");
      ++result_->failed;
      healthy_ = false;
      return false;
    }
    return true;
  }

  /// Next line from the server, with the hang guard.
  bool Read(std::string* line) {
    switch (client_.ReadLine(line, options_.request_timeout_s)) {
      case LineClient::ReadStatus::kOk:
        return true;
      case LineClient::ReadStatus::kTimeout:
        ++result_->timed_out;
        Fail("no reply within the request timeout; abandoning the run");
        break;
      case LineClient::ReadStatus::kClosed:
        ++result_->failed;
        Fail("server closed the connection");
        break;
    }
    healthy_ = false;
    return false;
  }

  /// Sends one request and reads its reply; counts ok/failed.
  bool Call(const std::string& line, std::string* reply, double* rtt_ms) {
    Clock::time_point t0 = Clock::now();
    if (!Send(line)) return false;
    if (!Read(reply)) return false;
    if (rtt_ms != nullptr) *rtt_ms = MsBetween(t0, Clock::now());
    return CheckOk(*reply, line);
  }

  bool CheckOk(const std::string& reply, const std::string& request) {
    if (reply.find("\"status\":\"ok\"") == std::string::npos) {
      ++result_->failed;
      Fail("error reply to " + request.substr(0, 120) + ": " +
           reply.substr(0, 300));
      return false;
    }
    ++result_->ok;
    return true;
  }

  /// The full metrics registry of the server: name -> delta-able values.
  std::map<std::string, CounterDelta> Metrics() {
    std::map<std::string, CounterDelta> out;
    std::string reply;
    if (!Call("{\"cmd\":\"metrics\"}", &reply, nullptr)) return out;
    auto parsed = cupid::ParseJson(reply);
    const cupid::JsonValue* metrics =
        parsed.ok() ? parsed->Find("metrics") : nullptr;
    if (metrics == nullptr || !metrics->is_array()) {
      Fail("unreadable metrics reply");
      return out;
    }
    for (const cupid::JsonValue& m : metrics->array) {
      CounterDelta d;
      d.value = m.GetNumber("value", 0);
      d.count = m.GetNumber("count", 0);
      d.sum_ms = m.GetNumber("sum_ms", 0);
      out[m.GetString("name")] = d;
    }
    return out;
  }

  /// Total versions the repository retains, from "stats".
  int64_t VersionsRetained() {
    std::string reply;
    if (!Call("{\"cmd\":\"stats\"}", &reply, nullptr)) return 0;
    auto parsed = cupid::ParseJson(reply);
    const cupid::JsonValue* schemas =
        parsed.ok() ? parsed->Find("schemas") : nullptr;
    int64_t total = 0;
    if (schemas != nullptr && schemas->is_array()) {
      for (const cupid::JsonValue& s : schemas->array) {
        total += s.GetInt("latest_version", 0);
      }
    }
    return total;
  }

 private:
  const RunOptions& options_;
  ServerRunResult* result_;
  std::unique_ptr<ServerProcess> server_;
  LineClient client_;
  bool healthy_ = true;
};

/// Share of CPU time the hypervisor gave to other guests (the "steal"
/// column of /proc/stat) between construction and Share(): the host
/// contention no benchmark design removes, reported with every run.
class StealMeter {
 public:
  StealMeter() : start_(Read()) {}
  double Share() const {
    auto [steal, total] = Read();
    double dt = total - start_.second;
    return dt > 0 ? (steal - start_.first) / dt : 0.0;
  }

 private:
  static std::pair<double, double> Read() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    double field = 0, total = 0, steal = 0;
    for (int i = 0; i < 8 && stat >> field; ++i) {
      total += field;
      if (i == 7) steal = field;
    }
    return {steal, total};
  }

  std::pair<double, double> start_;
};

std::map<std::string, CounterDelta> Subtract(
    const std::map<std::string, CounterDelta>& after,
    const std::map<std::string, CounterDelta>& before) {
  std::map<std::string, CounterDelta> out;
  for (const auto& [name, a] : after) {
    CounterDelta b;
    auto it = before.find(name);
    if (it != before.end()) b = it->second;
    out[name] = {a.value - b.value, a.count - b.count, a.sum_ms - b.sum_ms};
  }
  return out;
}

/// Replies seen per state key, compared byte for byte on every repeat and
/// against a reference computation after the run.
template <typename Key>
class ReplyLedger {
 public:
  /// Returns false when `section` differs from an earlier reply for `key`.
  bool Record(const Key& key, std::string_view section) {
    auto it = seen_.find(key);
    if (it == seen_.end()) {
      seen_.emplace(key, std::string(section));
      return !section.empty();
    }
    return it->second == section;
  }
  const std::map<Key, std::string>& seen() const { return seen_; }

 private:
  std::map<Key, std::string> seen_;
};

std::string PairName(const Inputs& in, int pair) {
  const PairInput& p = in.pairs[static_cast<size_t>(pair)];
  return in.schemas[static_cast<size_t>(p.source)].name + "/" +
         in.schemas[static_cast<size_t>(p.target)].name;
}

// ------------------------------------------------------------ cold_match --

void SetupColdMatch(Driver* d, const Inputs& in) {
  std::string reply;
  for (int pair : in.warmup) {
    if (!d->Call(MatchLine(in, pair, /*use_result_cache=*/false), &reply,
                 nullptr)) {
      return;
    }
  }
}

/// Timed requests [begin, end) of the stream.
void TimedColdMatch(Driver* d, const Inputs& in, size_t begin, size_t end,
                    ServerRunResult* r, ReplyLedger<int>* replies) {
  std::string line, reply;
  for (size_t k = begin; k < end && d->healthy(); ++k) {
    line = MatchLine(in, in.primary[k], true);
    double rtt = 0;
    if (!d->Call(line, &reply, &rtt)) continue;
    r->latency_ms.push_back(rtt);
    r->latency_server_ms.push_back(FieldNumber(reply, "total_ms"));
    if (FieldBool(reply, "result_cache_hit")) {
      d->Fail("cold_match request " + std::to_string(k) +
              " hit the result cache");
    }
    if (FieldBool(reply, "incremental")) ++r->incremental_primaries;
    if (!replies->Record(in.primary[k], MappingSection(reply))) {
      d->Fail("cold_match reply for " + PairName(in, in.primary[k]) +
              " changed between requests");
    }
  }
}

// ---------------------------------------------------------------- evolve --

using StateKey = std::tuple<int, int, int>;  // pair, source and target version

void SetupEvolve(Driver* d, const Inputs& in) {
  std::string reply;
  for (size_t p = 0; p < in.pairs.size(); ++p) {
    if (!d->Call(SubscribeLine(in, static_cast<int>(p)), &reply, nullptr)) {
      return;
    }
  }
}

/// Timed steps [begin, end) of the stream; `version` holds each schema's
/// version on this server and advances with the edits.
void TimedEvolve(Driver* d, const Inputs& in, size_t begin, size_t end,
                 std::vector<int>* version, ServerRunResult* r,
                 ReplyLedger<StateKey>* replies) {
  auto expect_versions = [&](std::string_view reply, int pair,
                             const char* what) -> StateKey {
    const PairInput& p = in.pairs[static_cast<size_t>(pair)];
    int sv = static_cast<int>(FieldNumber(reply, "source_version"));
    int tv = static_cast<int>(FieldNumber(reply, "target_version"));
    if (sv != (*version)[static_cast<size_t>(p.source)] ||
        tv != (*version)[static_cast<size_t>(p.target)]) {
      d->Fail(std::string(what) + " for " + PairName(in, pair) +
              " carries versions " + std::to_string(sv) + "/" +
              std::to_string(tv));
    }
    return {pair, sv, tv};
  };
  std::string line, read_line;
  for (size_t k = begin; k < end && d->healthy(); ++k) {
    const EditStep& step = in.steps[k];
    Clock::time_point t0 = Clock::now();
    if (!d->Send(step.line)) break;
    // The edit's ok and the push it causes arrive in either order.
    bool got_ack = false, got_push = false;
    double push_ms = 0;
    std::string push;
    while ((!got_ack || !got_push) && d->Read(&line)) {
      if (line.find("\"event\":\"push") != std::string::npos) {
        push_ms = MsBetween(t0, Clock::now());
        push.swap(line);
        got_push = true;
      } else {
        got_ack = true;
        // A rejected edit causes no push, and every later version would
        // be off: the run cannot continue.
        if (!d->CheckOk(line, step.line)) {
          d->Abandon();
          return;
        }
        if (static_cast<int>(FieldNumber(line, "version")) !=
            step.version_after) {
          d->Fail("edit " + std::to_string(k) + " acknowledged an unexpected "
                  "version");
        }
      }
    }
    if (!got_push) break;
    (*version)[static_cast<size_t>(step.schema)] = step.version_after;
    if (push.find("\"event\":\"push\"") == std::string::npos) {
      ++r->failed;
      d->Fail("push_error for edit " + std::to_string(k) + ": " +
              push.substr(0, 300));
      continue;
    }
    r->latency_ms.push_back(push_ms);
    r->latency_server_ms.push_back(FieldNumber(push, "total_ms"));
    if (FieldBool(push, "incremental")) {
      ++r->incremental_primaries;
    } else {
      d->Fail("push for edit " + std::to_string(k) + " (" +
              PairName(in, step.pair) + ") was not incremental");
    }
    StateKey key = expect_versions(push, step.pair, "push");
    if (!replies->Record(key, MappingSection(push))) {
      d->Fail("push for " + PairName(in, step.pair) +
              " differs from an earlier reply at the same versions");
    }
    for (int q : step.reads) {
      read_line = MatchLine(in, q, true);
      double rtt = 0;
      std::string reply;
      if (!d->Call(read_line, &reply, &rtt)) break;
      r->read_ms.push_back(rtt);
      r->read_server_ms.push_back(FieldNumber(reply, "total_ms"));
      if (!FieldBool(reply, "result_cache_hit")) {
        d->Fail("evolve read of " + PairName(in, q) + " missed the cache");
      }
      StateKey read_key = expect_versions(reply, q, "read");
      if (!replies->Record(read_key, MappingSection(reply))) {
        d->Fail("read of " + PairName(in, q) +
                " differs from the push at the same versions");
      }
    }
  }
}

// --------------------------------------------------------- corpus_search --

void SetupCorpusSearch(Driver* d, const Inputs& in) {
  std::string reply;
  for (size_t p = 0; p < in.probes.size(); ++p) {
    if (!d->Call(SearchLine(in, static_cast<int>(p)), &reply, nullptr)) return;
  }
}

/// Timed searches [begin, end) of the stream.
void TimedCorpusSearch(Driver* d, const Inputs& in, size_t begin, size_t end,
                       ServerRunResult* r, ReplyLedger<int>* hits) {
  std::string line, reply;
  for (size_t k = begin; k < end && d->healthy(); ++k) {
    line = SearchLine(in, in.primary[k]);
    double rtt = 0;
    if (!d->Call(line, &reply, &rtt)) continue;
    r->latency_ms.push_back(rtt);
    r->latency_server_ms.push_back(FieldNumber(reply, "total_ms"));
    if (!hits->Record(in.primary[k], HitsSection(reply))) {
      d->Fail("search hits for probe " + std::to_string(in.primary[k]) +
              " changed between requests");
    }
  }
}

// ------------------------------------------------------------ references --

void VerifyPairs(const Inputs& in, const ReplyLedger<int>& replies,
                 ServerRunResult* r) {
  cupid::Thesaurus thesaurus = cupid::DefaultThesaurus();
  std::vector<std::pair<int, const std::string*>> todo;
  for (const auto& [pair, section] : replies.seen()) {
    todo.emplace_back(pair, &section);
  }
  std::vector<std::string> problems(todo.size());
  ParallelFor(static_cast<int>(todo.size()), [&](int i) {
    const PairInput& p = in.pairs[static_cast<size_t>(todo[i].first)];
    std::string error;
    std::string want = ReferenceMappings(
        thesaurus, in.schemas[static_cast<size_t>(p.source)].schema,
        in.schemas[static_cast<size_t>(p.target)].schema, &error);
    if (want.empty() || want != *todo[i].second) {
      problems[i] = "reply for " + PairName(in, todo[i].first) +
                    " differs from CupidMatcher::Match " + error;
    }
  });
  for (const std::string& p : problems) {
    if (!p.empty()) {
      r->correct = false;
      r->errors.push_back(p);
    }
  }
}

/// Replays each pair's edit stream with ApplySchemaEdit and compares every
/// reply seen at (pair, source version, target version) to a scratch match.
void VerifyEvolve(const Inputs& in, const ReplyLedger<StateKey>& replies,
                  ServerRunResult* r) {
  cupid::Thesaurus thesaurus = cupid::DefaultThesaurus();
  // Edits per schema, in application order (edit i makes version i + 2).
  std::vector<std::vector<const cupid::SchemaEdit*>> edits(in.schemas.size());
  for (const EditStep& step : in.steps) {
    edits[static_cast<size_t>(step.schema)].push_back(&step.edit);
  }
  std::vector<std::vector<std::pair<StateKey, const std::string*>>> by_pair(
      in.pairs.size());
  for (const auto& [key, section] : replies.seen()) {
    by_pair[static_cast<size_t>(std::get<0>(key))].emplace_back(key,
                                                                &section);
  }
  std::vector<std::string> problems(in.pairs.size());
  ParallelFor(static_cast<int>(in.pairs.size()), [&](int pair) {
    const PairInput& p = in.pairs[static_cast<size_t>(pair)];
    cupid::Schema source = in.schemas[static_cast<size_t>(p.source)].schema;
    cupid::Schema target = in.schemas[static_cast<size_t>(p.target)].schema;
    int sv = 1, tv = 1;
    auto advance = [&](cupid::Schema* schema, int schema_index, int* at,
                       int to) {
      const auto& list = edits[static_cast<size_t>(schema_index)];
      while (*at < to) {
        cupid::Status s =
            cupid::ApplySchemaEdit(schema, *list[static_cast<size_t>(*at - 1)]);
        if (!s.ok()) return false;
        ++*at;
      }
      return true;
    };
    // Keys sort by (source version, target version); both only grow along
    // a pair's stream.
    for (const auto& [key, section] : by_pair[static_cast<size_t>(pair)]) {
      if (!advance(&source, p.source, &sv, std::get<1>(key)) ||
          !advance(&target, p.target, &tv, std::get<2>(key)) ||
          sv != std::get<1>(key) || tv != std::get<2>(key)) {
        problems[static_cast<size_t>(pair)] =
            "cannot rebuild versions of " + PairName(in, pair);
        return;
      }
      std::string error;
      if (ReferenceMappings(thesaurus, source, target, &error) != *section) {
        problems[static_cast<size_t>(pair)] =
            "reply for " + PairName(in, pair) + " at versions " +
            std::to_string(sv) + "/" + std::to_string(tv) +
            " differs from CupidMatcher::Match " + error;
        return;
      }
    }
  });
  for (const std::string& p : problems) {
    if (!p.empty()) {
      r->correct = false;
      r->errors.push_back(p);
    }
  }
}

/// Every probe's hit list against an in-process CorpusSearchService over
/// the same registered corpus.
void VerifyCorpus(const Inputs& in, const ReplyLedger<int>& hits,
                  ServerRunResult* r) {
  cupid::Thesaurus thesaurus = cupid::DefaultThesaurus();
  cupid::SchemaRepository repo;
  for (const SchemaInput& s : in.schemas) {
    auto registered =
        repo.RegisterText(s.name, cupid::SchemaFormat::kNative, s.text);
    if (!registered.ok()) {
      r->correct = false;
      r->errors.push_back("reference register: " +
                          registered.status().ToString());
      return;
    }
  }
  cupid::CorpusSearchService search(&thesaurus, &repo);
  std::vector<std::pair<int, const std::string*>> todo;
  for (const auto& [probe, section] : hits.seen()) {
    todo.emplace_back(probe, &section);
  }
  std::vector<std::string> problems(todo.size());
  ParallelFor(static_cast<int>(todo.size()), [&](int i) {
    cupid::SearchRequest request;
    request.source = in.schemas[static_cast<size_t>(
                                   in.probes[static_cast<size_t>(todo[i].first)])]
                         .name;
    request.config = DefaultRequestConfig();
    auto response = search.Search(request);
    if (!response.ok() ||
        HitsSection(response->ToJson()) != *todo[i].second) {
      problems[i] = "search hits for " + request.source +
                    " differ from an in-process CorpusSearchService";
    }
  });
  for (const std::string& p : problems) {
    if (!p.empty()) {
      r->correct = false;
      r->errors.push_back(p);
    }
  }
}

/// Replies of every server of a run, checked against each other as they
/// arrive and against the reference computations after the run.
struct Ledgers {
  ReplyLedger<int> pairs;        ///< cold_match replies
  ReplyLedger<StateKey> states;  ///< evolve pushes and reads
  ReplyLedger<int> hits;         ///< corpus_search hit lists
};

/// The WAL directory of server start `rep` (evolve only; empty otherwise).
std::string WalDir(const RunOptions& options, const Inputs& in, int rep) {
  if (in.workload != Workload::kEvolve) return "";
  return options.work_dir + "/wal-" + std::to_string(rep);
}

/// Starts a server and runs the workload's set-up. `setup_s` is the time
/// from spawning the server until the first timed request can go out. The
/// driver it returns is unhealthy when either step failed.
std::unique_ptr<Driver> StartAndSetUp(const RunOptions& options,
                                      const Inputs& in,
                                      const std::string& wal_dir,
                                      const std::vector<std::string>& env,
                                      const std::string& log_name,
                                      ServerRunResult* r, double* setup_s) {
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  auto d = std::make_unique<Driver>(options, r);
  Clock::time_point t0 = Clock::now();
  if (!d->Start(wal_dir, env, log_name)) return d;
  std::string reply;
  for (const SchemaInput& s : in.schemas) {
    if (!d->Call(RegisterLine(s), &reply, nullptr)) return d;
  }
  switch (in.workload) {
    case Workload::kColdMatch:
      SetupColdMatch(d.get(), in);
      break;
    case Workload::kEvolve:
      SetupEvolve(d.get(), in);
      break;
    case Workload::kCorpusSearch:
      SetupCorpusSearch(d.get(), in);
      break;
  }
  *setup_s = MsBetween(t0, Clock::now()) / 1000.0;
  return d;
}

/// A set-up server and the result its timed phase fills.
struct TimedServer {
  Driver* driver;
  ServerRunResult* result;
  std::vector<int> versions;  ///< evolve: each schema's version it holds
};

/// The timed phase, in kBlocks blocks. With two servers their blocks
/// alternate (A B, B A, A B, ...), so drift of the host reaches both
/// alike. Each server's counters and CPU time, and the host's steal share,
/// are taken around it.
void TimedPhase(const Inputs& in, std::vector<TimedServer>* servers,
                Ledgers* ledgers) {
  std::vector<std::map<std::string, CounterDelta>> before;
  std::vector<ServerProcess::Usage> usage_before;
  for (TimedServer& s : *servers) {
    s.versions.assign(in.schemas.size(), 1);
    before.push_back(s.driver->Metrics());
    usage_before.push_back(s.driver->Usage());
  }
  StealMeter steal;
  const size_t n = in.workload == Workload::kEvolve ? in.steps.size()
                                                    : in.primary.size();
  for (size_t b = 0; b < kBlocks; ++b) {
    const size_t begin = b * n / kBlocks, end = (b + 1) * n / kBlocks;
    for (size_t i = 0; i < servers->size(); ++i) {
      TimedServer& s = (*servers)[b % 2 == 0 ? i : servers->size() - 1 - i];
      Clock::time_point t0 = Clock::now();
      switch (in.workload) {
        case Workload::kColdMatch:
          TimedColdMatch(s.driver, in, begin, end, s.result, &ledgers->pairs);
          break;
        case Workload::kEvolve:
          TimedEvolve(s.driver, in, begin, end, &s.versions, s.result,
                      &ledgers->states);
          break;
        case Workload::kCorpusSearch:
          TimedCorpusSearch(s.driver, in, begin, end, s.result,
                            &ledgers->hits);
          break;
      }
      s.result->timed_phase_s += MsBetween(t0, Clock::now()) / 1000.0;
    }
  }
  for (size_t i = 0; i < servers->size(); ++i) {
    Driver* d = (*servers)[i].driver;
    ServerRunResult* r = (*servers)[i].result;
    r->steal_share = steal.Share();
    ServerProcess::Usage usage_after = d->Usage();
    r->server_cpu_ms = usage_after.cpu_ms - usage_before[i].cpu_ms;
    r->server_minor_faults =
        usage_after.minor_faults - usage_before[i].minor_faults;
    if (d->healthy()) r->counters = Subtract(d->Metrics(), before[i]);
    r->peak_rss_mb = d->PeakRssMb();
    if (d->healthy()) r->versions_retained = d->VersionsRetained();
  }
}

}  // namespace

ServerRunResult RunAgainstServer(const RunOptions& options,
                                 const Inputs& in) {
  ServerRunResult r;
  Ledgers ledgers;
  std::unique_ptr<Driver> driver;

  for (int rep = 0; rep < options.setup_repeats; ++rep) {
    const bool last = rep + 1 == options.setup_repeats;
    double setup_s = 0;
    driver = StartAndSetUp(options, in, WalDir(options, in, rep), {},
                           "server.log", &r, &setup_s);
    if (!driver->healthy()) break;
    r.setup_s.push_back(setup_s);
    if (!last) driver->Stop();
  }
  std::vector<TimedServer> servers;
  if (driver->healthy()) servers.push_back({driver.get(), &r, {}});

  // --trace 1: a second server runs the same stream with the program's own
  // tracing on (CUPID_TRACE: its spans go as JSONL to its log), block for
  // block in turn with the first. Its replies join the same ledgers, so
  // they must match the untraced server's byte for byte.
  ServerRunResult traced;
  std::unique_ptr<Driver> tracing;
  if (options.trace && !servers.empty()) {
    double setup_s = 0;
    tracing = StartAndSetUp(options, in,
                            WalDir(options, in, options.setup_repeats),
                            {"CUPID_TRACE=1"}, "server-traced.log", &traced,
                            &setup_s);
    if (tracing->healthy()) servers.push_back({tracing.get(), &traced, {}});
  }
  if (!servers.empty()) TimedPhase(in, &servers, &ledgers);
  driver->Stop();
  if (tracing != nullptr) {
    tracing->Stop();
    r.traced_latency_ms = std::move(traced.latency_ms);
    r.sent += traced.sent;
    r.ok += traced.ok;
    r.failed += traced.failed;
    r.timed_out += traced.timed_out;
    r.correct = r.correct && traced.correct;
    for (std::string& e : traced.errors) {
      r.errors.push_back("self-tracing server: " + e);
    }
  }
  for (int rep = 0; rep <= options.setup_repeats; ++rep) {
    std::string wal_dir = WalDir(options, in, rep);
    if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
  }

  // The correctness gate, outside every timed phase.
  Clock::time_point verify_start = Clock::now();
  switch (in.workload) {
    case Workload::kColdMatch:
      VerifyPairs(in, ledgers.pairs, &r);
      break;
    case Workload::kEvolve:
      VerifyEvolve(in, ledgers.states, &r);
      break;
    case Workload::kCorpusSearch:
      VerifyCorpus(in, ledgers.hits, &r);
      break;
  }
  r.verify_s = MsBetween(verify_start, Clock::now()) / 1000.0;
  if (r.latency_ms.empty()) {
    r.correct = false;
    r.errors.push_back("no timed request completed");
  }
  return r;
}

}  // namespace perfbench
