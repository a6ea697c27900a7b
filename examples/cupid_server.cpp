// cupid_server — JSONL driver over the match service layer, as a classic
// stdin/stdout batch filter or a real TCP socket server.
//
//   cupid_server [options] [< requests.jsonl]         # stdin mode
//   cupid_server --listen <port> [options]            # socket mode
//
// Both modes speak the same line-framed protocol-v1 JSON and run the same
// command dispatch (src/net/protocol.h): one JSON command per line in, one
// JSON response per line out, executed against a long-lived
// SchemaRepository + MatchService + JobScheduler. This is the "many
// clients, one warm server" deployment shape: schemas are registered once,
// match results and per-pair sessions stay warm across requests, and work
// fans out over the scheduler's worker pool.
//
// Commands (docs/SERVICE.md has the full protocol):
//   {"cmd":"register","name":"po","file":"data/po.cupid"}
//   {"cmd":"register","name":"inline","format":"native","text":"schema S\n"}
//   {"cmd":"edit","name":"po","op":"rename","path":"PO.POLines.Item.Qty",
//    "to":"Quantity"}
//   {"cmd":"edit","name":"po","op":"retype","path":"...","type":"integer"}
//   {"cmd":"edit","name":"po","op":"add","parent":"PO.POLines","leaf":"Tax",
//    "type":"decimal","optional":true}
//   {"cmd":"edit","name":"po","op":"remove","path":"PO.POLines.Item.UoM"}
//   {"cmd":"match","source":"po","target":"order","source_version":0,
//    "target_version":0,"mappings":true,
//    "config":{"th_accept":0.5,"one_to_one":false},
//    "use_result_cache":true,"use_session":true}
//   {"cmd":"batch","requests":[{...match fields...},...]}   // concurrent
//   {"cmd":"search","source":"po","top_k":5,"exhaustive":false,
//    "prune_fraction":0.25,"prune_min_keep":16,"config":{...}}
//   {"cmd":"save","dir":"/tmp/repo"}      {"cmd":"load","dir":"/tmp/repo"}
//   {"cmd":"stats"}
//   {"cmd":"metrics"}                     // full registry, JSON array
//   {"cmd":"metrics","format":"prometheus"}  // text exposition in "text"
//   {"cmd":"subscribe","source":"po","target":"order","config":{...}}
//   {"cmd":"unsubscribe","source":"po","target":"order"}
//
// "config" takes th_accept and one_to_one. Every match runs its phases
// single-threaded; concurrency comes from the --threads workers.
//
// Socket mode never reaches the server's filesystem on a client's behalf:
// "register" with "file", "save" and "load" fail with Unsupported there,
// so socket clients register schemas as "text". Stdin mode keeps all three
// (the process's own operator issues them).
//
// Subscriptions (socket mode only): after the ok-response, every schema
// edit touching the pair produces an asynchronous
// {"v":1,"event":"push",...} frame carrying the delta against the previous
// push plus the full match response, re-matched through the warm
// incremental session. docs/SERVICE.md describes lifecycle, ordering, and
// the slow-subscriber policy.
//
// Options:
//   --listen <port>    socket mode on 127.0.0.1:<port> (0 = ephemeral; the
//                      bound port is announced on the first stdout line)
//   --host <addr>      listen address (default 127.0.0.1)
//   --max-conns <n>    connection cap in socket mode (default 1024)
//   --idle-timeout-ms <n>  close idle connections (0 = never; subscribers
//                      are exempt while subscribed)
//   --input <file>     read commands from a file instead of stdin
//   --wal-dir <dir>    durable mode: recover the repository from <dir> on
//                      boot and write-ahead-log every mutation (see
//                      docs/DURABILITY.md). "load" is rejected in this mode.
//   --threads <n>      scheduler worker threads (default: all hardware)
//   --queue <n>        max in-flight jobs (default 1024)
//   --thesaurus <file> thesaurus to match under (default: built-in)
//   --cache <n>        result-cache capacity (default 128)
//   --selfcheck        re-run every match directly through CupidMatcher and
//                      report "selfcheck":"ok"/"mismatch" per response (CI)
//   --quiet-mappings   default "mappings" to false (sizes only)
//
// Responses are line-buffered so the server can sit behind a FIFO or pipe
// (the CI recovery smoke drives it interactively). SIGINT/SIGTERM begin a
// prompt graceful shutdown in both modes — the stdin loop polls a wakeup
// pipe alongside its input fd, so a signal interrupts even an idle blocked
// read immediately (no "wakes up on the next input line" latency); the
// socket server drains in-flight commands, delivers final pushes, and
// flushes write queues. Either way the durable state is snapshotted and a
// final {"cmd":"shutdown",...} stats line is emitted; SIGKILL is the crash
// the WAL recovers from. SIGPIPE is ignored: a vanished client is that
// connection's problem, never the process's.
//
// Exit code 0 when every command succeeded, 1 otherwise (each failing
// command also reports {"status":"error",...} on its own line).

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "net/poll_reader.h"
#include "net/protocol.h"
#include "net/socket_server.h"
#include "net/subscription.h"
#include "net/wakeup.h"
#include "obs/metrics.h"
#include "service/corpus_search.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"
#include "thesaurus/thesaurus_io.h"
#include "util/json.h"
#include "util/status.h"
#include "util/strings.h"

using namespace cupid;

namespace {

struct ServerOptions {
  std::string input_path;
  std::string thesaurus_path;
  std::string wal_dir;
  std::string host = "127.0.0.1";
  int listen_port = -1;  ///< -1 = stdin mode
  int max_conns = 1024;
  int idle_timeout_ms = 0;
  int threads = 0;
  int queue = 1024;
  int cache = 128;
  bool selfcheck = false;
  bool default_mappings = true;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--listen <port>] [--host <addr>] [--max-conns <n>]\n"
      "          [--idle-timeout-ms <n>] [--input <file>] [--wal-dir <dir>]\n"
      "          [--threads <n>] [--queue <n>] [--thesaurus <file>]\n"
      "          [--cache <n>] [--selfcheck] [--quiet-mappings]\n"
      "          < requests.jsonl\n",
      argv0);
  return 1;
}

/// Last shutdown signal received; the handler sets this and pokes the
/// wakeup pipe so whichever loop is blocked in poll(2) — the stdin reader
/// or the socket server — returns immediately.
volatile std::sig_atomic_t g_shutdown_signal = 0;
WakeupFd* g_wakeup = nullptr;
SocketServer* g_socket_server = nullptr;

void HandleShutdownSignal(int sig) {
  g_shutdown_signal = sig;
  if (g_socket_server != nullptr) {
    g_socket_server->RequestShutdown();  // atomic store + pipe write
  } else if (g_wakeup != nullptr) {
    g_wakeup->Notify();  // one async-signal-safe write(2)
  }
}

void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: interrupt blocking calls too
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A client disconnecting mid-write must surface as EPIPE on that write,
  // not kill the process.
  signal(SIGPIPE, SIG_IGN);
}

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

/// Clean-shutdown epilogue shared by both modes: compact the WAL into a
/// snapshot and emit the final stats line. Returns the process exit code.
int EmitShutdownStats(SchemaRepository* repo, MatchService* service,
                      int errors) {
  Status flushed = repo->ForceSnapshot();
  MatchService::CacheStats stats = service->cache_stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  w.Key("status");
  w.String(flushed.ok() ? "ok" : "error");
  w.Key("cmd");
  w.String("shutdown");
  w.Key("signal");
  w.String(g_shutdown_signal == SIGINT ? "SIGINT" : "SIGTERM");
  if (!flushed.ok()) {
    w.Key("error");
    w.String(flushed.ToString());
  }
  w.Key("sessions_created");
  w.Int(stats.sessions_created);
  w.Key("incremental_rematches");
  w.Int(stats.incremental_rematches);
  if (repo->durable()) {
    w.Key("durability");
    WriteDurabilityJson(repo->durability_stats(), &w);
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return flushed.ok() && errors == 0 ? 0 : 1;
}

/// Stdin/file mode: one command per line, executed synchronously in read
/// order. The input fd and a wakeup pipe are polled together, so shutdown
/// signals interrupt an idle blocked read instantly.
int RunStdinMode(const ServerOptions& options, ProtocolExecutor* executor,
                 SchemaRepository* repo, MatchService* service) {
  int input_fd = STDIN_FILENO;
  bool close_input = false;
  if (!options.input_path.empty()) {
    input_fd = open(options.input_path.c_str(), O_RDONLY);
    if (input_fd < 0) {
      std::fprintf(stderr, "cannot open %s\n", options.input_path.c_str());
      return 1;
    }
    close_input = true;
  }

  WakeupFd wakeup;
  if (!wakeup.ok()) {
    std::fprintf(stderr, "wakeup pipe: %s\n",
                 wakeup.status().ToString().c_str());
    if (close_input) close(input_fd);
    return 1;
  }
  g_wakeup = &wakeup;
  InstallSignalHandlers();

  auto sink = [](const std::string& response) {
    std::printf("%s\n", response.c_str());
  };

  int errors = 0;
  PollLineReader reader(input_fd, &wakeup);
  bool running = true;
  while (running && g_shutdown_signal == 0) {
    std::string line;
    switch (reader.Next(&line)) {
      case PollLineReader::Event::kLine:
        if (TrimWhitespace(line).empty()) break;
        if (!executor->Execute(0, line, sink)) ++errors;
        break;
      case PollLineReader::Event::kWakeup:
        break;  // the loop condition re-checks g_shutdown_signal
      case PollLineReader::Event::kEof:
      case PollLineReader::Event::kError:
        running = false;
        break;
    }
  }
  g_wakeup = nullptr;
  if (close_input) close(input_fd);

  if (g_shutdown_signal != 0) {
    return EmitShutdownStats(repo, service, errors);
  }
  return errors == 0 ? 0 : 1;
}

/// Socket mode: the poll loop owns all connection I/O, commands execute on
/// scheduler workers, and the subscription broker pushes mapping deltas on
/// schema edits.
int RunSocketMode(const ServerOptions& options, const Thesaurus* thesaurus,
                  SchemaRepository* repo, MatchService* service,
                  JobScheduler* scheduler,
                  CorpusSearchService* search_service) {
  SocketServer::Options server_options;
  server_options.host = options.host;
  server_options.port = options.listen_port;
  server_options.max_connections = options.max_conns;
  server_options.idle_timeout_ms = options.idle_timeout_ms;
  SocketServer server(server_options, scheduler);

  SubscriptionBroker broker(
      service, scheduler,
      [&server](uint64_t client_id, const std::string& frame) {
        return server.PushFrame(client_id, frame);
      });
  broker.set_idle_exempt_fn([&server](uint64_t client_id, bool exempt) {
    server.SetIdleExempt(client_id, exempt);
  });
  broker.AttachTo(repo);

  ProtocolExecutor::Options exec_options;
  exec_options.selfcheck = options.selfcheck;
  exec_options.default_mappings = options.default_mappings;
  exec_options.socket_mode = true;
  ProtocolExecutor executor(thesaurus, repo, service, scheduler,
                            search_service, &broker, exec_options);

  server.set_handler([&executor](uint64_t client_id, const std::string& line,
                                 const std::function<void(const std::string&)>&
                                     sink) {
    executor.Execute(client_id, line, sink);
  });
  server.set_disconnect_hook(
      [&broker](uint64_t client_id) { broker.DropClient(client_id); });
  server.set_drain_hook([&broker] { broker.Stop(); });

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", started.ToString().c_str());
    return 1;
  }
  g_socket_server = &server;
  InstallSignalHandlers();

  // Announce the bound port (essential with --listen 0) on both streams:
  // machine-readable on stdout, human-readable on stderr.
  JsonWriter w;
  w.BeginObject();
  w.Key("v");
  w.Int(kProtocolVersion);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("listen");
  w.Key("host");
  w.String(options.host);
  w.Key("port");
  w.Int(server.port());
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fprintf(stderr, "cupid_server listening on %s:%d\n",
               options.host.c_str(), server.port());

  server.Run();  // returns after the graceful drain
  g_socket_server = nullptr;
  broker.Stop();  // idempotent; already drained via the drain hook

  return EmitShutdownStats(repo, service, /*errors=*/0);
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    auto int_flag = [&](const char* flag, int* out) -> bool {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      auto parsed = ParseInt(argv[++i]);
      if (!parsed.ok() || *parsed < 0) {
        std::fprintf(stderr, "%s: %s\n", flag,
                     parsed.ok() ? "must be >= 0"
                                 : parsed.status().ToString().c_str());
        std::exit(Usage(argv[0]));
      }
      *out = static_cast<int>(*parsed);
      return true;
    };
    int listen = -1, max_conns = -1, idle = -1;
    int threads = -1, queue = -1, cache = -1;
    if (!std::strcmp(argv[i], "--input") && i + 1 < argc) {
      options.input_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--wal-dir") && i + 1 < argc) {
      options.wal_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--thesaurus") && i + 1 < argc) {
      options.thesaurus_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--host") && i + 1 < argc) {
      options.host = argv[++i];
    } else if (int_flag("--listen", &listen)) {
      options.listen_port = listen;
    } else if (int_flag("--max-conns", &max_conns)) {
      options.max_conns = max_conns;
    } else if (int_flag("--idle-timeout-ms", &idle)) {
      options.idle_timeout_ms = idle;
    } else if (int_flag("--threads", &threads)) {
      options.threads = threads;
    } else if (int_flag("--queue", &queue)) {
      options.queue = queue;
    } else if (int_flag("--cache", &cache)) {
      options.cache = cache;
    } else if (!std::strcmp(argv[i], "--selfcheck")) {
      options.selfcheck = true;
    } else if (!std::strcmp(argv[i], "--quiet-mappings")) {
      options.default_mappings = false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  Thesaurus thesaurus;
  if (options.thesaurus_path.empty()) {
    thesaurus = DefaultThesaurus();
  } else {
    auto loaded = LoadThesaurus(options.thesaurus_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", options.thesaurus_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    thesaurus = std::move(loaded).ValueOrDie();
  }

  // Line-buffer responses so a FIFO/pipe consumer sees each one as soon as
  // it is written (stdio fully buffers non-terminal stdout by default).
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  SchemaRepository repo;
  if (!options.wal_dir.empty()) {
    auto recovered = SchemaRepository::Recover(options.wal_dir);
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery of %s failed: %s\n",
                   options.wal_dir.c_str(),
                   recovered.status().ToString().c_str());
      return 1;
    }
    repo = std::move(*recovered);
    DurabilityStats stats = repo.durability_stats();
    std::fprintf(stderr,
                 "recovered %s: applied_seq=%llu snapshot_seq=%llu "
                 "wal_records=%llu tail_dropped=%d\n",
                 options.wal_dir.c_str(),
                 static_cast<unsigned long long>(stats.applied_seq),
                 static_cast<unsigned long long>(stats.snapshot_seq),
                 static_cast<unsigned long long>(stats.wal_records),
                 stats.recovered_tail_dropped ? 1 : 0);
  }
  MatchService::Options service_options;
  service_options.result_cache_capacity = options.cache;
  MatchService service(&thesaurus, &repo, service_options);
  JobScheduler::Options scheduler_options;
  scheduler_options.num_threads = options.threads;
  scheduler_options.max_pending = options.queue;
  JobScheduler scheduler(&service, scheduler_options);
  CorpusSearchService search_service(&thesaurus, &repo, &scheduler);

  if (options.listen_port >= 0) {
    return RunSocketMode(options, &thesaurus, &repo, &service, &scheduler,
                         &search_service);
  }

  ProtocolExecutor::Options exec_options;
  exec_options.selfcheck = options.selfcheck;
  exec_options.default_mappings = options.default_mappings;
  exec_options.socket_mode = false;
  ProtocolExecutor executor(&thesaurus, &repo, &service, &scheduler,
                            &search_service, /*broker=*/nullptr, exec_options);
  return RunStdinMode(options, &executor, &repo, &service);
}
