// Tests for src/net: the wakeup pipe and poll-based line reader, the
// SocketServer (framing, boundary validation, backpressure, disconnect
// handling), the SubscriptionBroker (delta pushes, ordering, lifecycle),
// and the validation-audit satellites (IsValidUtf8 at the boundary,
// JobScheduler::Options::Validate).
//
// Socket tests run a real server on an ephemeral loopback port with its
// Run() loop on a background thread; clients are plain blocking sockets
// with a read deadline so a missing response fails the test instead of
// hanging it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cupid_matcher.h"
#include "incremental/schema_edit.h"
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
#include "util/json.h"
#include "util/strings.h"

namespace cupid {
namespace {

constexpr char kSchemaA[] =
    "schema A\n"
    "node R\n"
    "  leaf Qty decimal\n"
    "  leaf City string\n"
    "  leaf Street string\n";

constexpr char kSchemaB[] =
    "schema B\n"
    "node R\n"
    "  leaf Quantity decimal\n"
    "  leaf City string\n"
    "  leaf Street string\n";

// ---------------------------------------------------------------------------
// Boundary validation satellites
// ---------------------------------------------------------------------------

TEST(Utf8Test, AcceptsWellFormedSequences) {
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("caf\xC3\xA9"));              // U+00E9, 2 bytes
  EXPECT_TRUE(IsValidUtf8("\xE2\x82\xAC"));             // U+20AC, 3 bytes
  EXPECT_TRUE(IsValidUtf8("\xF0\x9F\x92\xA1"));         // U+1F4A1, 4 bytes
  EXPECT_TRUE(IsValidUtf8(std::string("nul\0byte", 8)));  // NUL is fine
}

TEST(Utf8Test, RejectsMalformedSequences) {
  EXPECT_FALSE(IsValidUtf8("\x80"));              // stray continuation
  EXPECT_FALSE(IsValidUtf8("\xC3"));              // truncated 2-byte
  EXPECT_FALSE(IsValidUtf8("\xE2\x82"));          // truncated 3-byte
  EXPECT_FALSE(IsValidUtf8("\xC0\xAF"));          // overlong '/'
  EXPECT_FALSE(IsValidUtf8("\xE0\x80\xAF"));      // overlong, 3 bytes
  EXPECT_FALSE(IsValidUtf8("\xED\xA0\x80"));      // UTF-16 surrogate
  EXPECT_FALSE(IsValidUtf8("\xF4\x90\x80\x80"));  // above U+10FFFF
  EXPECT_FALSE(IsValidUtf8("\xFF\xFE"));          // not UTF-8 at all
  EXPECT_FALSE(IsValidUtf8("ok\xC3then bad"));    // bad continuation byte
}

TEST(SchedulerOptionsTest, ValidateRejectsOutOfDomainKnobs) {
  JobScheduler::Options options;
  EXPECT_TRUE(options.Validate().ok());

  options.max_pending = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.max_pending = -5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = JobScheduler::Options();
  options.num_threads = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(SchedulerOptionsTest, SubmitFailsLoudlyOnBadOptions) {
  // Regression: max_pending=0 used to be silently clamped to 1; it now
  // surfaces as InvalidArgument on the first submission instead of
  // mysteriously rejecting load as "queue full".
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  MatchService service(&thesaurus, &repo);
  JobScheduler::Options options;
  options.num_threads = 1;
  options.max_pending = 0;
  JobScheduler scheduler(&service, options);
  auto job = scheduler.Submit(MatchRequest{});
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// WakeupFd + PollLineReader
// ---------------------------------------------------------------------------

TEST(PollLineReaderTest, DeliversLinesAndTrailingTail) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  WakeupFd wakeup;
  ASSERT_TRUE(wakeup.ok());
  PollLineReader reader(fds[0], &wakeup);

  ASSERT_EQ(write(fds[1], "one\ntwo\n", 8), 8);
  std::string line;
  EXPECT_EQ(reader.Next(&line), PollLineReader::Event::kLine);
  EXPECT_EQ(line, "one");
  EXPECT_EQ(reader.Next(&line), PollLineReader::Event::kLine);
  EXPECT_EQ(line, "two");

  // An unterminated tail is delivered at EOF (std::getline parity).
  ASSERT_EQ(write(fds[1], "tail", 4), 4);
  close(fds[1]);
  EXPECT_EQ(reader.Next(&line), PollLineReader::Event::kLine);
  EXPECT_EQ(line, "tail");
  EXPECT_EQ(reader.Next(&line), PollLineReader::Event::kEof);
  close(fds[0]);
}

TEST(PollLineReaderTest, WakeupInterruptsBlockedRead) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  WakeupFd wakeup;
  ASSERT_TRUE(wakeup.ok());
  PollLineReader reader(fds[0], &wakeup);

  // Nothing written to the pipe: without the wakeup, Next would block
  // indefinitely; the notifier thread unblocks it.
  std::thread notifier([&wakeup] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    wakeup.Notify();
  });
  std::string line;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.Next(&line), PollLineReader::Event::kWakeup);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  notifier.join();
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// Socket test scaffolding
// ---------------------------------------------------------------------------

/// Blocking loopback client with a receive deadline.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                         sizeof(addr)) == 0;
    struct timeval tv = {};
    tv.tv_sec = 10;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool Send(const std::string& line) {
    std::string framed = line + "\n";
    return write(fd_, framed.data(), framed.size()) ==
           static_cast<ssize_t>(framed.size());
  }

  /// Reads one line; empty string on timeout/EOF.
  std::string ReadLine() {
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads one line with a short deadline; empty string when nothing comes.
  std::string TryReadLine(int timeout_ms) {
    struct timeval tv = {};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string line = ReadLine();
    tv.tv_sec = 10;
    tv.tv_usec = 0;
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// Full server stack (repository, service, scheduler, broker, executor,
/// socket server with Run() on a background thread) over two registered
/// schemas, with a private metrics registry for isolated assertions.
class ServerFixture {
 public:
  explicit ServerFixture(SocketServer::Options server_options =
                             SocketServer::Options()) {
    thesaurus_ = DefaultThesaurus();
    EXPECT_TRUE(
        repo_.RegisterText("a", SchemaFormat::kNative, kSchemaA).ok());
    EXPECT_TRUE(
        repo_.RegisterText("b", SchemaFormat::kNative, kSchemaB).ok());
    MatchService::Options service_options;
    service_options.metrics = &metrics_;
    service_ = std::make_unique<MatchService>(&thesaurus_, &repo_,
                                              service_options);
    JobScheduler::Options scheduler_options;
    scheduler_options.num_threads = 2;
    scheduler_ = std::make_unique<JobScheduler>(service_.get(),
                                                scheduler_options);

    server_options.metrics = &metrics_;
    server_ = std::make_unique<SocketServer>(server_options,
                                             scheduler_.get());

    SubscriptionBroker::Options broker_options;
    broker_options.metrics = &metrics_;
    broker_ = std::make_unique<SubscriptionBroker>(
        service_.get(), scheduler_.get(),
        [this](uint64_t client_id, const std::string& frame) {
          return server_->PushFrame(client_id, frame);
        },
        broker_options);
    broker_->set_idle_exempt_fn([this](uint64_t client_id, bool exempt) {
      server_->SetIdleExempt(client_id, exempt);
    });
    broker_->AttachTo(&repo_);

    ProtocolExecutor::Options exec_options;
    exec_options.socket_mode = true;
    executor_ = std::make_unique<ProtocolExecutor>(
        &thesaurus_, &repo_, service_.get(), scheduler_.get(),
        /*search=*/nullptr, broker_.get(), exec_options);

    server_->set_handler(
        [this](uint64_t client_id, const std::string& line,
               const std::function<void(const std::string&)>& sink) {
          executor_->Execute(client_id, line, sink);
        });
    server_->set_disconnect_hook([this](uint64_t client_id) {
      broker_->DropClient(client_id);
    });
    server_->set_drain_hook([this] { broker_->Stop(); });

    EXPECT_TRUE(server_->Start().ok());
    run_thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerFixture() {
    server_->RequestShutdown();
    run_thread_.join();
    broker_->Stop();
  }

  int port() const { return server_->port(); }
  SchemaRepository* repo() { return &repo_; }
  SocketServer* server() { return server_.get(); }
  SubscriptionBroker* broker() { return broker_.get(); }
  obs::MetricsRegistry* metrics() { return &metrics_; }

  int64_t CounterValue(const char* name) {
    return metrics_.GetCounter(name, "")->value();
  }

 private:
  Thesaurus thesaurus_;
  SchemaRepository repo_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<MatchService> service_;
  std::unique_ptr<JobScheduler> scheduler_;
  std::unique_ptr<SocketServer> server_;
  std::unique_ptr<SubscriptionBroker> broker_;
  std::unique_ptr<ProtocolExecutor> executor_;
  std::thread run_thread_;
};

std::string JsonField(const std::string& json, const char* key) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return "<unparseable>";
  return parsed->GetString(key);
}

/// The mapping members a direct CupidMatcher run of repository schemas a
/// and b renders: what every reply's mapping section must equal.
std::string DirectMappingMembers(const SchemaRepository& repo) {
  Thesaurus thesaurus = DefaultThesaurus();
  auto a = repo.Get("a");
  auto b = repo.Get("b");
  if (!a.ok() || !b.ok()) return "<schemas missing>";
  auto ref = CupidMatcher(&thesaurus, CupidConfig()).Match(**a, **b);
  if (!ref.ok()) return "<direct match failed>";
  return RenderMappingMembers(ref->leaf_mapping, ref->nonleaf_mapping,
                              /*renders=*/nullptr);
}

/// `reply` from `"leaf_mapping":` up to (not including) `end`, which is
/// searched from the back.
std::string MappingMembers(const std::string& reply, const std::string& end) {
  size_t start = reply.find("\"leaf_mapping\":");
  size_t stop = reply.rfind(end);
  if (start == std::string::npos || stop == std::string::npos || stop < start) {
    return "<no mapping members in " + reply + ">";
  }
  return reply.substr(start, stop - start);
}

// ---------------------------------------------------------------------------
// SocketServer protocol behavior
// ---------------------------------------------------------------------------

TEST(SocketServerTest, ServesRequestsAndKeepsRequestOrder) {
  ServerFixture fx;
  TestClient client(fx.port());
  ASSERT_TRUE(client.connected());

  // Pipeline several requests at once; responses must come back in order.
  ASSERT_TRUE(client.Send("{\"cmd\":\"stats\"}"));
  ASSERT_TRUE(client.Send(
      "{\"cmd\":\"match\",\"source\":\"a\",\"target\":\"b\"}"));
  ASSERT_TRUE(client.Send("{\"cmd\":\"stats\"}"));
  EXPECT_EQ(JsonField(client.ReadLine(), "cmd"), "stats");
  std::string match = client.ReadLine();
  EXPECT_EQ(JsonField(match, "source"), "a");
  EXPECT_EQ(JsonField(match, "status"), "ok");
  EXPECT_EQ(JsonField(client.ReadLine(), "cmd"), "stats");
}

TEST(SocketServerTest, BoundaryRejectionsKeepConnectionAlive) {
  SocketServer::Options options;
  options.max_frame_bytes = 512;
  ServerFixture fx(options);
  TestClient client(fx.port());
  ASSERT_TRUE(client.connected());

  // Invalid JSON.
  ASSERT_TRUE(client.Send("{nope"));
  std::string r = client.ReadLine();
  EXPECT_EQ(JsonField(r, "status"), "error");

  // Invalid UTF-8 (boundary check, never reaches the parser).
  ASSERT_TRUE(client.Send("{\"cmd\":\"stats\xC0\xAF\"}"));
  r = client.ReadLine();
  ASSERT_TRUE(ParseJson(r).ok()) << r;
  EXPECT_NE(r.find("not valid UTF-8"), std::string::npos) << r;

  // Unknown command.
  ASSERT_TRUE(client.Send("{\"cmd\":\"frobnicate\"}"));
  r = client.ReadLine();
  EXPECT_NE(r.find("\"InvalidArgument\""), std::string::npos) << r;

  // Not an object.
  ASSERT_TRUE(client.Send("[1,2,3]"));
  r = client.ReadLine();
  EXPECT_NE(r.find("must be a JSON object"), std::string::npos) << r;

  // Out-of-domain numeric knob (search validates top_k).
  ASSERT_TRUE(client.Send(
      "{\"cmd\":\"match\",\"source\":\"a\",\"target\":\"b\","
      "\"config\":{\"th_accept\":1e99}}"));
  r = client.ReadLine();
  EXPECT_EQ(JsonField(r, "status"), "error") << r;

  // Oversized frame: structured OutOfRange, then the connection still
  // serves the next (normal) request.
  std::string big = "{\"cmd\":\"stats\",\"pad\":\"";
  big.append(2048, 'x');
  big += "\"}";
  ASSERT_TRUE(client.Send(big));
  r = client.ReadLine();
  EXPECT_NE(r.find("\"OutOfRange\""), std::string::npos) << r;
  ASSERT_TRUE(client.Send("{\"cmd\":\"stats\"}"));
  EXPECT_EQ(JsonField(client.ReadLine(), "cmd"), "stats");
  EXPECT_GE(fx.CounterValue("cupid.net.frames_rejected"), 1);
}

TEST(SocketServerTest, ClientConfigCannotChooseThreadCount) {
  // A client-chosen thread count used to reach the matcher unchecked, so a
  // large one made a match spawn that many threads. Matches now always run
  // their phases single-threaded: the knob is ignored, and the config
  // fingerprint (which digests the thread count) is the same as without it.
  ServerFixture fx;
  TestClient client(fx.port());
  ASSERT_TRUE(client.connected());
  const std::string match =
      "{\"cmd\":\"match\",\"source\":\"a\",\"target\":\"b\","
      "\"use_session\":false,\"use_result_cache\":false,";
  ASSERT_TRUE(client.Send(match + "\"config\":{\"th_accept\":0.5}}"));
  std::string plain = client.ReadLine();
  ASSERT_TRUE(client.Send(
      match + "\"config\":{\"th_accept\":0.5,\"num_threads\":100000}}"));
  std::string threaded = client.ReadLine();
  EXPECT_EQ(JsonField(plain, "status"), "ok") << plain;
  EXPECT_EQ(JsonField(threaded, "status"), "ok") << threaded;
  EXPECT_FALSE(JsonField(plain, "config_fingerprint").empty()) << plain;
  EXPECT_EQ(JsonField(plain, "config_fingerprint"),
            JsonField(threaded, "config_fingerprint"));
}

TEST(SocketServerTest, LoadIsRejectedInSocketMode) {
  ServerFixture fx;
  TestClient client(fx.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("{\"cmd\":\"load\",\"dir\":\"/tmp/nowhere\"}"));
  std::string r = client.ReadLine();
  EXPECT_NE(r.find("\"Unsupported\""), std::string::npos) << r;
}

/// Socket clients must not reach the server's filesystem: a socket-mode
/// executor refuses "register" with a "file" path and "save" (as it does
/// "load"), touching nothing on disk, while a stdin-mode executor still
/// registers the very same file.
TEST(ProtocolExecutorTest, SocketModeRefusesFilesystemCommands) {
  Thesaurus thesaurus = DefaultThesaurus();
  const std::string file = ::testing::TempDir() + "net_test_register.cupid";
  {
    std::ofstream out(file);
    out << kSchemaA;
  }
  const std::string save_dir = ::testing::TempDir() + "net_test_save_refused";
  std::remove(save_dir.c_str());

  auto run = [&](bool socket_mode, const std::string& line) {
    SchemaRepository repo;
    MatchService service(&thesaurus, &repo);
    ProtocolExecutor::Options options;
    options.socket_mode = socket_mode;
    ProtocolExecutor executor(&thesaurus, &repo, &service,
                              /*scheduler=*/nullptr, /*search=*/nullptr,
                              /*broker=*/nullptr, options);
    std::vector<std::string> out;
    executor.Execute(0, line, [&out](const std::string& frame) {
      out.push_back(frame);
    });
    EXPECT_EQ(out.size(), 1u) << line;
    return std::make_pair(out.empty() ? std::string() : out[0],
                          repo.Names().size());
  };
  const std::string register_file =
      "{\"cmd\":\"register\",\"name\":\"a\",\"file\":\"" + file + "\"}";
  const std::string save =
      "{\"cmd\":\"save\",\"dir\":\"" + save_dir + "\"}";

  auto [refused_register, socket_names] = run(true, register_file);
  EXPECT_NE(refused_register.find("\"Unsupported\""), std::string::npos)
      << refused_register;
  EXPECT_EQ(socket_names, 0u);
  auto [refused_save, unused] = run(true, save);
  EXPECT_NE(refused_save.find("\"Unsupported\""), std::string::npos)
      << refused_save;
  struct stat st;
  EXPECT_NE(stat(save_dir.c_str(), &st), 0) << "save created " << save_dir;

  auto [registered, stdin_names] = run(false, register_file);
  EXPECT_EQ(JsonField(registered, "status"), "ok") << registered;
  EXPECT_EQ(stdin_names, 1u);
  std::remove(file.c_str());
}

/// Match, cached-read and batch replies splice the result's one stored
/// rendering after the protocol version, and the bytes equal a direct
/// match's rendering; a cached read renders nothing.
TEST(ProtocolExecutorTest, RepliesSpliceOneRenderingPerResult) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.RegisterText("a", SchemaFormat::kNative, kSchemaA).ok());
  ASSERT_TRUE(repo.RegisterText("b", SchemaFormat::kNative, kSchemaB).ok());
  obs::MetricsRegistry metrics;
  MatchService::Options service_options;
  service_options.metrics = &metrics;
  MatchService service(&thesaurus, &repo, service_options);
  obs::Counter* renders =
      metrics.GetCounter("cupid.service.mapping_renders", "");
  ProtocolExecutor::Options options;
  options.selfcheck = true;  // also checks the spliced bytes
  ProtocolExecutor executor(&thesaurus, &repo, &service,
                            /*scheduler=*/nullptr, /*search=*/nullptr,
                            /*broker=*/nullptr, options);
  auto run = [&](const std::string& line) {
    std::vector<std::string> out;
    EXPECT_TRUE(executor.Execute(0, line, [&out](const std::string& frame) {
      out.push_back(frame);
    })) << line;
    return out;
  };
  const std::string want = DirectMappingMembers(repo);
  auto expect_reply = [&](const std::string& reply, bool hit,
                          const std::string& context) {
    EXPECT_EQ(reply.rfind("{\"v\":1,\"source\":\"a\",", 0), 0u)
        << context << ": " << reply;
    EXPECT_EQ(MappingMembers(reply, ",\"status\":\"ok\""), want) << context;
    EXPECT_NE(reply.find(",\"status\":\"ok\",\"selfcheck\":\"ok\"}"),
              std::string::npos)
        << context << ": " << reply;
    EXPECT_NE(reply.find(hit ? "\"result_cache_hit\":true"
                             : "\"result_cache_hit\":false"),
              std::string::npos)
        << context << ": " << reply;
  };
  const std::string match =
      "{\"cmd\":\"match\",\"source\":\"a\",\"target\":\"b\"}";
  std::vector<std::string> cold = run(match);
  ASSERT_EQ(cold.size(), 1u);
  expect_reply(cold[0], false, "cold");
  EXPECT_EQ(renders->value(), 1);

  std::vector<std::string> cached = run(match);
  ASSERT_EQ(cached.size(), 1u);
  expect_reply(cached[0], true, "cached read");
  EXPECT_EQ(renders->value(), 1);

  std::vector<std::string> batch = run(
      "{\"cmd\":\"batch\",\"requests\":["
      "{\"source\":\"a\",\"target\":\"b\"},"
      "{\"source\":\"a\",\"target\":\"b\",\"use_result_cache\":false},"
      "{\"source\":\"a\",\"target\":\"b\",\"mappings\":false}]}");
  ASSERT_EQ(batch.size(), 3u);
  expect_reply(batch[0], true, "batch cached");
  expect_reply(batch[1], false, "batch uncached");
  EXPECT_NE(batch[2].find("\"leaf_elements\":"), std::string::npos)
      << batch[2];
  EXPECT_EQ(batch[2].find("\"leaf_mapping\""), std::string::npos) << batch[2];
  EXPECT_EQ(renders->value(), 2);  // the uncached item only
}

/// Integer request fields are read exactly: a value that is not an integer
/// or does not fit an int is InvalidArgument, never truncated into another
/// version or a positive top_k.
TEST(ProtocolExecutorTest, IntegerFieldsAreCheckedNotTruncated) {
  Thesaurus thesaurus = DefaultThesaurus();
  SchemaRepository repo;
  ASSERT_TRUE(repo.RegisterText("a", SchemaFormat::kNative, kSchemaA).ok());
  ASSERT_TRUE(repo.RegisterText("b", SchemaFormat::kNative, kSchemaB).ok());
  MatchService service(&thesaurus, &repo);
  CorpusSearchService search(&thesaurus, &repo);
  ProtocolExecutor executor(&thesaurus, &repo, &service,
                            /*scheduler=*/nullptr, &search,
                            /*broker=*/nullptr, ProtocolExecutor::Options{});
  auto run = [&](const std::string& line) {
    std::vector<std::string> out;
    executor.Execute(0, line, [&out](const std::string& frame) {
      out.push_back(frame);
    });
    EXPECT_EQ(out.size(), 1u) << line;
    return out.empty() ? std::string() : out[0];
  };
  auto expect_rejected = [&](const std::string& line,
                             const std::string& field) {
    const std::string r = run(line);
    EXPECT_EQ(JsonField(r, "status"), "error") << line << " -> " << r;
    EXPECT_NE(r.find("\"InvalidArgument\""), std::string::npos) << r;
    EXPECT_NE(r.find(field + " must be an integer"), std::string::npos) << r;
  };
  // 4294967297 and 1.9 used to be served as version 1, -4294967295 became
  // top_k 1, and 1e300 overflowed the conversion.
  for (const std::string bad :
       {"4294967297", "1.9", "1e300", "-4294967295", "\"1\""}) {
    expect_rejected("{\"cmd\":\"match\",\"source\":\"a\",\"target\":"
                    "\"b\",\"source_version\":" + bad + "}",
                    "source_version");
    expect_rejected("{\"cmd\":\"batch\",\"requests\":[{\"source\":\"a\","
                    "\"target\":\"b\",\"target_version\":" + bad + "}]}",
                    "target_version");
    expect_rejected("{\"cmd\":\"search\",\"source\":\"a\","
                    "\"source_version\":" + bad + "}",
                    "source_version");
    expect_rejected(
        "{\"cmd\":\"search\",\"source\":\"a\",\"top_k\":" + bad + "}",
        "top_k");
    expect_rejected("{\"cmd\":\"search\",\"source\":\"a\","
                    "\"prune_min_keep\":" + bad + "}",
                    "prune_min_keep");
  }
  // Integral values, however written, are served.
  EXPECT_EQ(JsonField(run("{\"cmd\":\"match\",\"source\":\"a\","
                          "\"target\":\"b\",\"source_version\":1,"
                          "\"target_version\":1.0}"),
                      "status"),
            "ok");
  EXPECT_EQ(JsonField(run("{\"cmd\":\"search\",\"source\":\"a\","
                          "\"top_k\":1e0}"),
                      "status"),
            "ok");
}

/// One mutation pushed to N subscribers of one pair renders its result
/// once; every frame embeds the same bytes, equal to a direct match's.
TEST(SubscriptionTest, PushToManySubscribersRendersOnce) {
  constexpr int kSubscribers = 4;
  ServerFixture fx;
  std::vector<std::unique_ptr<TestClient>> subscribers;
  for (int i = 0; i < kSubscribers; ++i) {
    subscribers.push_back(std::make_unique<TestClient>(fx.port()));
    ASSERT_TRUE(subscribers.back()->connected());
    ASSERT_TRUE(subscribers.back()->Send(
        "{\"cmd\":\"subscribe\",\"source\":\"a\",\"target\":\"b\"}"));
    EXPECT_EQ(JsonField(subscribers.back()->ReadLine(), "cmd"), "subscribe");
  }
  obs::Counter* unstored = obs::MetricsRegistry::Default()->GetCounter(
      "cupid.service.mapping_renders", "");
  const int64_t renders = fx.CounterValue("cupid.service.mapping_renders");
  const int64_t unstored_renders = unstored->value();

  ASSERT_TRUE(fx.repo()
                  ->ApplyEdit("a", SchemaEdit::RenameElement(
                                       EditSide::kSource, "A.R.Qty",
                                       "Quantity"))
                  .ok());
  std::vector<std::string> frames;
  for (auto& subscriber : subscribers) {
    frames.push_back(subscriber->ReadLine());
    ASSERT_EQ(JsonField(frames.back(), "event"), "push") << frames.back();
  }
  for (const std::string& frame : frames) EXPECT_EQ(frame, frames[0]);
  EXPECT_EQ(MappingMembers(frames[0], "}}"), DirectMappingMembers(*fx.repo()));
  EXPECT_EQ(fx.CounterValue("cupid.service.mapping_renders") - renders, 1);
  EXPECT_EQ(unstored->value() - unstored_renders, 0);
}

TEST(SocketServerTest, ClientDisconnectMidPushClosesOnlyThatConnection) {
  ServerFixture fx;
  TestClient victim(fx.port());
  TestClient survivor(fx.port());
  ASSERT_TRUE(victim.connected());
  ASSERT_TRUE(survivor.connected());

  // Subscribe the victim, then kill it and edit: the push hits a dead
  // socket (EPIPE/ECONNRESET path), which must close only that connection.
  ASSERT_TRUE(victim.Send(
      "{\"cmd\":\"subscribe\",\"source\":\"a\",\"target\":\"b\"}"));
  EXPECT_EQ(JsonField(victim.ReadLine(), "cmd"), "subscribe");
  victim.Close();

  for (int i = 0; i < 50 && fx.broker()->subscriptions() > 0; ++i) {
    // The I/O thread reaps the dead socket and the disconnect hook drops
    // the subscription; an edit before that just pushes into the void.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto edited = fx.repo()->ApplyEdit(
      "a",
      SchemaEdit::RenameElement(EditSide::kSource, "A.R.Qty", "Quantity"));
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();

  // The survivor is unaffected: requests keep working.
  ASSERT_TRUE(survivor.Send("{\"cmd\":\"stats\"}"));
  EXPECT_EQ(JsonField(survivor.ReadLine(), "cmd"), "stats");
  EXPECT_EQ(fx.broker()->subscriptions(), 0);
}

// ---------------------------------------------------------------------------
// Subscription semantics
// ---------------------------------------------------------------------------

TEST(SubscriptionTest, PushMatchesFreshMatchBitForBit) {
  ServerFixture fx;
  TestClient subscriber(fx.port());
  TestClient editor(fx.port());
  ASSERT_TRUE(subscriber.connected());
  ASSERT_TRUE(editor.connected());

  ASSERT_TRUE(subscriber.Send(
      "{\"cmd\":\"subscribe\",\"source\":\"a\",\"target\":\"b\"}"));
  EXPECT_EQ(JsonField(subscriber.ReadLine(), "cmd"), "subscribe");

  ASSERT_TRUE(editor.Send(
      "{\"cmd\":\"edit\",\"name\":\"a\",\"op\":\"rename\","
      "\"path\":\"A.R.Qty\",\"to\":\"Quantity\"}"));
  EXPECT_EQ(JsonField(editor.ReadLine(), "cmd"), "edit");

  std::string push = subscriber.ReadLine();
  ASSERT_FALSE(push.empty());
  auto parsed = ParseJson(push);
  ASSERT_TRUE(parsed.ok()) << push;
  EXPECT_EQ(parsed->GetString("event"), "push");
  const JsonValue* response = parsed->Find("response");
  ASSERT_NE(response, nullptr);
  EXPECT_TRUE(response->GetBool("incremental"));

  // A fresh match of the same pair/version must produce the identical
  // mapping payload: extract the embedded response object verbatim and
  // compare mapping substrings against a fresh uncached match.
  ASSERT_TRUE(editor.Send(
      "{\"cmd\":\"match\",\"source\":\"a\",\"target\":\"b\","
      "\"use_result_cache\":false}"));
  std::string fresh = editor.ReadLine();
  auto fresh_parsed = ParseJson(fresh);
  ASSERT_TRUE(fresh_parsed.ok()) << fresh;

  // Byte-level comparison of the serialized mappings: locate the
  // leaf_mapping object in both payloads and brace-match it out.
  auto extract = [](const std::string& json, const char* key) {
    size_t start = json.find(std::string("\"") + key + "\":{");
    EXPECT_NE(start, std::string::npos) << json;
    if (start == std::string::npos) return std::string();
    size_t depth = 0, i = json.find('{', start);
    for (size_t j = i; j < json.size(); ++j) {
      if (json[j] == '{') ++depth;
      if (json[j] == '}' && --depth == 0) return json.substr(i, j - i + 1);
    }
    return std::string();
  };
  EXPECT_EQ(extract(push, "leaf_mapping"), extract(fresh, "leaf_mapping"));
  EXPECT_EQ(extract(push, "nonleaf_mapping"),
            extract(fresh, "nonleaf_mapping"));

  // Subscribe primed the baseline with the pre-edit mapping, so the rename
  // shows up as a real delta: the renamed leaf's pair is added, the old
  // pair removed.
  const JsonValue* delta = parsed->Find("delta");
  ASSERT_NE(delta, nullptr);
  const JsonValue* added = delta->Find("added");
  ASSERT_NE(added, nullptr);
  EXPECT_FALSE(added->array.empty());
  const JsonValue* removed = delta->Find("removed");
  ASSERT_NE(removed, nullptr);
  EXPECT_FALSE(removed->array.empty());
}

TEST(SubscriptionTest, NoPushAfterUnsubscribe) {
  ServerFixture fx;
  TestClient subscriber(fx.port());
  ASSERT_TRUE(subscriber.connected());

  ASSERT_TRUE(subscriber.Send(
      "{\"cmd\":\"subscribe\",\"src\":\"a\",\"tgt\":\"b\"}"));  // aliases
  EXPECT_EQ(JsonField(subscriber.ReadLine(), "cmd"), "subscribe");
  ASSERT_TRUE(subscriber.Send(
      "{\"cmd\":\"unsubscribe\",\"source\":\"a\",\"target\":\"b\"}"));
  EXPECT_EQ(JsonField(subscriber.ReadLine(), "cmd"), "unsubscribe");

  ASSERT_TRUE(fx.repo()
                  ->ApplyEdit("a", SchemaEdit::RenameElement(
                                       EditSide::kSource, "A.R.Qty",
                                       "Quantity"))
                  .ok());
  EXPECT_EQ(subscriber.TryReadLine(300), "");
  EXPECT_EQ(fx.CounterValue("cupid.net.pushes"), 0);
}

TEST(SubscriptionTest, PushesOrderedPerConnectionUnderConcurrentEdits) {
  ServerFixture fx;
  TestClient subscriber(fx.port());
  ASSERT_TRUE(subscriber.connected());
  ASSERT_TRUE(subscriber.Send(
      "{\"cmd\":\"subscribe\",\"source\":\"a\",\"target\":\"b\"}"));
  EXPECT_EQ(JsonField(subscriber.ReadLine(), "cmd"), "subscribe");

  // Hammer edits from two threads; every mutation is a distinct repository
  // version, and the subscriber must observe pushes with strictly
  // increasing edited-versions (the broker consumes events in mutation
  // order and delivers through one FIFO write queue).
  constexpr int kEditsPerThread = 4;
  auto edit_loop = [&fx](const char* from, const char* to) {
    for (int i = 0; i < kEditsPerThread; ++i) {
      std::string src = std::string("A.R.") + (i % 2 == 0 ? from : to);
      std::string dst = (i % 2 == 0 ? to : from);
      auto edit = SchemaEdit::RenameElement(EditSide::kSource, src, dst);
      ASSERT_TRUE(fx.repo()->ApplyEdit("a", edit).ok());
    }
  };
  std::thread t1(edit_loop, "Qty", "Quantity");
  std::thread t2(edit_loop, "City", "Town");
  t1.join();
  t2.join();

  int last_version = 1;
  for (int i = 0; i < 2 * kEditsPerThread; ++i) {
    std::string push = subscriber.ReadLine();
    ASSERT_FALSE(push.empty()) << "push " << i << " missing";
    auto parsed = ParseJson(push);
    ASSERT_TRUE(parsed.ok()) << push;
    ASSERT_EQ(parsed->GetString("event"), "push");
    const JsonValue* edited = parsed->Find("edited");
    ASSERT_NE(edited, nullptr);
    int version = static_cast<int>(edited->GetInt("version"));
    EXPECT_GT(version, last_version) << "out-of-order push";
    last_version = version;
  }
}

TEST(SubscriptionTest, SlowSubscriberIsDroppedNotWaitedOn) {
  SocketServer::Options options;
  options.write_queue_limit_bytes = 2048;  // a couple of pushes at most
  ServerFixture fx(options);
  TestClient subscriber(fx.port());
  ASSERT_TRUE(subscriber.connected());
  ASSERT_TRUE(subscriber.Send(
      "{\"cmd\":\"subscribe\",\"source\":\"a\",\"target\":\"b\"}"));
  EXPECT_EQ(JsonField(subscriber.ReadLine(), "cmd"), "subscribe");

  // The subscriber stops reading; edits keep flowing. The edit path must
  // never block — overflow drops the laggard and counts it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const char* from = "Qty";
  const char* to = "Quantity";
  while (fx.CounterValue("cupid.net.slow_subscriber_drops") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slow subscriber never dropped";
    auto edit = SchemaEdit::RenameElement(EditSide::kSource,
                                          std::string("A.R.") + from, to);
    ASSERT_TRUE(fx.repo()->ApplyEdit("a", edit).ok());
    std::swap(from, to);
  }
  EXPECT_GE(fx.CounterValue("cupid.net.slow_subscriber_drops"), 1);
  // The connection is reaped and its subscriptions dropped.
  for (int i = 0; i < 500 && fx.broker()->subscriptions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.broker()->subscriptions(), 0);
}

TEST(SubscriptionTest, SubscribeValidatesPair) {
  ServerFixture fx;
  TestClient client(fx.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(
      "{\"cmd\":\"subscribe\",\"source\":\"nope\",\"target\":\"b\"}"));
  std::string r = client.ReadLine();
  EXPECT_NE(r.find("\"NotFound\""), std::string::npos) << r;
  ASSERT_TRUE(client.Send("{\"cmd\":\"subscribe\",\"source\":\"a\"}"));
  r = client.ReadLine();
  EXPECT_NE(r.find("\"InvalidArgument\""), std::string::npos) << r;
}

}  // namespace
}  // namespace cupid
