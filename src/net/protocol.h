// ProtocolExecutor — the JSONL command protocol of cupid_server, factored
// out of the example binary so the stdin driver and the socket server run
// the exact same dispatch (docs/SERVICE.md, "The JSONL protocol").
//
// One Execute call handles one request line: validate at the boundary
// (UTF-8, JSON shape, knob domains), run the command against the warm
// service stack, and emit zero or more response lines through the caller's
// sink. Every response carries "v":1 and "status":"ok"/"error"; failures
// are structured {"error":{"code","message"}} objects and never throw or
// tear down the transport — the caller decides what a failed command means
// (the stdin driver counts it toward the exit code, the socket server just
// keeps serving).
//
// The executor is stateless between calls apart from the service stack it
// fronts, and is safe to call concurrently from scheduler workers EXCEPT
// for the repository-replacing "load" command. Socket mode therefore
// rejects "load" (Unsupported), and with it the two commands that reach
// the server's filesystem: "register" with a "file" path and "save".
// Socket clients register schemas as text. The stdin driver, which
// executes commands one at a time for whoever started the process, keeps
// all three.

#ifndef CUPID_NET_PROTOCOL_H_
#define CUPID_NET_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/subscription.h"
#include "service/corpus_search.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/thesaurus.h"
#include "util/json.h"
#include "util/status.h"

namespace cupid {

/// Protocol version stamped into every response line. Bump on incompatible
/// response-shape changes; clients reject versions they do not know.
inline constexpr int kProtocolVersion = 1;

class ProtocolExecutor {
 public:
  struct Options {
    /// Re-run every match directly through CupidMatcher and report
    /// "selfcheck":"ok"/"mismatch" per response (CI).
    bool selfcheck = false;
    /// Default of the per-request "mappings" flag.
    bool default_mappings = true;
    /// Socket mode: Execute runs on scheduler workers, so match/batch call
    /// MatchService directly instead of submit-and-wait (a worker waiting
    /// on its own pool deadlocks a single-worker scheduler); the
    /// repository-replacing "load" command and the filesystem-reaching
    /// "register file" and "save" are rejected (Unsupported).
    bool socket_mode = false;
  };

  /// Receives one response line (no trailing newline) per call.
  using Sink = std::function<void(const std::string&)>;

  /// All pointers must outlive the executor. `search` and `broker` may be
  /// null: the corresponding commands then fail with Unsupported.
  ProtocolExecutor(const Thesaurus* thesaurus, SchemaRepository* repository,
                   MatchService* service, JobScheduler* scheduler,
                   CorpusSearchService* search, SubscriptionBroker* broker,
                   Options options);

  /// \brief Executes one request line on behalf of `client_id` (0 for the
  /// stdin driver). Returns true when every emitted response was "ok"
  /// (selfcheck mismatches count as failures).
  bool Execute(uint64_t client_id, const std::string& line, const Sink& sink);

  /// \brief One protocol-v1 error line (the shape every failure uses).
  static std::string ErrorFrame(const std::string& cmd, const Status& status);

 private:
  bool CmdRegister(const JsonValue& v, const Sink& sink);
  bool CmdEdit(const JsonValue& v, const Sink& sink);
  bool CmdMatch(const JsonValue& v, const Sink& sink);
  bool CmdBatch(const JsonValue& v, const Sink& sink);
  bool CmdSearch(const JsonValue& v, const Sink& sink);
  bool CmdSaveLoad(const std::string& cmd, const JsonValue& v,
                   const Sink& sink);
  bool CmdStats(const Sink& sink);
  bool CmdMetrics(const JsonValue& v, const Sink& sink);
  bool CmdSubscribe(uint64_t client_id, const JsonValue& v, const Sink& sink);
  bool CmdUnsubscribe(uint64_t client_id, const JsonValue& v,
                      const Sink& sink);

  /// Runs one parsed match request on the path the mode allows (scheduler
  /// submit-and-wait for stdin, direct service call on a worker).
  Result<MatchResponse> RunMatch(MatchRequest request);

  /// Emits a MatchResponse with the protocol envelope spliced in; returns
  /// false on a selfcheck mismatch.
  bool EmitMatchResponse(const MatchResponse& response,
                         const CupidConfig& config, bool include_mappings,
                         const Sink& sink);

  const Thesaurus* thesaurus_;
  SchemaRepository* repository_;
  MatchService* service_;
  JobScheduler* scheduler_;
  CorpusSearchService* search_;
  SubscriptionBroker* broker_;
  Options options_;
};

}  // namespace cupid

#endif  // CUPID_NET_PROTOCOL_H_
