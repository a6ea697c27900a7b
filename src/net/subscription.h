// SubscriptionBroker — change-notification push for matched schema pairs.
//
// A client subscribed to (source, target) wants the mapping kept current:
// whenever either schema mutates through the SchemaRepository, the broker
// re-matches the pair and pushes the result. The incremental engine makes
// this cheap — the re-match rides MatchService's warm per-pair session, so
// an edit costs a warm Rematch (docs/INCREMENTAL.md), not a cold match,
// and the pushed payload is bit-identical to a fresh `match` response for
// the same versions (the Rematch guarantee turned into a live-update
// guarantee).
//
// Pipeline and ordering:
//
//   repository mutation ──(listener, under repo lock)──▶ event queue
//        event queue ──(single notifier thread)──▶ per-pair re-matches
//             re-matches ──(sharded over the JobScheduler)──▶ push frames
//                  push frames ──(PushFn, per-client order)──▶ sockets
//
//   * The repository invokes the listener while holding its mutation lock,
//     so events enter the queue in true mutation order.
//   * One notifier thread consumes events strictly in order and delivers
//     every push of event N before any push of event N+1 — pushes are
//     totally ordered per connection even under concurrent edits.
//   * Within one event, the distinct (source, target, config) groups
//     re-match concurrently over the shared JobScheduler (inline fallback
//     when its admission queue is full); delivery then walks subscriptions
//     in a deterministic order.
//   * The edit path never blocks on slow subscribers: PushFn enqueues into
//     the socket server's bounded write queue and reports overflow, which
//     drops the laggard (counted, never waited on).
//
// Each push carries the full mapping plus a delta against the previous
// push of the same subscription (leaf pairs added/removed) — the delta is
// a convenience for clients; the full payload is the source of truth.

#ifndef CUPID_NET_SUBSCRIPTION_H_
#define CUPID_NET_SUBSCRIPTION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/config.h"
#include "obs/metrics.h"
#include "service/job_scheduler.h"
#include "service/match_service.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cupid {

class SubscriptionBroker {
 public:
  struct Options {
    /// nullptr = obs::MetricsRegistry::Default().
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Delivers one push frame to a client; returns false when the client is
  /// gone or was dropped for overflow (the broker then removes its
  /// subscriptions). Must be callable from the notifier thread and must
  /// not call back into the broker.
  using PushFn = std::function<bool(uint64_t client_id, const std::string&)>;

  /// Optional: toggles a client's idle-timeout exemption as its first
  /// subscription appears / last one goes away.
  using IdleExemptFn = std::function<void(uint64_t client_id, bool exempt)>;

  /// `service` and `scheduler` must outlive the broker; `scheduler` may be
  /// null (re-matches then run on the notifier thread). Starts the
  /// notifier thread; install the repository listener with
  /// AttachTo(repository).
  SubscriptionBroker(MatchService* service, JobScheduler* scheduler,
                     PushFn push, Options options);
  SubscriptionBroker(MatchService* service, JobScheduler* scheduler,
                     PushFn push)
      : SubscriptionBroker(service, scheduler, std::move(push), Options()) {}
  ~SubscriptionBroker();

  SubscriptionBroker(const SubscriptionBroker&) = delete;
  SubscriptionBroker& operator=(const SubscriptionBroker&) = delete;

  void set_idle_exempt_fn(IdleExemptFn fn) { idle_exempt_ = std::move(fn); }

  /// \brief Installs this broker as `repository`'s mutation listener.
  void AttachTo(SchemaRepository* repository);

  /// \brief Registers `client_id`'s interest in (source, target) under
  /// `config`. Re-subscribing the same pair replaces the config. Fails
  /// with NotFound when either schema is absent and InvalidArgument on a
  /// bad config. When `ack` is non-null it runs under the broker lock,
  /// atomically with registration — sinking the ok-response there
  /// guarantees both that the ok precedes any push on the connection
  /// (event processing snapshots subscriptions under the same lock; the
  /// write queue is FIFO) and that a client which has read the ok is
  /// already registered. `ack` must not call back into the broker.
  Status Subscribe(uint64_t client_id, const std::string& source,
                   const std::string& target, const CupidConfig& config,
                   const std::function<void()>& ack = nullptr);

  /// \brief Removes one subscription; NotFound when it does not exist.
  Status Unsubscribe(uint64_t client_id, const std::string& source,
                     const std::string& target);

  /// \brief Drops every subscription of `client_id` (disconnect hook).
  void DropClient(uint64_t client_id);

  /// \brief Mutation event intake (the repository listener target). Fast:
  /// appends to the event queue and wakes the notifier. Safe to call with
  /// the repository lock held.
  void OnSchemaMutated(const std::string& name, int version);

  /// \brief Processes every queued event (delivering its pushes), then
  /// stops the notifier thread. Idempotent; called on graceful shutdown
  /// *before* the socket server closes connections.
  void Stop();

  /// Active subscriptions (the cupid.net.subscriptions gauge's source).
  int64_t subscriptions() const;

 private:
  struct Event {
    std::string name;
    int version = 0;
    /// Position in the mutation order (next_event_).
    uint64_t seq = 0;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One client's interest in one pair.
  struct Subscription {
    uint64_t client_id = 0;
    std::string source, target;
    CupidConfig config;
    uint64_t fingerprint = 0;
    /// The first event this subscription is pushed: earlier ones were
    /// queued before its priming match began, which saw their mutations.
    uint64_t first_event = 0;
    /// Leaf (source_path, target_path) pairs of the last pushed mapping,
    /// sorted — the baseline the next push's delta diffs against. Shared,
    /// so an event's snapshot of the subscription does not copy it. Null
    /// until the first successful match (the first push is then all-added).
    std::shared_ptr<const std::vector<std::pair<std::string, std::string>>>
        last_leaf_pairs;
  };

  /// Key: client + pair. std::map keeps delivery order deterministic.
  using SubKey = std::tuple<uint64_t, std::string, std::string>;

  void NotifierLoop();
  void ProcessEvent(const Event& event);

  MatchService* service_;
  JobScheduler* scheduler_;
  PushFn push_;
  IdleExemptFn idle_exempt_;
  Options options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Event> events_ GUARDED_BY(mu_);
  uint64_t next_event_ GUARDED_BY(mu_) = 0;
  std::map<SubKey, Subscription> subs_ GUARDED_BY(mu_);
  /// Subscriptions per client (drives the idle-exemption toggle).
  std::map<uint64_t, int> client_sub_counts_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread notifier_;

  obs::Gauge* subscriptions_gauge_;
  obs::Counter* pushes_;
  obs::Counter* push_failures_;
  obs::Counter* events_counter_;  // mutation events consumed
  obs::Histogram* push_ms_;
};

}  // namespace cupid

#endif  // CUPID_NET_SUBSCRIPTION_H_
