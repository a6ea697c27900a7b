#include "net/subscription.h"

#include <algorithm>
#include <tuple>

#include "util/json.h"

namespace cupid {

namespace {

using PathPairs = std::vector<std::pair<std::string, std::string>>;

std::shared_ptr<const PathPairs> SortedLeafPairs(const Mapping& mapping) {
  auto pairs = std::make_shared<PathPairs>();
  pairs->reserve(mapping.elements.size());
  for (const MappingElement& e : mapping.elements) {
    pairs->emplace_back(e.source_path, e.target_path);
  }
  std::sort(pairs->begin(), pairs->end());
  return pairs;
}

void AppendPairArray(const PathPairs& pairs, std::string* out) {
  out->push_back('[');
  bool first = true;
  for (const auto& p : pairs) {
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"source_path\":\"");
    JsonEscapeTo(p.first, out);
    out->append("\",\"target_path\":\"");
    JsonEscapeTo(p.second, out);
    out->append("\"}");
  }
  out->push_back(']');
}

}  // namespace

SubscriptionBroker::SubscriptionBroker(MatchService* service,
                                       JobScheduler* scheduler, PushFn push,
                                       Options options)
    : service_(service),
      scheduler_(scheduler),
      push_(std::move(push)),
      options_(options) {
  obs::MetricsRegistry* reg =
      options_.metrics ? options_.metrics : obs::MetricsRegistry::Default();
  subscriptions_gauge_ = reg->GetGauge("cupid.net.subscriptions",
                                       "active (client, pair) subscriptions");
  pushes_ = reg->GetCounter("cupid.net.pushes",
                            "mapping-delta push frames delivered");
  push_failures_ = reg->GetCounter(
      "cupid.net.push_failures",
      "push frames not delivered (client gone or dropped for overflow)");
  events_counter_ =
      reg->GetCounter("cupid.net.mutation_events",
                      "schema mutation events consumed by the broker");
  push_ms_ = reg->GetHistogram(
      "cupid.net.push_ms",
      "mutation-to-delivery latency of push frames, milliseconds");
  notifier_ = std::thread([this] { NotifierLoop(); });
}

SubscriptionBroker::~SubscriptionBroker() { Stop(); }

void SubscriptionBroker::AttachTo(SchemaRepository* repository) {
  repository->SetMutationListener(
      [this](const std::string& name, int version) {
        OnSchemaMutated(name, version);
      });
}

Status SubscriptionBroker::Subscribe(uint64_t client_id,
                                     const std::string& source,
                                     const std::string& target,
                                     const CupidConfig& config,
                                     const std::function<void()>& ack) {
  Status config_ok = config.Validate();
  if (!config_ok.ok()) return config_ok;
  SchemaRepository* repo = service_->repository();
  if (repo->LatestVersion(source) == 0) {
    return Status::NotFound("unknown source schema: " + source);
  }
  if (repo->LatestVersion(target) == 0) {
    return Status::NotFound("unknown target schema: " + target);
  }
  Subscription sub;
  sub.client_id = client_id;
  sub.source = source;
  sub.target = target;
  sub.config = config;
  sub.fingerprint = ConfigFingerprint(config);
  // Prime the pair's session now: the subscription's whole point is the
  // warm incremental path, so the first edit must already find a session
  // to replay into (its push reports incremental=true), and the current
  // mapping becomes the baseline the first delta diffs against.
  {
    MatchRequest request;
    request.source = source;
    request.target = target;
    request.config = config;
    auto primed = service_->Match(request);
    if (primed.ok()) {
      sub.last_leaf_pairs = SortedLeafPairs(primed->leaf_mapping);
    }
    // On failure the subscription still registers; the first push is then
    // all-added against an empty baseline.
  }
  MutexLock lock(&mu_);
  if (stop_) return Status::Unavailable("broker is shutting down");
  SubKey key{client_id, source, target};
  auto it = subs_.find(key);
  if (it == subs_.end()) {
    subs_.emplace(std::move(key), std::move(sub));
    ++client_sub_counts_[client_id];
    if (client_sub_counts_[client_id] == 1 && idle_exempt_) {
      idle_exempt_(client_id, true);
    }
  } else {
    it->second = std::move(sub);  // re-subscribe replaces config, resets delta
  }
  subscriptions_gauge_->Set(static_cast<int64_t>(subs_.size()));
  if (ack) ack();  // under mu_: ordered before any push for this sub
  return Status::OK();
}

Status SubscriptionBroker::Unsubscribe(uint64_t client_id,
                                       const std::string& source,
                                       const std::string& target) {
  MutexLock lock(&mu_);
  auto it = subs_.find(SubKey{client_id, source, target});
  if (it == subs_.end()) {
    return Status::NotFound("no subscription for (" + source + ", " + target +
                            ")");
  }
  subs_.erase(it);
  auto cit = client_sub_counts_.find(client_id);
  if (cit != client_sub_counts_.end() && --cit->second == 0) {
    client_sub_counts_.erase(cit);
    if (idle_exempt_) idle_exempt_(client_id, false);
  }
  subscriptions_gauge_->Set(static_cast<int64_t>(subs_.size()));
  return Status::OK();
}

void SubscriptionBroker::DropClient(uint64_t client_id) {
  MutexLock lock(&mu_);
  auto it = subs_.lower_bound(SubKey{client_id, "", ""});
  while (it != subs_.end() && std::get<0>(it->first) == client_id) {
    it = subs_.erase(it);
  }
  client_sub_counts_.erase(client_id);
  // No idle_exempt_ callback: the client is disconnecting anyway.
  subscriptions_gauge_->Set(static_cast<int64_t>(subs_.size()));
}

void SubscriptionBroker::OnSchemaMutated(const std::string& name,
                                         int version) {
  Event event;
  event.name = name;
  event.version = version;
  event.enqueued = std::chrono::steady_clock::now();
  MutexLock lock(&mu_);
  if (stop_) return;
  events_.push_back(std::move(event));
  cv_.Signal();
}

void SubscriptionBroker::Stop() {
  {
    MutexLock lock(&mu_);
    if (!stop_) {
      stop_ = true;
      cv_.SignalAll();
    }
  }
  if (notifier_.joinable()) notifier_.join();
}

int64_t SubscriptionBroker::subscriptions() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(subs_.size());
}

void SubscriptionBroker::NotifierLoop() {
  for (;;) {
    Event event;
    {
      MutexLock lock(&mu_);
      while (events_.empty() && !stop_) cv_.Wait(&mu_);
      if (events_.empty()) {
        // stop_ set and the queue drained: every pre-Stop event delivered.
        return;
      }
      event = std::move(events_.front());
      events_.pop_front();
    }
    events_counter_->Increment();
    ProcessEvent(event);
  }
}

void SubscriptionBroker::ProcessEvent(const Event& event) {
  // Snapshot the subscriptions touching the mutated schema. std::map order
  // makes delivery deterministic: by client id, then source, then target.
  std::vector<Subscription> affected;
  {
    MutexLock lock(&mu_);
    for (const auto& [key, sub] : subs_) {
      if (sub.source == event.name || sub.target == event.name) {
        affected.push_back(sub);
      }
    }
  }
  if (affected.empty()) return;

  // One re-match per distinct (source, target, fingerprint) group — N
  // subscribers of the same pair share a single warm Rematch. Groups run
  // concurrently over the scheduler (it is safe to Wait here: the notifier
  // is not a scheduler worker).
  struct Group {
    MatchRequest request;
    Result<MatchResponse> result{Status::Internal("not run")};
  };
  std::map<std::tuple<std::string, std::string, uint64_t>, Group> groups;
  for (const Subscription& sub : affected) {
    auto key = std::make_tuple(sub.source, sub.target, sub.fingerprint);
    if (groups.count(key)) continue;
    Group g;
    g.request.source = sub.source;
    g.request.target = sub.target;
    g.request.config = sub.config;
    groups.emplace(std::move(key), std::move(g));
  }
  std::vector<std::pair<Group*, std::shared_ptr<MatchJob>>> jobs;
  for (auto& [key, group] : groups) {
    Group* g = &group;
    std::shared_ptr<MatchJob> job;
    if (scheduler_ != nullptr) {
      MatchRequest request = g->request;
      MatchService* service = service_;
      auto submitted = scheduler_->SubmitTask(
          [service, request] { return service->Match(request); });
      if (submitted.ok()) job = *submitted;
    }
    if (job == nullptr) {
      // No scheduler, or its admission queue is full — run here.
      g->result = service_->Match(g->request);
    }
    jobs.emplace_back(g, std::move(job));
  }
  for (auto& [g, job] : jobs) {
    if (job != nullptr) g->result = job->Wait();
  }

  // Build and deliver one frame per subscription, sequentially (per-client
  // ordering comes from this single loop + the per-connection FIFO write
  // queue downstream).
  for (const Subscription& sub : affected) {
    auto git =
        groups.find(std::make_tuple(sub.source, sub.target, sub.fingerprint));
    if (git == groups.end()) continue;
    const Result<MatchResponse>& result = git->second.result;
    std::string frame;
    std::shared_ptr<const PathPairs> leaf_pairs;
    if (result.ok()) {
      const MatchResponse& response = *result;
      leaf_pairs = SortedLeafPairs(response.leaf_mapping);
      PathPairs added, removed;
      if (sub.last_leaf_pairs != nullptr) {
        const PathPairs& last = *sub.last_leaf_pairs;
        std::set_difference(leaf_pairs->begin(), leaf_pairs->end(),
                            last.begin(), last.end(),
                            std::back_inserter(added));
        std::set_difference(last.begin(), last.end(), leaf_pairs->begin(),
                            leaf_pairs->end(), std::back_inserter(removed));
      } else {
        added = *leaf_pairs;  // first push: everything is new
      }
      frame = "{\"v\":1,\"event\":\"push\",\"source\":\"";
      JsonEscapeTo(sub.source, &frame);
      frame.append("\",\"target\":\"");
      JsonEscapeTo(sub.target, &frame);
      frame.append("\",\"edited\":{\"name\":\"");
      JsonEscapeTo(event.name, &frame);
      frame.append("\",\"version\":");
      frame.append(std::to_string(event.version));
      frame.append("},\"delta\":{\"added\":");
      AppendPairArray(added, &frame);
      frame.append(",\"removed\":");
      AppendPairArray(removed, &frame);
      // The embedded response is MatchResponse::ToJson verbatim — byte-equal
      // to the `response` object of a fresh `match` at these versions. Its
      // mappings are the group's one stored rendering, so N subscribers of
      // a pair cost one render and N copies.
      frame.append("},\"response\":");
      frame.append(response.ToJson(true));
      frame.push_back('}');
    } else {
      // Re-match failure (e.g. the repository went read-only): tell the
      // subscriber rather than silently going stale.
      frame = "{\"v\":1,\"event\":\"push_error\",\"source\":\"";
      JsonEscapeTo(sub.source, &frame);
      frame.append("\",\"target\":\"");
      JsonEscapeTo(sub.target, &frame);
      frame.append("\",\"error\":{\"code\":\"");
      frame.append(StatusCodeToString(result.status().code()));
      frame.append("\",\"message\":\"");
      JsonEscapeTo(result.status().message(), &frame);
      frame.append("\"}}");
    }

    bool delivered = push_(sub.client_id, frame);
    if (delivered) {
      pushes_->Increment();
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - event.enqueued)
                      .count();
      push_ms_->Observe(ms);
    } else {
      push_failures_->Increment();
    }

    // Persist the delta baseline (skip if the subscription changed or went
    // away while we were matching — a replacement resets the baseline on
    // purpose).
    if (result.ok()) {
      MutexLock lock(&mu_);
      auto sit = subs_.find(SubKey{sub.client_id, sub.source, sub.target});
      if (sit != subs_.end() && sit->second.fingerprint == sub.fingerprint) {
        sit->second.last_leaf_pairs = std::move(leaf_pairs);
      }
    }
  }
}

}  // namespace cupid
