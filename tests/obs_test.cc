// Observability layer correctness: histogram bucket math, snapshot
// determinism across updater thread counts, span nesting/ordering through
// the trace sink, the guaranteed no-op disabled path, env-toggle parsing —
// and the load-bearing property of the whole subsystem: tracing on vs off
// is bit-identical through the full incremental match pipeline.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "eval/synthetic.h"
#include "incremental/match_session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/match_diff_testutil.h"
#include "thesaurus/default_thesaurus.h"
#include "util/env.h"
#include "util/json.h"
#include "util/random.h"

namespace cupid {
namespace {

TEST(HistogramTest, BucketMathAndPercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h =
      registry.GetHistogram("test.latency", "test", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(5.0);    // bucket 1 (<= 10)
  h->Observe(50.0);   // bucket 2 (<= 100)
  h->Observe(500.0);  // +Inf bucket
  EXPECT_EQ(h->count(), 4);
  EXPECT_DOUBLE_EQ(h->sum_ms(), 555.5);

  std::vector<obs::MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const obs::MetricSnapshot& m = snapshot[0];
  EXPECT_EQ(m.type, obs::MetricType::kHistogram);
  ASSERT_EQ(m.buckets.size(), 4u);  // three bounds + the +Inf bucket
  EXPECT_EQ(m.buckets[0], 1);
  EXPECT_EQ(m.buckets[1], 1);
  EXPECT_EQ(m.buckets[2], 1);
  EXPECT_EQ(m.buckets[3], 1);
  // rank(p50) = 2 lands at the top of the second bucket; observations in
  // the +Inf bucket report the last finite bound as a floor.
  EXPECT_DOUBLE_EQ(m.p50, 10.0);
  EXPECT_DOUBLE_EQ(m.p95, 100.0);
  EXPECT_DOUBLE_EQ(m.p99, 100.0);
}

TEST(HistogramTest, BoundaryValuesLandInTheLowerBucket) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("test.b", "test", {1.0, 10.0});
  h->Observe(1.0);   // exactly a bound: first bucket whose bound >= value
  h->Observe(10.0);
  std::vector<obs::MetricSnapshot> snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot[0].buckets[0], 1);
  EXPECT_EQ(snapshot[0].buckets[1], 1);
  EXPECT_EQ(snapshot[0].buckets[2], 0);
}

TEST(HistogramTest, DefaultBucketsAreAscending) {
  const std::vector<double>& bounds = obs::DefaultLatencyBucketsMs();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "bound " << i;
  }
}

TEST(MetricsRegistryTest, HandlesAreIdempotentAndSnapshotKeepsOrder) {
  obs::MetricsRegistry registry;
  obs::Counter* z = registry.GetCounter("test.z", "first help");
  obs::Gauge* a = registry.GetGauge("test.a", "gauge");
  obs::Counter* m = registry.GetCounter("test.m", "counter");
  EXPECT_EQ(registry.GetCounter("test.z", "other help"), z);  // same handle
  z->Add(3);
  a->Set(-7);
  m->Increment();

  std::vector<obs::MetricSnapshot> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Registration order, never hash order.
  EXPECT_EQ(snapshot[0].name, "test.z");
  EXPECT_EQ(snapshot[1].name, "test.a");
  EXPECT_EQ(snapshot[2].name, "test.m");
  EXPECT_EQ(snapshot[0].help, "first help");  // first registration wins
  EXPECT_EQ(snapshot[0].value, 3);
  EXPECT_EQ(snapshot[1].value, -7);
  EXPECT_EQ(snapshot[2].value, 1);
}

/// The same logical workload split over 1, 2, and 4 updater threads must
/// snapshot to identical values: counters are additive, and histogram sums
/// accumulate in integer microseconds, so no interleaving can change any
/// total.
TEST(MetricsRegistryTest, SnapshotDeterministicAcrossThreadCounts) {
  constexpr int kOps = 1200;  // divisible by every thread count below
  auto run = [](int num_threads) {
    obs::MetricsRegistry registry;
    obs::Counter* counter = registry.GetCounter("test.ops", "ops");
    obs::Histogram* h =
        registry.GetHistogram("test.ms", "ms", {0.5, 5.0, 50.0});
    std::vector<std::thread> threads;
    const int per_thread = kOps / num_threads;
    for (int t = 0; t < num_threads; ++t) {
      threads.emplace_back([counter, h, per_thread, t] {
        for (int i = 0; i < per_thread; ++i) {
          counter->Add(2);
          // Keyed on the global op index so every split observes the same
          // multiset of values.
          const int g = t * per_thread + i;
          h->Observe(0.1 + 0.001 * (g % 7));
          h->Observe(3.25);
          h->Observe(75.5);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    return registry.Snapshot();
  };

  std::vector<obs::MetricSnapshot> one = run(1);
  for (int num_threads : {2, 4}) {
    std::vector<obs::MetricSnapshot> many = run(num_threads);
    ASSERT_EQ(many.size(), one.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(many[i].name, one[i].name);
      EXPECT_EQ(many[i].value, one[i].value) << one[i].name;
      EXPECT_EQ(many[i].count, one[i].count) << one[i].name;
      EXPECT_EQ(many[i].sum_ms, one[i].sum_ms) << one[i].name;
      EXPECT_EQ(many[i].buckets, one[i].buckets) << one[i].name;
    }
  }
}

TEST(MetricsRegistryTest, RenderJsonIsParseableAndComplete) {
  obs::MetricsRegistry registry;
  registry.GetCounter("test.count", "a counter")->Add(41);
  registry.GetHistogram("test.ms", "a histogram", {1.0})->Observe(2.0);
  auto parsed = ParseJson(registry.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array.size(), 2u);
  EXPECT_EQ(parsed->array[0].GetString("name"), "test.count");
  EXPECT_EQ(parsed->array[0].GetInt("value", -1), 41);
  EXPECT_EQ(parsed->array[1].GetString("type"), "histogram");
  EXPECT_EQ(parsed->array[1].GetInt("count", -1), 1);
}

TEST(MetricsRegistryTest, RenderPrometheusUsesCumulativeBuckets) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("test.hist-ms", "h", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  std::string text = registry.RenderPrometheus();
  // '.' and '-' both map to '_'; bucket counts are cumulative.
  EXPECT_NE(text.find("test_hist_ms_bucket{le=\"1\"} 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_hist_ms_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_hist_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_hist_ms_count 2\n"), std::string::npos);
}

/// Installs `sink` for the scope and always restores the disabled state.
class ScopedSink {
 public:
  explicit ScopedSink(obs::TraceSink* sink) { obs::SetGlobalTraceSink(sink); }
  ~ScopedSink() { obs::SetGlobalTraceSink(nullptr); }
};

TEST(TraceTest, SpansNestAndEmitInCloseOrder) {
  obs::VectorTraceSink sink;
  ScopedSink installed(&sink);
  obs::TraceContext ctx("unit");
  obs::ScopedTraceContext scoped(&ctx);
  {
    obs::ScopedSpan outer("outer");
    ASSERT_TRUE(outer.enabled());
    outer.Attr("k", 1.5);
    {
      obs::ScopedSpan inner("inner");
      inner.Attr("rows", 42);
    }
  }
  std::vector<obs::SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: the inner span lands in the stream first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_STREQ(spans[0].label, "unit");
  EXPECT_STREQ(spans[1].label, "unit");
  ASSERT_EQ(spans[0].attr_count, 1u);
  EXPECT_STREQ(spans[0].attrs[0].key, "rows");
  EXPECT_EQ(spans[0].attrs[0].value, 42.0);
  // The inner span starts no earlier than the outer and fits inside it.
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[0].start_us + spans[0].duration_us,
            spans[1].start_us + spans[1].duration_us);
}

TEST(TraceTest, FormatSpanJsonIsOneParseableLine) {
  obs::SpanRecord span;
  span.name = "phase";
  span.label = "req";
  span.depth = 2;
  span.start_us = 10;
  span.duration_us = 250;
  span.attrs[0] = {"count", 3.0};
  span.attrs[1] = {"ms", 1.2345};
  span.attr_count = 2;
  char buf[512];
  size_t n = obs::FormatSpanJson(span, buf, sizeof(buf));
  std::string line(buf, n);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->GetString("span"), "phase");
  EXPECT_EQ(parsed->GetString("label"), "req");
  EXPECT_EQ(parsed->GetInt("depth", -1), 2);
  EXPECT_EQ(parsed->GetInt("dur_us", -1), 250);
  const JsonValue* attrs = parsed->Find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->GetInt("count", -1), 3);  // integral values print as ints
  EXPECT_NEAR(attrs->GetNumber("ms", 0.0), 1.234, 1e-3);
}

TEST(TraceTest, DisabledPathIsANoop) {
  obs::SetGlobalTraceSink(nullptr);
  obs::VectorTraceSink sink;  // never installed
  {
    obs::ScopedSpan span("ghost");
    EXPECT_FALSE(span.enabled());
    span.Attr("k", 1.0);  // must be safely ignorable
  }
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_FALSE(obs::TracingEnabledFast());
}

TEST(TraceTest, AttrsBeyondCapacityAreDroppedSilently) {
  obs::VectorTraceSink sink;
  ScopedSink installed(&sink);
  {
    obs::ScopedSpan span("wide");
    for (size_t i = 0; i < obs::SpanRecord::kMaxAttrs + 5; ++i) {
      span.Attr("k", static_cast<double>(i));
    }
  }
  std::vector<obs::SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].attr_count, obs::SpanRecord::kMaxAttrs);
}

TEST(EnvTest, FlagParsingContract) {
  unsetenv("CUPID_TEST_FLAG");
  EXPECT_FALSE(EnvFlag("CUPID_TEST_FLAG"));
  EXPECT_TRUE(EnvFlag("CUPID_TEST_FLAG", true));  // unset -> default
  for (const char* on : {"1", "true", "yes", "anything"}) {
    setenv("CUPID_TEST_FLAG", on, 1);
    EXPECT_TRUE(EnvFlag("CUPID_TEST_FLAG")) << on;
  }
  for (const char* off : {"", "0", "false", "FALSE", "off", "Off", "no"}) {
    setenv("CUPID_TEST_FLAG", off, 1);
    EXPECT_FALSE(EnvFlag("CUPID_TEST_FLAG", true)) << "'" << off << "'";
  }
  unsetenv("CUPID_TEST_FLAG");
  EXPECT_EQ(EnvString("CUPID_TEST_FLAG", "fallback"), "fallback");
  setenv("CUPID_TEST_FLAG", "value", 1);
  EXPECT_EQ(EnvString("CUPID_TEST_FLAG", "fallback"), "value");
  unsetenv("CUPID_TEST_FLAG");
}

/// Value of attribute `key` on `span`, or -1 when the span lacks it.
double SpanAttr(const obs::SpanRecord& span, const char* key) {
  for (size_t i = 0; i < span.attr_count; ++i) {
    if (std::string(span.attrs[i].key) == key) return span.attrs[i].value;
  }
  return -1.0;
}

/// A cold session.rematch span attributes its time to the phases that ran:
/// the sweep and the Section 7 recompute, not the mapping stage after them.
/// A CupidMatcher::Match runs the same pipeline and reports the same phases
/// under a cupid.match span. Each cold linguistic phase, the direct match's
/// included, splits its time into prepare and kernel in an lsim.match span.
TEST(TraceTest, ColdRematchSpanReportsSweepAndRecompute) {
  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = 20261017;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  MatchSession session(&thesaurus, pair.source, pair.target, config);
  CupidMatcher matcher(&thesaurus, config);

  obs::VectorTraceSink sink;
  {
    ScopedSink installed(&sink);
    auto result = session.Rematch();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto direct = matcher.Match(pair.source, pair.target);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  }
  ASSERT_FALSE(session.last_stats().incremental);
  int rematch_spans = 0, match_spans = 0;
  int lsim_spans = 0, direct_lsim_spans = 0;
  for (const obs::SpanRecord& span : sink.spans()) {
    const std::string name = span.name;
    if (name == "lsim.match") {
      // Spans close inner-first, so an lsim.match after the session's
      // rematch span belongs to the direct CupidMatcher::Match.
      ++lsim_spans;
      if (rematch_spans == 1) ++direct_lsim_spans;
      EXPECT_EQ(SpanAttr(span, "warm"), 0.0);
      EXPECT_GT(SpanAttr(span, "prepare_ms"), 0.0);
      EXPECT_GE(SpanAttr(span, "kernel_ms"), 0.0);
      EXPECT_EQ(SpanAttr(span, "prepared_sides"), 2.0);
      continue;
    }
    if (name == "session.rematch") {
      ++rematch_spans;
    } else if (name == "cupid.match") {
      ++match_spans;
    } else {
      continue;
    }
    EXPECT_EQ(SpanAttr(span, "warm"), 0.0) << name;
    EXPECT_EQ(SpanAttr(span, "delta_ms"), 0.0) << name;  // no delta when cold
    EXPECT_GT(SpanAttr(span, "linguistic_ms"), 0.0) << name;
    EXPECT_GT(SpanAttr(span, "trees_ms"), 0.0) << name;
    EXPECT_GT(SpanAttr(span, "sweep_ms"), 0.0) << name;
    EXPECT_GT(SpanAttr(span, "recompute_ms"), 0.0) << name;
    EXPECT_GE(SpanAttr(span, "mapping_ms"), 0.0) << name;
    EXPECT_GE(SpanAttr(span, "commit_ms"), 0.0) << name;
    EXPECT_EQ(SpanAttr(span, "gathered_rows"), 0.0) << name;
  }
  EXPECT_EQ(rematch_spans, 1);
  EXPECT_EQ(match_spans, 1);
  EXPECT_EQ(lsim_spans, 2);
  EXPECT_EQ(direct_lsim_spans, 1);
}

/// The tentpole guarantee: tracing must never influence match results.
/// Two sessions run the same edit stream — one with a sink installed, one
/// with tracing disabled — and every Rematch must be bit-identical.
TEST(TraceTest, TracingOnOffIsBitIdentical) {
  SyntheticOptions opt;
  opt.num_elements = 50;
  opt.seed = 20260808;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;

  MatchSession traced_session(&thesaurus, pair.source, pair.target, config);
  MatchSession plain_session(&thesaurus, pair.source, pair.target, config);
  obs::VectorTraceSink sink;
  SplitMix64 rng(97);

  for (int step = 0; step <= 6; ++step) {
    if (step > 0) {
      SchemaEdit edit = RandomSessionEdit(&rng, plain_session.source(),
                                          plain_session.target(), step);
      ASSERT_TRUE(plain_session.ApplyEdit(edit).ok()) << "step " << step;
      ASSERT_TRUE(traced_session.ApplyEdit(edit).ok()) << "step " << step;
    }
    obs::SetGlobalTraceSink(nullptr);
    auto plain = plain_session.Rematch();
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    obs::SetGlobalTraceSink(&sink);
    auto traced = traced_session.Rematch();
    obs::SetGlobalTraceSink(nullptr);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();

    ExpectIdenticalResults(**traced, **plain,
                           "traced-vs-plain step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The traced run must actually have traced: every Rematch emits at least
  // the session.rematch span.
  EXPECT_GE(sink.size(), 7u);
}

/// Every match pipeline run adds exactly one sample to each
/// cupid.match.phase_ms.* histogram: a cold CupidMatcher::Match and a warm
/// MatchSession::Rematch alike, traced or not. Tracing still leaves both
/// results bit-identical.
TEST(MetricsRegistryTest, MatchPipelineRecordsOneSamplePerPhase) {
  const char* kPhases[] = {
      "cupid.match.phase_ms.linguistic", "cupid.match.phase_ms.trees",
      "cupid.match.phase_ms.delta",      "cupid.match.phase_ms.sweep",
      "cupid.match.phase_ms.recompute",  "cupid.match.phase_ms.mapping"};
  auto counts = [&kPhases] {
    std::vector<int64_t> out;
    for (const char* name : kPhases) {
      out.push_back(
          obs::MetricsRegistry::Default()->GetHistogram(name, "")->count());
    }
    return out;
  };
  auto expect_one_more = [&](const std::vector<int64_t>& before,
                             const std::string& context) {
    std::vector<int64_t> after = counts();
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], 1) << context << ": " << kPhases[i];
    }
  };

  SyntheticOptions opt;
  opt.num_elements = 60;
  opt.seed = 20261018;
  SyntheticPair pair = GenerateSyntheticPair(opt);
  Thesaurus thesaurus = DefaultThesaurus();
  CupidConfig config;
  CupidMatcher matcher(&thesaurus, config);
  obs::VectorTraceSink sink;

  std::vector<int64_t> before = counts();
  auto plain = matcher.Match(pair.source, pair.target);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  expect_one_more(before, "untraced match");
  before = counts();
  Result<MatchResult> traced(Status::Internal("not run"));
  {
    ScopedSink installed(&sink);
    traced = matcher.Match(pair.source, pair.target);
  }
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  expect_one_more(before, "traced match");
  ExpectIdenticalResults(*traced, *plain, "traced-vs-plain match");

  MatchSession plain_session(&thesaurus, pair.source, pair.target, config);
  MatchSession traced_session(&thesaurus, pair.source, pair.target, config);
  ASSERT_TRUE(plain_session.Rematch().ok());
  ASSERT_TRUE(traced_session.Rematch().ok());
  SplitMix64 rng(41);
  SchemaEdit edit = RandomSessionEdit(&rng, plain_session.source(),
                                      plain_session.target(), 1);
  ASSERT_TRUE(plain_session.ApplyEdit(edit).ok());
  ASSERT_TRUE(traced_session.ApplyEdit(edit).ok());
  before = counts();
  auto warm_plain = plain_session.Rematch();
  ASSERT_TRUE(warm_plain.ok()) << warm_plain.status().ToString();
  ASSERT_TRUE(plain_session.last_stats().incremental);
  expect_one_more(before, "untraced warm rematch");
  before = counts();
  Result<const MatchResult*> warm_traced(
      Status::Internal("not run"));
  {
    ScopedSink installed(&sink);
    warm_traced = traced_session.Rematch();
  }
  ASSERT_TRUE(warm_traced.ok()) << warm_traced.status().ToString();
  ASSERT_TRUE(traced_session.last_stats().incremental);
  expect_one_more(before, "traced warm rematch");
  ExpectIdenticalResults(**warm_traced, **warm_plain,
                         "traced-vs-plain warm rematch");
  EXPECT_GE(sink.size(), 2u);
}

}  // namespace
}  // namespace cupid
