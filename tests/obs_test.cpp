// Tests for the telemetry subsystem (src/obs): metric primitives and
// merge semantics, histogram bucket math, registry label handling, the
// Prometheus/JSONL exporters (byte-stable round-trips), sharded-registry
// determinism across thread counts on the §5.4 evaluator, instrumentation
// transparency (sim outputs unchanged with/without a registry), and the
// wall-clock span.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "link/slot_eval.hpp"
#include "motion/trace.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

// ---- Counter / Gauge ----

TEST(ObsCounterTest, IncrementsAndMerges) {
  obs::Counter a, b;
  a.inc();
  a.inc(41);
  b.inc(100);
  EXPECT_EQ(a.value(), 42u);
  a.merge_from(b);
  EXPECT_EQ(a.value(), 142u);
  EXPECT_EQ(b.value(), 100u);  // merge does not consume the source
}

TEST(ObsGaugeTest, MergeKeepsOtherOnlyWhenEverSet) {
  obs::Gauge set_once, never_set, target;
  set_once.set(3.5);
  target.set(1.0);
  target.merge_from(never_set);  // no-op: the source never wrote
  EXPECT_DOUBLE_EQ(target.value(), 1.0);
  target.merge_from(set_once);
  EXPECT_DOUBLE_EQ(target.value(), 3.5);
  EXPECT_FALSE(never_set.ever_set());
  EXPECT_TRUE(target.ever_set());
}

TEST(ObsGaugeTest, MergeIsOrderIndependent) {
  // Fleet shard rollups merge per-session registries in arbitrary order;
  // gauge merge takes the max so any order yields the same bytes.
  obs::Gauge ab, ba, lo, hi;
  lo.set(3.0);
  hi.set(5.0);
  ab.merge_from(lo);
  ab.merge_from(hi);
  ba.merge_from(hi);
  ba.merge_from(lo);
  EXPECT_DOUBLE_EQ(ab.value(), 5.0);
  EXPECT_DOUBLE_EQ(ba.value(), 5.0);
}

// ---- HistogramSpec ----

TEST(ObsHistogramSpecTest, LogScaleEdges) {
  const obs::HistogramSpec spec = obs::HistogramSpec::log_scale(1.0, 1e3, 5);
  // 5 buckets per decade over 3 decades: edges 10^0, 10^0.2, ..., 10^3.
  ASSERT_EQ(spec.bounds.size(), 16u);
  EXPECT_DOUBLE_EQ(spec.bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(spec.bounds[5], 10.0);    // exact at decade boundaries
  EXPECT_DOUBLE_EQ(spec.bounds[10], 100.0);
  EXPECT_DOUBLE_EQ(spec.bounds.back(), 1000.0);
  for (std::size_t i = 1; i < spec.bounds.size(); ++i) {
    EXPECT_LT(spec.bounds[i - 1], spec.bounds[i]);
  }
}

TEST(ObsHistogramSpecTest, LinearEdgesMapIntegersToOwnBuckets) {
  // Edges -0.5+i so bucket_index(t) == t exactly for integer t (a
  // per-event-type tally layout).
  const obs::HistogramSpec spec = obs::HistogramSpec::linear(-0.5, 1.0, 8);
  obs::Histogram h(spec);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(h.bucket_index(static_cast<double>(t)),
              static_cast<std::size_t>(t));
  }
  EXPECT_EQ(h.bucket_index(8.0), 8u);  // overflow bucket
}

// ---- Histogram ----

TEST(ObsHistogramTest, RecordCountExtremaAndOverflow) {
  obs::Histogram h(obs::HistogramSpec::linear(0.0, 10.0, 3));  // 10,20,30
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.min()));
  EXPECT_TRUE(std::isinf(h.max()));
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 0.0);  // empty -> 0

  h.record(5.0);    // bucket 0 (le 10)
  h.record(10.0);   // bucket 0: bounds are inclusive upper edges
  h.record(10.5);   // bucket 1
  h.record(1e9);    // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // approx_sum uses upper edges, overflow clamped to the last finite edge:
  // 10 + 10 + 20 + 30.
  EXPECT_DOUBLE_EQ(h.approx_sum(), 70.0);
  EXPECT_DOUBLE_EQ(h.approx_mean(), 17.5);
}

TEST(ObsHistogramTest, QuantilesUseNearestRank) {
  obs::Histogram h(obs::HistogramSpec::linear(0.0, 1.0, 10));
  for (int i = 0; i < 100; ++i) h.record(i * 0.1);  // ~10 per bucket
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.0), 1.0);   // rank clamps to 1
  EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.approx_quantile(1.0), 10.0);
}

TEST(ObsHistogramTest, MergePreservesBucketsAndExtrema) {
  const obs::HistogramSpec spec = obs::HistogramSpec::linear(0.0, 1.0, 4);
  obs::Histogram a(spec), b(spec);
  a.record(0.5);
  a.record(3.5);
  b.record(2.5);
  b.record(100.0);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(2), 1u);
  EXPECT_EQ(a.bucket(3), 1u);
  EXPECT_EQ(a.bucket(4), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

// ---- Spans ----

TEST(ObsSpanTest, WallSpanRecordsOnDestructionAndNullIsNoop) {
  obs::Registry registry;
  obs::Histogram& h =
      registry.histogram("op_wall_us", obs::HistogramSpec::duration_us());
  { obs::WallSpan span(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);

  { obs::WallSpan null_wall(nullptr); }  // must not crash
}

// ---- Registry ----

TEST(ObsRegistryTest, GetOrCreateByNameAndLabels) {
  obs::Registry registry;
  EXPECT_TRUE(registry.empty());
  obs::Counter& a = registry.counter("hits_total", {{"plane", "eval"}});
  obs::Counter& b = registry.counter("hits_total", {{"plane", "session"}});
  obs::Counter& a2 = registry.counter("hits_total", {{"plane", "eval"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);  // same key -> same metric
  a.inc(3);
  EXPECT_FALSE(registry.empty());

  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 2u);
  // Sorted by (name, labels): eval before session.
  EXPECT_EQ(counters[0].first.labels.at("plane"), "eval");
  EXPECT_EQ(counters[0].second->value(), 3u);
}

TEST(ObsRegistryTest, MergeCreatesAndAccumulates) {
  obs::Registry a, b;
  a.counter("n").inc(1);
  b.counter("n").inc(10);
  b.gauge("g").set(7.0);
  b.histogram("h", obs::HistogramSpec::linear(0.0, 1.0, 2)).record(0.5);
  a.merge_from(b);
  EXPECT_EQ(a.counter("n").value(), 11u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 7.0);
  EXPECT_EQ(a.histogram("h", obs::HistogramSpec::linear(0.0, 1.0, 2)).count(),
            1u);
}

// Fleet-wide rollup: two sessions' context registries folded into one.
// Same metric names; labels partly disjoint (per-session label) and
// partly overlapping (shared plane label) — the shapes per-session
// registries have when session::run_fleet merges them into its rollup.
TEST(ObsRegistryTest, MergeRollupDisjointLabelSets) {
  obs::Registry fleet, s0, s1;
  s0.counter("session_slots_total", {{"session", "0"}}).inc(100);
  s1.counter("session_slots_total", {{"session", "1"}}).inc(200);
  fleet.merge_from(s0);
  fleet.merge_from(s1);

  // Disjoint label sets stay separate series under the same name.
  const auto counters = fleet.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(fleet.counter("session_slots_total", {{"session", "0"}}).value(),
            100u);
  EXPECT_EQ(fleet.counter("session_slots_total", {{"session", "1"}}).value(),
            200u);
}

TEST(ObsRegistryTest, MergeRollupOverlappingLabelSets) {
  obs::Registry fleet, s0, s1;
  // The same (name, labels) series in both sessions must accumulate...
  s0.counter("realignments_total", {{"plane", "session"}}).inc(3);
  s1.counter("realignments_total", {{"plane", "session"}}).inc(5);
  // ...while a label set only one session emits rides along untouched.
  s1.counter("realignments_total", {{"plane", "eval"}}).inc(7);
  fleet.merge_from(s0);
  fleet.merge_from(s1);

  EXPECT_EQ(fleet.counter("realignments_total", {{"plane", "session"}}).value(),
            8u);
  EXPECT_EQ(fleet.counter("realignments_total", {{"plane", "eval"}}).value(),
            7u);
  ASSERT_EQ(fleet.counters().size(), 2u);
}

TEST(ObsRegistryTest, MergeRollupHistogramsSumBucketsAndMergeExtrema) {
  const obs::HistogramSpec spec = obs::HistogramSpec::linear(0.0, 1.0, 4);
  obs::Registry fleet, s0, s1;
  obs::Histogram& h0 = s0.histogram("latency_us", spec, {{"op", "realign"}});
  obs::Histogram& h1 = s1.histogram("latency_us", spec, {{"op", "realign"}});
  h0.record(0.5);
  h0.record(1.5);
  h1.record(1.5);
  h1.record(3.5);
  fleet.merge_from(s0);
  fleet.merge_from(s1);

  obs::Histogram& merged =
      fleet.histogram("latency_us", spec, {{"op", "realign"}});
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.5);
  EXPECT_DOUBLE_EQ(merged.max(), 3.5);
  EXPECT_EQ(merged.bucket(0), 1u);  // [0,1): the 0.5
  EXPECT_EQ(merged.bucket(1), 2u);  // [1,2): both 1.5s
  EXPECT_EQ(merged.bucket(3), 1u);  // [3,4): the 3.5
}

// Merging is per-(name, labels), so a rollup is order-independent for
// counters/histograms — merge s1 before s0 and every value is the same.
TEST(ObsRegistryTest, MergeRollupIsOrderIndependent) {
  const obs::HistogramSpec spec = obs::HistogramSpec::linear(0.0, 1.0, 4);
  obs::Registry ab, ba, s0, s1;
  s0.counter("n", {{"session", "0"}}).inc(2);
  s0.counter("shared").inc(10);
  s0.histogram("h", spec).record(0.5);
  s1.counter("n", {{"session", "1"}}).inc(4);
  s1.counter("shared").inc(20);
  s1.histogram("h", spec).record(2.5);
  ab.merge_from(s0);
  ab.merge_from(s1);
  ba.merge_from(s1);
  ba.merge_from(s0);

  EXPECT_EQ(obs::to_jsonl(ab), obs::to_jsonl(ba));
  EXPECT_EQ(ab.counter("shared").value(), 30u);
}

TEST(ObsRegistryTest, RecordThreadPoolSnapshotsStats) {
  util::ThreadPool pool(2);
  pool.run_chunked(100, [](std::size_t, std::size_t, std::size_t) {});
  obs::Registry registry;
  obs::record_thread_pool(registry, pool);
  EXPECT_GE(registry.counter("pool_jobs_total").value(), 1u);
  EXPECT_DOUBLE_EQ(registry.gauge("pool_threads").value(), 2.0);
}

// ---- Exporters ----

obs::Registry& fill_sample(obs::Registry& registry) {
  registry.counter("requests_total", {{"plane", "eval"}}).inc(7);
  registry.counter("requests_total", {{"plane", "session"}}).inc(9);
  registry.counter("drops_total").inc(0);
  registry.gauge("threads").set(8.0);
  obs::Histogram& h = registry.histogram(
      "latency_us", obs::HistogramSpec::log_scale(1.0, 1e3, 5),
      {{"op", "realign\"n\\"}});  // labels with escapable characters
  h.record(0.5);
  h.record(12.0);
  h.record(5e6);  // overflow
  registry.histogram("empty_us", obs::HistogramSpec::linear(0.0, 1.0, 2));
  return registry;
}

TEST(ObsExportTest, PrometheusRoundTripIsByteStable) {
  obs::Registry registry;
  const std::string text = obs::to_prometheus(fill_sample(registry));
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("latency_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  // One # TYPE header per family even with several label sets.
  std::size_t type_headers = 0, pos = 0;
  while ((pos = text.find("# TYPE requests_total", pos)) != std::string::npos) {
    ++type_headers;
    ++pos;
  }
  EXPECT_EQ(type_headers, 1u);

  obs::Registry imported;
  ASSERT_TRUE(obs::from_prometheus(text, imported));
  // Everything the format can carry survives: re-export is byte-identical.
  EXPECT_EQ(obs::to_prometheus(imported), text);
}

TEST(ObsExportTest, JsonlRoundTripIsByteStable) {
  obs::Registry registry;
  const std::string text = obs::to_jsonl(fill_sample(registry));
  obs::Registry imported;
  ASSERT_TRUE(obs::from_jsonl(text, imported));
  EXPECT_EQ(obs::to_jsonl(imported), text);
  // JSONL keeps the exact extrema (Prometheus cannot).
  const obs::Histogram& h = imported.histogram(
      "latency_us", obs::HistogramSpec::log_scale(1.0, 1e3, 5),
      {{"op", "realign\"n\\"}});
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5e6);
}

TEST(ObsExportTest, ParsersFailClosedOnGarbage) {
  obs::Registry registry;
  EXPECT_FALSE(obs::from_prometheus("not a metric line\n", registry));
  EXPECT_FALSE(obs::from_prometheus("unknown_kind_metric 3\n", registry));
  EXPECT_FALSE(obs::from_jsonl("{\"kind\":\"widget\",\"name\":\"x\"}\n",
                               registry));
  EXPECT_FALSE(obs::from_jsonl("truncated\n", registry));
  EXPECT_TRUE(obs::from_jsonl("", registry));  // empty input is fine
}

// ---- Determinism + transparency on the §5.4 evaluator ----

motion::Trace drifting_trace(double mps) {
  motion::Trace trace;
  for (int i = 0; i <= 200; ++i) {
    const double t_s = i * 0.01;
    trace.samples.push_back(
        {static_cast<util::SimTimeUs>(t_s * 1e6),
         geom::Pose{geom::Mat3::identity(), {mps * t_s, 0.0, 0.0}}});
  }
  return trace;
}

TEST(ObsDeterminismTest, EvalMetricsBitIdenticalAcrossThreadCounts) {
  std::vector<motion::Trace> traces;
  for (int i = 0; i < 9; ++i) traces.push_back(drifting_trace(0.04 * i));
  const link::SlotEvalConfig config;

  obs::Registry baseline;
  link::evaluate_dataset(traces, config, util::ThreadPool::serial(),
                         &baseline);
  const std::string expected = obs::to_jsonl(baseline);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(baseline.counter("eval_traces_total").value(), 0u);
    EXPECT_GT(baseline.counter("eval_bisect_iters_total").value(), 0u);
  } else {
    // OFF builds null the registry before the hot loop: nothing recorded,
    // and the byte-equality below degenerates to empty == empty.
    EXPECT_TRUE(baseline.empty());
  }

  for (std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    obs::Registry registry;
    link::evaluate_dataset(traces, config, pool, &registry);
    // Byte-equal JSONL covers every counter, bucket, and extremum.
    EXPECT_EQ(obs::to_jsonl(registry), expected) << threads << " threads";
  }
}

TEST(ObsDeterminismTest, InstrumentationDoesNotChangeSimOutput) {
  std::vector<motion::Trace> traces;
  for (int i = 0; i < 5; ++i) traces.push_back(drifting_trace(0.05 * i));
  const link::SlotEvalConfig config;

  const link::DatasetEvalResult plain =
      link::evaluate_dataset(traces, config, util::ThreadPool::serial());
  obs::Registry registry;
  const link::DatasetEvalResult observed = link::evaluate_dataset(
      traces, config, util::ThreadPool::serial(), &registry);

  EXPECT_EQ(observed.per_trace_off_fraction, plain.per_trace_off_fraction);
  EXPECT_EQ(observed.pooled.total_slots, plain.pooled.total_slots);
  EXPECT_EQ(observed.pooled.off_slots, plain.pooled.off_slots);
  EXPECT_EQ(observed.pooled.off_per_dirty_frame,
            plain.pooled.off_per_dirty_frame);
  EXPECT_EQ(observed.events, plain.events);
}

}  // namespace
}  // namespace cyclops
