// Tests for the telemetry subsystem (src/obs): metric primitives and
// merge semantics, histogram bucket math, registry label handling, the
// Prometheus/JSONL exporters (golden text), sharded-registry
// determinism across thread counts on the §5.4 evaluator and its pinned
// metric values, instrumentation transparency (sim outputs unchanged
// with/without a registry), and the thread-pool snapshot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
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
  EXPECT_DOUBLE_EQ(h.approx_sum(), 0.0);  // empty -> 0

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
}

TEST(ObsHistogramTest, RecordNTimesEqualsNRecords) {
  const obs::HistogramSpec spec = obs::HistogramSpec::log_scale(1.0, 1e4, 5);
  obs::Histogram batched(spec), single(spec);
  const std::pair<double, std::uint64_t> tallies[] = {
      {2.0, 453}, {0.25, 3}, {1e9, 0}, {1e5, 2}, {4.0, 50}, {0.01, 0}};
  for (const auto& [v, n] : tallies) {
    batched.record(v, n);
    for (std::uint64_t i = 0; i < n; ++i) single.record(v);
  }
  EXPECT_EQ(batched.count(), single.count());
  for (std::size_t i = 0; i < spec.bounds.size() + 1; ++i) {
    EXPECT_EQ(batched.bucket(i), single.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(batched.min(), single.min());
  EXPECT_EQ(batched.max(), single.max());
  EXPECT_EQ(batched.min(), 0.25);  // n == 0 moves no extremum
  EXPECT_EQ(batched.max(), 1e5);
  EXPECT_EQ(batched.approx_sum(), single.approx_sum());
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

// The exporters' exact output for fill_sample: any change to either
// format fails here.
TEST(ObsExportTest, PrometheusRoundTripIsByteStable) {
  obs::Registry registry;
  // One # TYPE header per family even with several label sets, `le` last
  // on bucket lines, escaped label values, and `_sum` from the bucket
  // edges (overflow clamped to the last finite edge); the format has no
  // slot for min/max.
  const std::string expected = R"txt(# TYPE drops_total counter
drops_total 0
# TYPE requests_total counter
requests_total{plane="eval"} 7
requests_total{plane="session"} 9
# TYPE threads gauge
threads 8
# TYPE empty_us histogram
empty_us_bucket{le="1"} 0
empty_us_bucket{le="2"} 0
empty_us_bucket{le="+Inf"} 0
empty_us_sum 0
empty_us_count 0
# TYPE latency_us histogram
latency_us_bucket{op="realign\"n\\",le="1"} 1
latency_us_bucket{op="realign\"n\\",le="1.5848931924611136"} 1
latency_us_bucket{op="realign\"n\\",le="2.5118864315095801"} 1
latency_us_bucket{op="realign\"n\\",le="3.9810717055349722"} 1
latency_us_bucket{op="realign\"n\\",le="6.3095734448019334"} 1
latency_us_bucket{op="realign\"n\\",le="10"} 1
latency_us_bucket{op="realign\"n\\",le="15.848931924611133"} 2
latency_us_bucket{op="realign\"n\\",le="25.118864315095795"} 2
latency_us_bucket{op="realign\"n\\",le="39.810717055349734"} 2
latency_us_bucket{op="realign\"n\\",le="63.095734448019329"} 2
latency_us_bucket{op="realign\"n\\",le="100"} 2
latency_us_bucket{op="realign\"n\\",le="158.48931924611142"} 2
latency_us_bucket{op="realign\"n\\",le="251.18864315095797"} 2
latency_us_bucket{op="realign\"n\\",le="398.10717055349733"} 2
latency_us_bucket{op="realign\"n\\",le="630.957344480193"} 2
latency_us_bucket{op="realign\"n\\",le="1000"} 2
latency_us_bucket{op="realign\"n\\",le="+Inf"} 3
latency_us_sum{op="realign\"n\\"} 1016.8489319246112
latency_us_count{op="realign\"n\\"} 3
)txt";
  EXPECT_EQ(obs::to_prometheus(fill_sample(registry)), expected);
}

TEST(ObsExportTest, JsonlRoundTripIsByteStable) {
  obs::Registry registry;
  // JSONL keeps bounds, every bucket and the exact extrema (min 0.5,
  // max 5e6); an empty histogram omits min/max (no JSON literal for inf).
  const std::string expected = R"txt({"kind":"counter","name":"drops_total","labels":{},"value":0}
{"kind":"counter","name":"requests_total","labels":{"plane":"eval"},"value":7}
{"kind":"counter","name":"requests_total","labels":{"plane":"session"},"value":9}
{"kind":"gauge","name":"threads","labels":{},"value":8}
{"kind":"histogram","name":"empty_us","labels":{},"bounds":[1,2],"buckets":[0,0,0],"count":0}
{"kind":"histogram","name":"latency_us","labels":{"op":"realign\"n\\"},"bounds":[1,1.5848931924611136,2.5118864315095801,3.9810717055349722,6.3095734448019334,10,15.848931924611133,25.118864315095795,39.810717055349734,63.095734448019329,100,158.48931924611142,251.18864315095797,398.10717055349733,630.957344480193,1000],"buckets":[1,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,1],"count":3,"min":0.5,"max":5000000}
)txt";
  EXPECT_EQ(obs::to_jsonl(fill_sample(registry)), expected);
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
  EXPECT_GT(baseline.counter("eval_traces_total").value(), 0u);
  EXPECT_GT(baseline.counter("eval_bisect_iters_total").value(), 0u);

  for (std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    obs::Registry registry;
    link::evaluate_dataset(traces, config, pool, &registry);
    // Byte-equal JSONL covers every counter, bucket, and extremum.
    EXPECT_EQ(obs::to_jsonl(registry), expected) << threads << " threads";
  }
}

// Angular drift about the vertical axis, 10 ms reports, fixed position.
motion::Trace rotating_trace(double rad_per_s) {
  motion::Trace trace;
  for (int i = 0; i <= 50; ++i) {
    const double t_s = i * 0.01;
    trace.samples.push_back(
        {static_cast<util::SimTimeUs>(t_s * 1e6),
         geom::Pose{geom::Mat3::rotation({0.0, 0.0, 1.0}, rad_per_s * t_s),
                    {0.0, 0.8, 1.2}}});
  }
  return trace;
}

// Irregular report times at 0.14 m/s: a duplicate timestamp (zero gap, no
// slots), a step back in time (skipped), a 15 ms gap with off slots on
// both sides of the carry boundary, and a sub-slot 0.5 ms gap.
motion::Trace irregular_trace() {
  motion::Trace trace;
  for (const double t_ms : {0.0, 10.0, 10.0, 20.0, 15.0, 30.0, 30.5}) {
    trace.samples.push_back(
        {static_cast<util::SimTimeUs>(t_ms * 1e3),
         geom::Pose{geom::Mat3::identity(), {0.14e-3 * t_ms, 0.0, 0.0}}});
  }
  return trace;
}

// The eval metrics' values, not only their determinism: the exact JSONL
// pins every value, so a per-trace tally flushed twice or dropped fails
// here, and each counter is reconciled against the simulation output it
// counts.
TEST(ObsDeterminismTest, EvalMetricValuesArePinnedAndReconcile) {
  const std::vector<motion::Trace> traces = {
      drifting_trace(0.05),  // fully connected
      drifting_trace(0.14),  // off only inside the 2-slot carry region
      drifting_trace(0.25),  // off inside the carry region and after it
      rotating_trace(0.8),   // angular drift, off in both regions
      irregular_trace()};
  const link::SlotEvalConfig config;
  const std::string expected = R"txt({"kind":"counter","name":"eval_bisect_iters_total","labels":{},"value":2765}
{"kind":"counter","name":"eval_events_dispatched_total","labels":{},"value":24}
{"kind":"counter","name":"eval_intervals_total","labels":{},"value":656}
{"kind":"counter","name":"eval_off_runs_total","labels":{},"value":704}
{"kind":"counter","name":"eval_off_slots_total","labels":{},"value":2061}
{"kind":"counter","name":"eval_on_runs_total","labels":{},"value":654}
{"kind":"counter","name":"eval_slots_total","labels":{},"value":6536}
{"kind":"counter","name":"eval_traces_total","labels":{},"value":5}
{"kind":"histogram","name":"eval_link_off_run_ms","labels":{},"bounds":[1,1.5848931924611136,2.5118864315095801,3.9810717055349722,6.3095734448019334,10,15.848931924611133,25.118864315095795,39.810717055349734,63.095734448019329,100,158.48931924611142,251.18864315095797,398.10717055349733,630.957344480193,1000,1584.893192461114,2511.8864315095798,3981.0717055349733,6309.5734448019302,10000],"buckets":[0,0,453,50,201,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":704,"min":2,"max":5}
)txt";
  std::uint64_t intervals = 0;
  for (const motion::Trace& trace : traces) {
    intervals += trace.samples.size() - 1;
  }

  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {&util::ThreadPool::serial(), &pool}) {
    obs::Registry registry;
    const link::DatasetEvalResult result =
        link::evaluate_dataset(traces, config, *p, &registry);
    EXPECT_EQ(result.per_trace_off_fraction[0], 0.0);
    for (std::size_t i = 1; i < traces.size(); ++i) {
      EXPECT_GT(result.per_trace_off_fraction[i], 0.0) << "trace " << i;
    }
    EXPECT_EQ(obs::to_jsonl(registry), expected) << p->thread_count();
    const auto count = [&registry](const char* name) {
      return registry.counter(name).value();
    };
    EXPECT_EQ(count("eval_traces_total"), traces.size());
    EXPECT_EQ(count("eval_intervals_total"), intervals);
    EXPECT_EQ(count("eval_slots_total"),
              static_cast<std::uint64_t>(result.pooled.total_slots));
    EXPECT_EQ(count("eval_off_slots_total"),
              static_cast<std::uint64_t>(result.pooled.off_slots));
    EXPECT_EQ(count("eval_events_dispatched_total"), result.events);
    EXPECT_EQ(registry
                  .histogram("eval_link_off_run_ms",
                             obs::HistogramSpec::log_scale(1.0, 1e4, 5))
                  .count(),
              count("eval_off_runs_total"));
  }
}

// Metrics are created by the first trace with an interval, never by a
// chunk whose traces are all empty or one-sample (evaluate_dataset keeps
// one set of handles per chunk shard and resolves it on first use).
TEST(ObsDeterminismTest, EvalMetricsAppearOnlyWithAnInterval) {
  motion::Trace one;
  one.samples.push_back({});
  const std::vector<motion::Trace> tiny = {motion::Trace{}, one, one};
  const link::SlotEvalConfig config;
  util::ThreadPool pool(3);
  obs::Registry registry;
  link::evaluate_dataset(tiny, config, pool, &registry);
  EXPECT_TRUE(registry.empty());

  std::vector<motion::Trace> mixed = tiny;
  mixed.push_back(drifting_trace(0.25));
  link::evaluate_dataset(mixed, config, pool, &registry);
  EXPECT_EQ(registry.counter("eval_traces_total").value(), 1u);
}

// Off runs of 64 slots or more (report gaps that long) skip the per-length
// table and record at once; both kinds land in one histogram.
TEST(ObsDeterminismTest, LongAndShortOffRunsShareTheHistogram) {
  motion::Trace trace;
  for (const double t_ms : {0.0, 200.0, 210.0}) {
    trace.samples.push_back(
        {static_cast<util::SimTimeUs>(t_ms * 1e3),
         geom::Pose{geom::Mat3::identity(), {0.5e-3 * t_ms, 0.0, 0.0}}});
  }
  obs::Registry registry;
  const link::DatasetEvalResult result = link::evaluate_dataset(
      {trace}, link::SlotEvalConfig{}, util::ThreadPool::serial(), &registry);
  EXPECT_EQ(result.pooled.off_slots, 210);  // 0.5 m/s is off in every slot
  const obs::Histogram& off_run_ms = registry.histogram(
      "eval_link_off_run_ms", obs::HistogramSpec::log_scale(1.0, 1e4, 5));
  EXPECT_EQ(off_run_ms.count(), 2u);
  EXPECT_EQ(off_run_ms.count(),
            registry.counter("eval_off_runs_total").value());
  EXPECT_EQ(off_run_ms.min(), 10.0);
  EXPECT_EQ(off_run_ms.max(), 200.0);
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
