// runtime::Context: ownership, default-context equivalence with the old
// globals, keyed RNG purity, and metric routing — every plane records
// into the context's registry, never the process-wide one.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/gprime.hpp"
#include "event/scheduler.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "opt/levmar.hpp"
#include "runtime/context.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

TEST(ContextTest, DefaultCtxBorrowsProcessGlobals) {
  runtime::Context& ctx = runtime::Context::default_ctx();
  EXPECT_EQ(&ctx.pool(), &util::ThreadPool::global());
  EXPECT_EQ(&ctx.registry(), &obs::Registry::global());
  EXPECT_FALSE(ctx.owns_pool());
  EXPECT_FALSE(ctx.owns_registry());
  EXPECT_EQ(ctx.seed(), runtime::Context::kDefaultSeed);
  // One shared instance.
  EXPECT_EQ(&ctx, &runtime::Context::default_ctx());
}

TEST(ContextTest, IsolatedContextsShareNothing) {
  runtime::Context a = runtime::Context::isolated();
  runtime::Context b = runtime::Context::isolated();
  EXPECT_TRUE(a.owns_pool());
  EXPECT_TRUE(a.owns_registry());
  EXPECT_NE(&a.pool(), &b.pool());
  EXPECT_NE(&a.registry(), &b.registry());
  EXPECT_NE(&a.clock(), &b.clock());
  EXPECT_NE(&a.pool(), &util::ThreadPool::global());
  EXPECT_NE(&a.registry(), &obs::Registry::global());
  // Default isolated pool is inline (safe under a parallel session fan-out).
  EXPECT_EQ(a.pool().thread_count(), 1u);
}

TEST(ContextTest, IsolatedOptionsControlSeedAndThreads) {
  runtime::Context::Options opts;
  opts.seed = 7;
  opts.threads = 3;
  runtime::Context ctx = runtime::Context::isolated(opts);
  EXPECT_EQ(ctx.seed(), 7u);
  EXPECT_EQ(ctx.pool().thread_count(), 3u);
}

TEST(ContextTest, MoveKeepsHandedOutReferencesValid) {
  runtime::Context a = runtime::Context::isolated();
  obs::Registry* registry = &a.registry();
  util::SimClock* clock = &a.clock();
  runtime::Context b = std::move(a);
  EXPECT_EQ(&b.registry(), registry);
  EXPECT_EQ(&b.clock(), clock);
}

TEST(ContextTest, KeyedRngIsPureAndKeySeparated) {
  runtime::Context ctx = runtime::Context::isolated();
  util::Rng r1 = ctx.rng(4);
  util::Rng r2 = ctx.rng(4);  // same key, later call -> same stream
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
  util::Rng other = ctx.rng(5);
  EXPECT_NE(ctx.rng(4).next_u64(), other.next_u64());
  // Same key, different base seed -> different stream.
  runtime::Context::Options opts;
  opts.seed = runtime::Context::kDefaultSeed + 1;
  runtime::Context reseeded = runtime::Context::isolated(opts);
  EXPECT_NE(ctx.rng(4).next_u64(), reseeded.rng(4).next_u64());
}

TEST(ContextTest, ClockIsPerContextAndResettable) {
  runtime::Context ctx = runtime::Context::isolated();
  EXPECT_EQ(ctx.clock().now(), 0);
  ctx.clock().advance(250);
  EXPECT_EQ(ctx.clock().now(), 250);
  ctx.clock().reset();
  EXPECT_EQ(ctx.clock().now(), 0);
}

TEST(ContextTest, SchedulerRidesContextClock) {
  runtime::Context ctx = runtime::Context::isolated();
  event::Scheduler sched(&ctx.clock());
  struct Sink final : event::Process {
    util::SimTimeUs seen = -1;
    void handle(event::Scheduler&, const event::Event& ev) override {
      seen = ev.time;
    }
    const char* name() const noexcept override { return "sink"; }
  } sink;
  event::Event ev;
  ev.time = 777;
  ev.target = sched.add_process(&sink);
  sched.schedule(ev);
  sched.run();
  EXPECT_EQ(sink.seen, 777);
  // The scheduler advanced the *context* clock in place.
  EXPECT_EQ(ctx.clock().now(), 777);
}

// ---- metric routing: planes record into ctx.registry(), not the global ----

void quadratic_residual(std::span<const double> p, std::vector<double>& out) {
  out.assign(1, p[0] - 3.0);
}

TEST(ContextTest, LevMarRecordsIntoContextRegistryOnly) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "OBS=OFF build";
  const std::uint64_t global_before =
      obs::Registry::global().counter("lm_solves_total").value();

  runtime::Context ctx = runtime::Context::isolated();
  const opt::LevMarResult result = opt::levenberg_marquardt(
      quadratic_residual, {0.0}, opt::LevMarOptions{}, ctx);
  EXPECT_TRUE(result.converged);

  EXPECT_EQ(ctx.registry().counter("lm_solves_total").value(), 1u);
  EXPECT_EQ(obs::Registry::global().counter("lm_solves_total").value(),
            global_before);
}

TEST(ContextTest, GPrimeSolverHoistsHandlesFromContextRegistry) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "OBS=OFF build";
  runtime::Context ctx = runtime::Context::isolated();
  const core::GPrimeSolver solver(core::GPrimeOptions{}, ctx);
  // Handle hoisting at construction creates the series in ctx's registry.
  EXPECT_EQ(ctx.registry().counter("gprime_solves_total").value(), 0u);
  EXPECT_FALSE(ctx.registry().empty());
}

TEST(ContextTest, EvaluateDatasetOnContextPoolMatchesSerial) {
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig config;
  config.duration_s = 4.0;
  util::Rng rng(77);
  const std::vector<motion::Trace> traces =
      motion::generate_dataset(base, 8, config, rng, util::ThreadPool::serial());
  const link::SlotEvalConfig eval_config;

  runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  const link::DatasetEvalResult via_ctx = link::evaluate_dataset(
      traces, eval_config, ctx.pool(), &ctx.registry());

  obs::Registry registry;
  const link::DatasetEvalResult explicit_args = link::evaluate_dataset(
      traces, eval_config, util::ThreadPool::serial(), &registry);

  EXPECT_EQ(via_ctx.pooled.total_slots, explicit_args.pooled.total_slots);
  EXPECT_EQ(via_ctx.pooled.off_slots, explicit_args.pooled.off_slots);
  EXPECT_EQ(via_ctx.events, explicit_args.events);
  EXPECT_EQ(via_ctx.per_trace_off_fraction,
            explicit_args.per_trace_off_fraction);
  // Byte-identical metric exports, context pool vs serial.
  EXPECT_EQ(obs::to_jsonl(ctx.registry()), obs::to_jsonl(registry));
}

}  // namespace
}  // namespace cyclops
