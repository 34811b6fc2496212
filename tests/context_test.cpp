// runtime::Context: ownership, keyed RNG purity, metric routing — every
// plane records into the context's registry — and the one-door property:
// the solver and link planes fan out only on the pool their caller hands
// them, never on the process-wide one.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/exhaustive_aligner.hpp"
#include "core/gprime.hpp"
#include "core/tp_controller.hpp"
#include "event/scheduler.hpp"
#include "link/event_session.hpp"
#include "link/fso_link.hpp"
#include "link/slot_eval.hpp"
#include "motion/profile.hpp"
#include "motion/trace_generator.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "opt/levmar.hpp"
#include "runtime/context.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

TEST(ContextTest, BorrowingContextWiresTheCallersResources) {
  util::ThreadPool pool(2);
  obs::Registry registry;
  const runtime::Context ctx(pool, registry);
  EXPECT_EQ(&ctx.pool(), &pool);
  EXPECT_EQ(&ctx.registry(), &registry);
  EXPECT_EQ(ctx.seed(), runtime::Context::kDefaultSeed);
}

TEST(ContextTest, IsolatedContextsShareNothing) {
  runtime::Context a = runtime::Context::isolated();
  runtime::Context b = runtime::Context::isolated();
  EXPECT_NE(&a.pool(), &b.pool());
  EXPECT_NE(&a.registry(), &b.registry());
  EXPECT_NE(&a.clock(), &b.clock());
  EXPECT_NE(&a.pool(), &util::ThreadPool::global());
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

// ---- metric routing: planes record into ctx.registry(), no other ----

void quadratic_residual(std::span<const double> p, std::vector<double>& out) {
  out.assign(1, p[0] - 3.0);
}

TEST(ContextTest, LevMarRecordsIntoContextRegistryOnly) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "OBS=OFF build";
  runtime::Context ctx = runtime::Context::isolated();
  runtime::Context bystander = runtime::Context::isolated();
  const opt::LevMarResult result = opt::levenberg_marquardt(
      quadratic_residual, {0.0}, opt::LevMarOptions{}, ctx);
  EXPECT_TRUE(result.converged);

  EXPECT_EQ(ctx.registry().counter("lm_solves_total").value(), 1u);
  EXPECT_EQ(ctx.registry().counter("lm_converged_total").value(), 1u);
  EXPECT_TRUE(bystander.registry().empty());
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

// ---- one door: the caller is the only source of pools ----

TEST(ContextTest, SolverAndLinkPlanesFanOutOnlyOnTheCallersPool) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 2});
  util::ThreadPool& global = util::ThreadPool::global();
  const std::uint64_t global_jobs = global.stats().jobs;

  // A small calibration: reduced board, a few Stage-2 samples.
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  core::CalibrationConfig config;
  config.board.cells_x = 8;
  config.board.cells_y = 6;
  config.stage2_samples = 4;
  config.stage1_options.max_iterations = 20;
  util::Rng rng(7);
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, config, rng, ctx);
  const std::uint64_t calibration_jobs = ctx.pool().stats().jobs;
  EXPECT_GT(calibration_jobs, 0u);

  // Both closed loops, each with its §5.3 start-up polish.
  const motion::LinearStrokeMotion profile(
      proto.nominal_rig_pose, geom::Vec3{1, 0, 0}, 0.02,
      std::vector<double>{0.1});
  core::TpController slot_loop(calib.make_pointing_solver({}, ctx),
                               core::TpConfig{});
  link::run_link_simulation(proto, slot_loop, profile, ctx);
  const std::uint64_t slot_loop_jobs = ctx.pool().stats().jobs;
  EXPECT_GT(slot_loop_jobs, calibration_jobs);
  core::TpController event_loop(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  link::run_link_session_events(proto, event_loop, profile, ctx);
  const std::uint64_t event_loop_jobs = ctx.pool().stats().jobs;
  EXPECT_GT(event_loop_jobs, slot_loop_jobs);

  const core::ExhaustiveAligner aligner({}, ctx.pool());
  aligner.align(proto.scene, {});
  EXPECT_GT(ctx.pool().stats().jobs, event_loop_jobs);

  EXPECT_EQ(global.stats().jobs, global_jobs);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(ctx.registry().counter("lm_solves_total").value(), 0u);
    EXPECT_GT(ctx.registry().counter("gprime_solves_total").value(), 0u);
  }
}

}  // namespace
}  // namespace cyclops
