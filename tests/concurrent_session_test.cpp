// The Context refactor's isolation guarantee, end to end: N sessions run
// through session::run_fleet — each on its own isolated context — produce
// SessionLogs and metric exports byte-identical to the same session run
// alone, at every driver thread count (DESIGN.md §11, §16).
//
// The session body is a real closed-loop link session (truth-calibrated
// pointing solver, synthetic head trace from the context RNG), so every
// plane the refactor touched is on the path: scheduler on the context
// clock, solver metrics into the context registry, alignment polish on
// the context pool.  A test-local SessionRunner hands the body's
// RunResult and SessionLog back through a per-session output slot.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/pointing.hpp"
#include "core/tp_controller.hpp"
#include "link/fso_link.hpp"
#include "link/session_log.hpp"
#include "motion/trace_generator.hpp"
#include "obs/obs.hpp"
#include "runtime/context.hpp"
#include "session/fleet.hpp"
#include "session/runner.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

constexpr std::size_t kSessions = 4;
constexpr std::uint64_t kFirstSeed = 1000;

/// Ground-truth pointing solver: keeps sessions cheap (no calibration)
/// and free of wall-clock metrics (LM records lm_solve_wall_us, which is
/// not deterministic; G'/session metrics are pure sim-time quantities).
core::PointingSolver truth_solver(const sim::Prototype& proto,
                                  const runtime::Context& ctx) {
  return core::truth_calibration(proto).make_pointing_solver({}, ctx);
}

link::RunResult session_body(std::size_t i, runtime::Context& ctx,
                             link::SessionLog& log,
                             link::EventSessionStats& stats) {
  sim::Prototype proto =
      sim::make_prototype(100 + i, sim::prototype_25g_config());
  core::TpController controller(truth_solver(proto, ctx), core::TpConfig{});

  motion::TraceGeneratorConfig trace_config;
  trace_config.duration_s = 2.0;
  util::Rng trace_rng = ctx.rng(/*key=*/1);
  const motion::Trace trace = motion::generate_viewing_trace(
      proto.nominal_rig_pose, trace_config, trace_rng);
  const motion::TraceMotion profile(trace);

  link::SimOptions options;
  options.step = 1000;
  return link::run_link_simulation(proto, controller, profile, ctx, options,
                                   &log, &stats);
}

/// Everything one session leaves behind: its run result, its session log,
/// and its context's full metrics export (obs::to_jsonl).
struct SessionOutput {
  link::RunResult run;
  link::SessionLog log;
  std::string metrics_jsonl;
};

/// Runs session_body on run_session's isolated context (seeded from the
/// spec) and writes the RunResult and SessionLog into this session's
/// output slot — each session owns one slot, so parallel drivers never
/// share a write.
class BodyRunner final : public session::SessionRunner {
 public:
  BodyRunner(std::size_t index, SessionOutput& out)
      : index_(index), out_(out) {}

  const char* name() const noexcept override { return "session_body"; }
  void prepare(runtime::Context&) override {}

  session::Report run(runtime::Context& ctx) override {
    link::EventSessionStats stats;
    out_.run = session_body(index_, ctx, out_.log, stats);
    session::Report report;
    report.events = stats.events;
    report.served_fraction = out_.run.total_up_fraction;
    report.switches = static_cast<std::uint64_t>(out_.run.realignments);
    return report;
  }

 private:
  std::size_t index_;
  SessionOutput& out_;
};

std::vector<session::SessionSpec> make_specs(std::size_t n) {
  std::vector<session::SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].variant = session::Variant::kLink;
    specs[i].seed = kFirstSeed + i;  // per-session stream; inline pool
  }
  return specs;
}

session::RunnerFactory body_factory(std::vector<SessionOutput>& outputs) {
  return [&outputs](const session::SessionSpec& spec)
             -> std::unique_ptr<session::SessionRunner> {
    const std::size_t i = spec.seed - kFirstSeed;
    return std::make_unique<BodyRunner>(i, outputs[i]);
  };
}

/// Each session truly alone: run_session serially, nothing else in
/// flight.
std::vector<SessionOutput> run_alone(std::size_t n) {
  std::vector<SessionOutput> outputs(n);
  const session::RunnerFactory factory = body_factory(outputs);
  session::SessionExecution exec;
  exec.capture_metrics = true;
  for (const session::SessionSpec& spec : make_specs(n)) {
    const session::Report report = session::run_session(spec, factory, exec);
    outputs[spec.seed - kFirstSeed].metrics_jsonl = report.metrics_jsonl;
  }
  return outputs;
}

/// The same sessions through the fleet driver on `pool`.
std::vector<SessionOutput> run_through_fleet(std::size_t n,
                                             util::ThreadPool& pool) {
  std::vector<SessionOutput> outputs(n);
  session::FleetConfig config;
  config.capture_metrics = true;
  const session::FleetResult fleet =
      session::run_fleet(make_specs(n), body_factory(outputs), config, &pool);
  EXPECT_TRUE(fleet.reconciled);
  for (std::size_t i = 0; i < n; ++i) {
    outputs[i].metrics_jsonl = fleet.reports[i].metrics_jsonl;
  }
  return outputs;
}

void expect_logs_identical(const link::SessionLog& a,
                           const link::SessionLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].power_dbm, b.events()[i].power_dbm);  // exact
  }
}

void expect_outputs_identical(const SessionOutput& a, const SessionOutput& b) {
  EXPECT_EQ(a.run.total_up_fraction, b.run.total_up_fraction);  // exact
  EXPECT_EQ(a.run.realignments, b.run.realignments);
  EXPECT_EQ(a.run.tp_failures, b.run.tp_failures);
  EXPECT_EQ(a.run.avg_pointing_iterations, b.run.avg_pointing_iterations);
  expect_logs_identical(a.log, b.log);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);  // byte-identical export
}

TEST(ConcurrentSessionTest, ParallelSessionsMatchAloneRunsByteForByte) {
  const std::vector<SessionOutput> alone = run_alone(kSessions);
  ASSERT_GE(alone[0].log.events().size(), 1u);
  ASSERT_FALSE(alone[0].metrics_jsonl.empty());

  // The driver at 1, 2, and 8 threads must reproduce the alone runs
  // byte for byte — the sessions share nothing, so interleaving them
  // arbitrarily cannot change any output.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("driver threads = " + std::to_string(threads));
    util::ThreadPool pool(threads);
    const std::vector<SessionOutput> outputs =
        run_through_fleet(kSessions, pool);
    ASSERT_EQ(outputs.size(), kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      expect_outputs_identical(outputs[i], alone[i]);
    }
  }
}

TEST(ConcurrentSessionTest, SessionsDifferFromEachOther) {
  // Sanity: the byte-equality above is not vacuous — distinct seeds give
  // distinct traces, so sessions are genuinely different computations.
  const std::vector<SessionOutput> outputs =
      run_through_fleet(2, util::ThreadPool::serial());
  const bool all_equal =
      outputs[0].run.avg_pointing_iterations ==
          outputs[1].run.avg_pointing_iterations &&
      outputs[0].log.events().size() == outputs[1].log.events().size() &&
      outputs[0].metrics_jsonl == outputs[1].metrics_jsonl;
  EXPECT_FALSE(all_equal);
}

}  // namespace
}  // namespace cyclops
