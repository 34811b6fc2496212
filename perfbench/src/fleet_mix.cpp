// fleet_mix: one op is one session of fleet_sim's 7-variant catalog
// cycle, run through session::run_fleet on the global driver pool.  A
// wrapping RunnerFactory times each session (factory call to runner
// destruction) and, when tracing, its prepare and run calls.
#include <cmath>
#include <memory>
#include <string>

#include "common.hpp"
#include "session/catalog.hpp"
#include "session/fleet.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace cyclops;

constexpr std::size_t kBatch = 3500;
constexpr std::size_t kTinyBatch = 70;
constexpr std::size_t kVariants = session::kVariantCount;

/// fleet_sim's spec i, with the seed shifted by the workload's offset.
session::SessionSpec make_spec(std::size_t i, std::uint64_t seed_offset) {
  session::SessionSpec spec;
  spec.variant = static_cast<session::Variant>(i % kVariants);
  spec.seed = seed_offset + 1 + static_cast<std::uint64_t>(i);
  spec.motion = static_cast<std::uint32_t>(i / kVariants) % 3;
  spec.intensity = 1.0 + 0.25 * static_cast<double>(i % 4);
  switch (spec.variant) {
    case session::Variant::kLink:
    case session::Variant::kHetero:
    case session::Variant::kMultiTx:
    case session::Variant::kOnlineRecal:
      spec.duration_s = 0.2;
      break;
    case session::Variant::kChannel:
      spec.duration_s = 1.0;
      break;
    case session::Variant::kArena:
    case session::Variant::kStream:
      spec.duration_s = 0.5;
      break;
  }
  return spec;
}

struct SessionTiming {
  double prepare_us = 0.0;
  double run_us = 0.0;
  double op_us = 0.0;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Times one session: created by the factory inside run_session and
/// destroyed at its end, so its lifetime is the op.
class TimedRunner final : public session::SessionRunner {
 public:
  TimedRunner(std::unique_ptr<session::SessionRunner> inner,
              const char* variant, SessionTiming* slot, bool trace,
              Clock::time_point start)
      : inner_(std::move(inner)),
        variant_(variant),
        slot_(slot),
        trace_(trace),
        start_(start),
        op_("session", variant, 0, 0) {}

  ~TimedRunner() override {
    inner_.reset();
    slot_->op_us = us_between(start_, Clock::now());
  }

  const char* name() const noexcept override { return inner_->name(); }

  void prepare(runtime::Context& ctx) override {
    if (!trace_) return inner_->prepare(ctx);
    ScopedSpan span("prepare", variant_, op_.id(), op_.id());
    const auto t0 = Clock::now();
    inner_->prepare(ctx);
    slot_->prepare_us = us_between(t0, Clock::now());
  }

  session::Report run(runtime::Context& ctx) override {
    if (!trace_) return inner_->run(ctx);
    ScopedSpan span("run", variant_, op_.id(), op_.id());
    const auto t0 = Clock::now();
    session::Report report = inner_->run(ctx);
    slot_->run_us = us_between(t0, Clock::now());
    return report;
  }

 private:
  std::unique_ptr<session::SessionRunner> inner_;
  const char* variant_;
  SessionTiming* slot_;
  bool trace_;
  Clock::time_point start_;
  ScopedSpan op_;  // ends after the destructor body has released inner_
};

bool same_report(const session::Report& a, const session::Report& b) {
  return a.variant == b.variant && a.seed == b.seed && a.events == b.events &&
         a.slots == b.slots && a.served_fraction == b.served_fraction &&
         a.avg_rate_gbps == b.avg_rate_gbps && a.switches == b.switches;
}

bool finite_report(const session::Report& r) {
  return std::isfinite(r.served_fraction) && std::isfinite(r.avg_rate_gbps);
}

/// Per-variant sums over a traced phase.
struct VariantTotals {
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  double prepare_us = 0.0;
  double run_us = 0.0;
};

class FleetMix {
 public:
  explicit FleetMix(const Options& options)
      : batch_(options.tiny ? kTinyBatch : kBatch),
        seed_offset_((options.seed - 1) * batch_) {}

  void setup() {
    specs_.reserve(batch_);
    for (std::size_t i = 0; i < batch_; ++i) {
      specs_.push_back(make_spec(i, seed_offset_));
    }
    // Warm-up, untimed: the first fifth of the batch (100 sessions of each
    // variant), so every driver's workspace has run every runner family
    // before the first timed op.  One session per variant took only
    // 10-20 ms, which process-start jitter alone moved by 2x.
    const std::vector<session::SessionSpec> warm(specs_.begin(),
                                                 specs_.begin() + batch_ / 5);
    session::run_fleet(warm, session::catalog_factory());
  }

  PhaseStats run_phase(double seconds, bool trace, Outcome& out) {
    SpanLog::instance().enable(trace);
    timings_.assign(batch_, SessionTiming{});
    const session::RunnerFactory catalog = session::catalog_factory();
    const session::RunnerFactory factory =
        [&](const session::SessionSpec& spec)
        -> std::unique_ptr<session::SessionRunner> {
      const auto start = Clock::now();
      const std::size_t i = spec.seed - seed_offset_ - 1;
      return std::make_unique<TimedRunner>(
          catalog(spec), session::variant_name(spec.variant), &timings_[i],
          trace, start);
    };

    util::ThreadPool& pool = util::ThreadPool::global();
    const util::ThreadPool::Stats pool0 = pool.stats();
    PhaseStats phase(WindowStat::kMedian);
    double busy_us = 0.0;
    phase.start();
    do {  // one window per batch
      session::FleetResult fleet = session::run_fleet(specs_, factory);
      check_batch(fleet, out);
      for (std::size_t i = 0; i < batch_; ++i) {
        const SessionTiming& t = timings_[i];
        phase.add_op(t.op_us * 1e-3);
        busy_us += t.op_us;
        if (trace) {
          VariantTotals& v = variants_[i % kVariants];
          ++v.sessions;
          v.events += fleet.reports[i].events;
          v.prepare_us += t.prepare_us;
          v.run_us += t.run_us;
        }
      }
      phase.close_window();
      if (!rollup_) rollup_ = std::move(fleet.rollup);
    } while (phase.elapsed_s() < seconds);
    phase.finish();
    SpanLog::instance().enable(false);

    const util::ThreadPool::Stats pool1 = pool.stats();
    pool_wait_us_ = static_cast<double>(pool1.wait_us - pool0.wait_us);
    pool_parallel_jobs_ =
        static_cast<double>(pool1.parallel_jobs - pool0.parallel_jobs);
    driver_util_ = busy_us / (1e6 * phase.wall_s() *
                              static_cast<double>(pool.thread_count()));
    return phase;
  }

  void add_results(Outcome& out) const {
    Digest digest;
    double served = 0.0;
    for (const session::Report& r : reference_) {
      digest.add(static_cast<std::uint64_t>(r.variant));
      digest.add(r.seed);
      digest.add(r.events);
      digest.add(r.slots);
      digest.add(r.served_fraction);
      digest.add(r.avg_rate_gbps);
      digest.add(r.switches);
      served += r.served_fraction;
    }
    out.digest = digest.value();
    out.fidelity.push_back(
        {{"up_fraction", served / static_cast<double>(reference_.size()),
          "frac"},
         "no paper anchor (mean Report::served_fraction over 7 variants)"});
  }

  void add_per_layer(Outcome& out, const PhaseStats& traced) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      const std::string name =
          session::variant_name(static_cast<session::Variant>(v));
      const VariantTotals& t = variants_[v];
      const double n = t.sessions > 0 ? static_cast<double>(t.sessions) : 1.0;
      out.per_layer.push_back({"session.prepare_us." + name, t.prepare_us / n, "us"});
      out.per_layer.push_back({"session.run_us." + name, t.run_us / n, "us"});
      out.per_layer.push_back({"event.events_per_session." + name,
                               static_cast<double>(t.events) / n, "count"});
      out.per_layer.push_back(
          {"event.ns_per_event." + name,
           t.events > 0 ? t.run_us * 1e3 / static_cast<double>(t.events) : 0.0,
           "ns"});
    }
    out.per_layer.push_back({"session.driver_util", driver_util_, "frac"});

    // Simulated counts from the first batch's rollup (identical in every
    // batch): the recal plane per online_recal session, the pointing and
    // TP planes per session of any variant.
    const auto count = [&](const char* name) {
      return static_cast<double>(rollup_->counter(name).value());
    };
    const double sessions = static_cast<double>(batch_);
    const double recal_sessions = static_cast<double>(sessions_of_variant(
        static_cast<std::size_t>(session::Variant::kOnlineRecal)));
    const double refits = count("cal_refits_total");
    const double gprime = count("gprime_solves_total");
    out.per_layer.push_back(
        {"cal.refits_per_session", refits / recal_sessions, "count"});
    out.per_layer.push_back(
        {"cal.refit_iters_per_refit",
         refits > 0.0 ? count("cal_refit_iterations_total") / refits : 0.0,
         "count"});
    out.per_layer.push_back(
        {"cal.samples_admitted_per_session",
         count("cal_samples_admitted_total") / recal_sessions, "count"});
    out.per_layer.push_back(
        {"core.gprime_solves_per_session", gprime / sessions, "count"});
    out.per_layer.push_back(
        {"core.gprime_converged_ratio",
         gprime > 0.0 ? count("gprime_converged_total") / gprime : 0.0, "frac"});
    out.per_layer.push_back({"link.realignments_per_session",
                             count("session_realignments_total") / sessions,
                             "count"});
    out.per_layer.push_back({"link.tp_failures_per_session",
                             count("session_tp_failures_total") / sessions,
                             "count"});
    out.per_layer.push_back(
        {"util.pool_wait_frac", pool_wait_us_ * 1e-6 / traced.wall_s(), "frac"});
    out.per_layer.push_back(
        {"util.pool_parallel_jobs",
         pool_parallel_jobs_ / static_cast<double>(traced.ops()), "count/op"});
  }

 private:
  /// Sessions of variant v in one batch.
  std::size_t sessions_of_variant(std::size_t v) const {
    return batch_ / kVariants + (v < batch_ % kVariants ? 1 : 0);
  }

  void check_batch(const session::FleetResult& fleet, Outcome& out) {
    out.attempted += batch_;
    if (reference_.empty()) reference_ = fleet.reports;
    if (!fleet.reconciled) {
      out.failed += batch_;
      return;
    }
    for (std::size_t i = 0; i < batch_; ++i) {
      const session::Report& r = fleet.reports[i];
      if (r.events == 0 || !finite_report(r) || !same_report(r, reference_[i])) {
        ++out.failed;
      }
    }
  }

  std::size_t batch_;
  std::uint64_t seed_offset_;
  std::vector<session::SessionSpec> specs_;
  std::vector<SessionTiming> timings_;
  std::vector<session::Report> reference_;
  std::unique_ptr<obs::Registry> rollup_;
  VariantTotals variants_[kVariants];
  double pool_wait_us_ = 0.0;
  double pool_parallel_jobs_ = 0.0;
  double driver_util_ = 0.0;
};

}  // namespace

Outcome run_fleet_mix(const Options& options) {
  Outcome out;
  FleetMix fleet(options);
  fleet.setup();
  const double setup_s = setup_seconds(options);
  if (options.setup_only) {
    out.end_to_end.push_back({"setup_s", setup_s, "s"});
    return out;
  }
  if (!options.trace) {
    add_end_to_end(out, setup_s, fleet.run_phase(options.seconds, false, out));
  } else {
    const PhaseStats plain = fleet.run_phase(options.seconds / 2, false, out);
    const PhaseStats traced = fleet.run_phase(options.seconds / 2, true, out);
    fleet.add_per_layer(out, traced);
    out.per_layer.push_back({"bench.trace_overhead_frac",
                             plain.ops_per_s() / traced.ops_per_s() - 1.0,
                             "frac"});
  }
  fleet.add_results(out);
  return out;
}

}  // namespace perfbench
