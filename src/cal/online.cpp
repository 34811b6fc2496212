#include "cal/online.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/pointing.hpp"
#include "event/event.hpp"
#include "event/process.hpp"
#include "event/scheduler.hpp"
#include "geom/mat3.hpp"
#include "obs/registry.hpp"
#include "session/lifecycle.hpp"
#include "util/rng.hpp"

namespace cyclops::cal {

// ---------------------------------------------------------------------------
// OnlineRecalibrator
// ---------------------------------------------------------------------------

OnlineRecalibrator::OnlineRecalibrator(core::GmaModel tx_kspace,
                                       core::GmaModel rx_kspace,
                                       const geom::Pose& map_tx,
                                       const geom::Pose& map_rx,
                                       const core::DriftMonitorConfig& monitor,
                                       const OnlineRefitOptions& options,
                                       const runtime::Context& ctx)
    : tx_kspace_(std::move(tx_kspace)),
      rx_kspace_(std::move(rx_kspace)),
      map_tx_(map_tx),
      map_rx_(map_rx),
      monitor_(monitor),
      options_(options),
      ctx_(&ctx) {
  buffer_.reserve(static_cast<std::size_t>(options_.buffer_capacity));
}

void OnlineRecalibrator::arm(double healthy_power_dbm) {
  core::DriftMonitorConfig cfg = monitor_.config();
  cfg.healthy_power_dbm = healthy_power_dbm;
  monitor_ = core::DriftMonitor(cfg);
}

void OnlineRecalibrator::on_power(double power_dbm) {
  monitor_.on_post_realignment_power(power_dbm);
}

void OnlineRecalibrator::admit(const core::AlignedSample& sample) {
  if (static_cast<int>(buffer_.size()) >= options_.buffer_capacity) {
    buffer_.erase(buffer_.begin());
  }
  buffer_.push_back(sample);
}

bool OnlineRecalibrator::refit_pending() const noexcept {
  return !stepper_.has_value() && monitor_.recalibration_needed() &&
         static_cast<int>(buffer_.size()) >= options_.min_samples;
}

void OnlineRecalibrator::begin_refit(util::SimTimeUs now_us) {
  // Freeze the ring for finish_refit's coincidence stats while the live
  // buffer keeps accumulating for the *next* refit.  The residual function
  // owns its own K-space trace of these samples.
  refit_samples_ = buffer_;
  refit_started_us_ = now_us;
  core::MappingFitProblem problem = core::make_mapping_problem(
      tx_kspace_, rx_kspace_, refit_samples_, map_tx_, map_rx_);
  stepper_.emplace(std::move(problem.residuals), std::move(problem.initial),
                   options_.options, *ctx_, std::move(problem.probes));
}

bool OnlineRecalibrator::step_refit() { return stepper_->step(); }

core::MappingFitReport OnlineRecalibrator::finish_refit(util::SimTimeUs now_us) {
  const opt::LevMarResult fit = stepper_->result();
  const core::MappingFitReport report =
      core::finish_mapping_fit(tx_kspace_, rx_kspace_, refit_samples_, fit);
  map_tx_ = report.map_tx;
  map_rx_ = report.map_rx;
  stepper_.reset();
  buffer_.clear();
  monitor_.reset();
  ++refits_;
  obs::Registry& reg = ctx_->registry();
  reg.counter("cal_refits_total").inc();
  reg.counter("cal_refit_iterations_total")
      .inc(static_cast<std::uint64_t>(fit.iterations));
  reg.histogram("cal_refit_latency_us", obs::HistogramSpec::duration_us())
      .record(static_cast<double>(now_us - refit_started_us_));
  return report;
}

// ---------------------------------------------------------------------------
// Drift-injected serving session
// ---------------------------------------------------------------------------

namespace {

constexpr event::EventType kSlotEvent = 0;
constexpr event::EventType kRefitEvent = 1;

/// Fixed (arbitrary, unit-norm) drift directions — the injection is a
/// deterministic scenario, not a random process.
geom::Vec3 drift_rotation_axis() {
  return geom::Vec3{0.31, -0.52, 0.80}.normalized();
}
geom::Vec3 drift_translation_dir() {
  return geom::Vec3{-0.45, 0.62, 0.64}.normalized();
}

/// VR-frame drift at session fraction `frac`: slow ramp plus a step.
geom::Pose drift_pose(const DriftInjection& d, double frac) {
  double angle = d.ramp_angle_rad * frac;
  double trans = d.ramp_translation_m * frac;
  if (frac >= d.step_at_fraction) {
    angle += d.step_angle_rad;
    trans += d.step_translation_m;
  }
  return {geom::Mat3::rotation(drift_rotation_axis(), angle),
          drift_translation_dir() * trans};
}

/// RX galvo gain drift: the voltages the RX mirrors *apply* for a command.
sim::Voltages gain_scaled(const sim::Voltages& v, double gain) {
  return {v.tx1, v.tx2, v.rx1 * (1.0 + gain), v.rx2 * (1.0 + gain)};
}

double* channel(sim::Voltages& v, int c) {
  switch (c) {
    case 0: return &v.tx1;
    case 1: return &v.tx2;
    case 2: return &v.rx1;
    default: return &v.rx2;
  }
}

/// Cheap measured-power coordinate descent around the solver's answer, so
/// admitted tuples are *genuinely* aligned under the drifted physics (the
/// online stand-in for Stage 2's exhaustive aligner).  Deterministic; no
/// RNG draws, so the frozen baseline's random stream is unaffected by
/// whether polishing runs.  Each move changes one side of the link, so
/// the other side's trace is held rather than traced again.
double polish_voltages(const sim::Scene& scene, double gain, int rounds,
                       sim::Voltages& v) {
  const auto capture_at = [&](const sim::Voltages& commanded) {
    const sim::Voltages applied = gain_scaled(commanded, gain);
    return scene.capture(applied.rx1, applied.rx2);
  };
  auto beam = scene.emit(v.tx1, v.tx2);
  auto rx = capture_at(v);
  double best = scene.couple(beam, rx).power.rx_power_dbm;
  double step = 0.08;
  for (int r = 0; r < rounds; ++r, step *= 0.35) {
    for (int c = 0; c < 4; ++c) {
      double* ch = channel(v, c);
      const bool tx_side = c < 2;
      bool moved = true;
      for (int m = 0; m < 6 && moved; ++m) {
        moved = false;
        for (const double dir : {1.0, -1.0}) {
          const double saved = *ch;
          *ch = saved + dir * step;
          const auto moved_beam = tx_side ? scene.emit(v.tx1, v.tx2) : beam;
          const auto moved_rx = tx_side ? rx : capture_at(v);
          const double p =
              scene.couple(moved_beam, moved_rx).power.rx_power_dbm;
          if (p > best) {
            best = p;
            beam = moved_beam;
            rx = moved_rx;
            moved = true;
            break;
          }
          *ch = saved;
        }
      }
    }
  }
  return best;
}

class RecalSession final : public event::Process {
 public:
  RecalSession(sim::Prototype& proto, const core::CalibrationResult& calibration,
               const OnlineRecalConfig& config, const runtime::Context& ctx)
      : proto_(&proto),
        calibration_(&calibration),
        config_(config),
        ctx_(&ctx),
        rng_(0x0ca1u + config.seed * 0x9e3779b97f4a7c15ull),
        recal_(calibration.tx_stage1.model, calibration.rx_stage1.model,
               calibration.mapping.map_tx, calibration.mapping.map_rx,
               config.monitor, config.refit, ctx),
        sensitivity_(proto.scene.config().sfp.rx_sensitivity_dbm) {
    solver_.emplace(calibration.make_pointing_solver({}, ctx));
    total_slots_ = static_cast<std::uint64_t>(config_.duration_s * 1e6 /
                                              static_cast<double>(config_.slot_us));
    if (total_slots_ == 0) total_slots_ = 1;
  }

  void start(event::Scheduler& sched) {
    id_ = sched.add_process(this);
    sched.schedule_after(config_.slot_us, event::Event{0, kSlotEvent, id_, 0, 0.0});
  }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    if (ev.type == kSlotEvent) {
      on_slot(sched);
    } else {
      on_refit(sched);
    }
  }

  OnlineRecalResult finish() {
    if (win_slots_ > 0) close_window();
    result_.slots = slot_;
    result_.windows = result_.window_stats.size();
    result_.refits = recal_.refits();
    result_.avg_margin_db =
        margin_n_ > 0 ? margin_sum_ / static_cast<double>(margin_n_) : 0.0;
    result_.up_fraction =
        slot_ > 0 ? 1.0 - static_cast<double>(result_.down_slots) /
                              static_cast<double>(slot_)
                  : 0.0;
    const std::size_t n = result_.window_stats.size();
    if (n > 0) {
      const std::size_t q = n >= 4 ? n / 4 : 1;
      double early = 0.0, tail = 0.0;
      for (std::size_t i = 0; i < q; ++i) {
        early += result_.window_stats[i].avg_margin_db;
        tail += result_.window_stats[n - 1 - i].avg_margin_db;
      }
      result_.early_margin_db = early / static_cast<double>(q);
      result_.tail_margin_db = tail / static_cast<double>(q);
    }
    return result_;
  }

 private:
  void on_slot(event::Scheduler& sched) {
    const util::SimTimeUs now = sched.now();
    const double frac =
        static_cast<double>(slot_) / static_cast<double>(total_slots_);

    // The rig wanders; the tracker reports; the injected VR-frame drift
    // corrupts the report; the gain drift corrupts the applied voltages.
    const geom::Pose rig = core::random_rig_pose(
        proto_->nominal_rig_pose, config_.pose_position_extent,
        config_.pose_angle_extent, rng_);
    proto_->scene.set_rig_pose(rig);
    const geom::Pose psi =
        drift_pose(config_.drift, frac) * proto_->tracker.report(now, rig).pose;
    const double gain = config_.drift.galvo_gain_drift * frac;

    const core::PointingResult pr = solver_->solve(psi, hint_);
    hint_ = pr.voltages;
    const double power =
        proto_->scene.received_power_dbm(gain_scaled(pr.voltages, gain));
    const double margin = power - sensitivity_;
    const bool up = std::isfinite(power) && margin > 0.0;

    if (std::isfinite(margin)) {
      margin_sum_ += margin;
      ++margin_n_;
      win_margin_sum_ += margin;
      ++win_margin_n_;
      win_power_sum_ += power;
    }
    ++win_slots_;
    win_up_ += up ? 1 : 0;
    if (!up) {
      ++result_.down_slots;
      // Attributable to refit only if one is in flight at this slot —
      // drift-caused outage before the monitor latches is not the
      // recalibrator's doing.
      if (recal_.refit_active()) win_refit_down_ = true;
    }
    win_refit_ = win_refit_ || recal_.refit_active();

    obs::Registry& reg = ctx_->registry();
    if (slots_total_ == nullptr) slots_total_ = &reg.counter("cal_slots_total");
    slots_total_->inc();
    if (std::isfinite(margin)) {
      if (margin_db_ == nullptr) {
        margin_db_ = &reg.histogram(
            "cal_margin_db", obs::HistogramSpec::linear(-20.25, 0.5, 96));
      }
      margin_db_->record(margin);
    }

    if (armed_) {
      recal_.on_power(power);
    }

    // Sample admission: every Nth slot, polish against measured power and
    // keep the tuple only if the link is genuinely coupled there.
    if (config_.online && slot_ % static_cast<std::uint64_t>(
                                      config_.sample_every_slots) == 0) {
      sim::Voltages v = pr.voltages;
      const double polished =
          polish_voltages(proto_->scene, gain, config_.polish_rounds, v);
      if (polished > sensitivity_) {
        recal_.admit({v, psi});
        if (admitted_total_ == nullptr) {
          admitted_total_ =
              &ctx_->registry().counter("cal_samples_admitted_total");
        }
        admitted_total_->inc();
      }
    }

    if (config_.online && recal_.refit_pending()) {
      recal_.begin_refit(now);
      win_refit_ = true;
      sched.schedule_after(config_.fit_interval_us,
                           event::Event{0, kRefitEvent, id_, 0, 0.0});
    }

    ++slot_;
    if (slot_ % config_.window_slots == 0) close_window();
    if (slot_ < total_slots_) {
      sched.schedule_after(config_.slot_us,
                           event::Event{0, kSlotEvent, id_, 0, 0.0});
    }
  }

  void on_refit(event::Scheduler& sched) {
    if (!recal_.refit_active()) return;
    bool more = false;
    for (int i = 0; i < config_.fit_iters_per_event; ++i) {
      more = recal_.step_refit();
      if (!more) break;
    }
    if (more) {
      sched.schedule_after(config_.fit_interval_us,
                           event::Event{0, kRefitEvent, id_, 0, 0.0});
      return;
    }
    recal_.finish_refit(sched.now());
    // Atomic swap: the very next slot realigns with the refreshed mapping.
    solver_.emplace(calibration_->tx_stage1.model, calibration_->rx_stage1.model,
                    recal_.map_tx(), recal_.map_rx(), core::PointingOptions{},
                    *ctx_);
  }

  void close_window() {
    OnlineRecalWindow w;
    w.avg_margin_db =
        win_margin_n_ > 0 ? win_margin_sum_ / static_cast<double>(win_margin_n_)
                          : -30.0;
    w.up_fraction = win_slots_ > 0
                        ? static_cast<double>(win_up_) /
                              static_cast<double>(win_slots_)
                        : 0.0;
    w.refit_active = win_refit_;
    if (win_refit_) {
      ++result_.refit_windows;
      if (win_refit_down_) ++result_.refit_down_windows;
    }
    result_.window_stats.push_back(w);

    // First window closed = commissioning baseline measured: arm the
    // drift monitor at this link's own healthy power.
    if (!armed_) {
      const double healthy = win_margin_n_ > 0
                                 ? win_power_sum_ /
                                       static_cast<double>(win_margin_n_)
                                 : sensitivity_ + 5.0;
      recal_.arm(healthy);
      armed_ = true;
    }
    win_margin_sum_ = 0.0;
    win_power_sum_ = 0.0;
    win_margin_n_ = 0;
    win_slots_ = 0;
    win_up_ = 0;
    win_refit_ = false;
    win_refit_down_ = false;
  }

  sim::Prototype* proto_;
  const core::CalibrationResult* calibration_;
  OnlineRecalConfig config_;
  const runtime::Context* ctx_;
  util::Rng rng_;
  OnlineRecalibrator recal_;
  std::optional<core::PointingSolver> solver_;
  double sensitivity_;

  event::ProcessId id_ = event::kNoProcess;
  std::uint64_t total_slots_ = 0;
  std::uint64_t slot_ = 0;
  sim::Voltages hint_{};
  bool armed_ = false;
  // Registry-owned handles, looked up at the first record, which is when
  // each metric first appears in the registry.
  obs::Counter* slots_total_ = nullptr;
  obs::Histogram* margin_db_ = nullptr;
  obs::Counter* admitted_total_ = nullptr;

  double margin_sum_ = 0.0;
  std::uint64_t margin_n_ = 0;
  double win_margin_sum_ = 0.0;
  double win_power_sum_ = 0.0;
  std::uint32_t win_margin_n_ = 0;
  std::uint32_t win_slots_ = 0;
  std::uint32_t win_up_ = 0;
  bool win_refit_ = false;
  bool win_refit_down_ = false;

  OnlineRecalResult result_;
};

}  // namespace

OnlineRecalResult run_online_recal_session(sim::Prototype& proto,
                                           const core::CalibrationResult& calibration,
                                           const OnlineRecalConfig& config,
                                           const runtime::Context& ctx) {
  if (config.slot_us <= 0) throw std::invalid_argument("recal slot <= 0");
  event::Scheduler sched(session::bind_session_clock(ctx));

  RecalSession session(proto, calibration, config, ctx);
  session.start(sched);
  sched.run();

  OnlineRecalResult result = session.finish();
  result.events = sched.dispatched();
  proto.scene.set_rig_pose(proto.nominal_rig_pose);
  return result;
}

}  // namespace cyclops::cal
