#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace cyclops::bench {

CalibratedRig make_calibrated_rig(std::uint64_t seed,
                                  const sim::PrototypeConfig& config,
                                  const runtime::Context& ctx) {
  sim::Prototype proto = sim::make_prototype(seed, config);
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
  return {std::move(proto), std::move(calib)};
}

std::vector<SpeedSweepRow> stroke_speed_sweep(
    CalibratedRig& rig, StrokeKind kind, const std::vector<double>& speeds,
    const runtime::Context& ctx, LinkSimulator simulate) {
  std::vector<SpeedSweepRow> rows;
  rows.reserve(speeds.size());
  for (double speed : speeds) {
    core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                  core::TpConfig{});
    std::unique_ptr<motion::MotionProfile> profile;
    if (kind == StrokeKind::kLinear) {
      profile = std::make_unique<motion::LinearStrokeMotion>(
          rig.proto.nominal_rig_pose, geom::Vec3{1, 0, 0}, 0.12,
          std::vector<double>{speed});
    } else {
      profile = std::make_unique<motion::AngularStrokeMotion>(
          rig.proto.nominal_rig_pose, geom::Vec3{0, 1, 0},
          util::deg_to_rad(12.0), std::vector<double>{speed});
    }
    const link::RunResult run =
        simulate != nullptr
            ? simulate(rig.proto, controller, *profile, ctx, {})
            : link::run_link_simulation(rig.proto, controller, *profile, ctx);

    // Medians over the *moving* windows (the stroke, not the end rests).
    const double speed_floor = 0.5 * speed;
    std::vector<double> tp, power, up;
    for (const auto& w : run.windows) {
      const double w_speed = kind == StrokeKind::kLinear
                                 ? w.linear_speed_mps
                                 : w.angular_speed_rps;
      if (w_speed < speed_floor) continue;
      tp.push_back(w.throughput_gbps);
      up.push_back(w.up_fraction);
      if (std::isfinite(w.avg_power_dbm)) power.push_back(w.avg_power_dbm);
    }
    SpeedSweepRow row;
    row.speed = speed;
    row.throughput_gbps = util::percentile(tp, 50.0);
    row.power_dbm = power.empty() ? -99.0 : util::percentile(power, 50.0);
    row.up_fraction = util::percentile(up, 50.0);
    rows.push_back(row);
  }
  return rows;
}

double max_optimal_speed(const std::vector<SpeedSweepRow>& rows,
                         double goodput_gbps) {
  double best = 0.0;
  for (const auto& row : rows) {
    if (row.throughput_gbps >= 0.98 * goodput_gbps) {
      best = std::max(best, row.speed);
    }
  }
  return best;
}

link::RunResult mixed_motion_run(CalibratedRig& rig, double max_linear_mps,
                                 double max_angular_rps, double duration_s,
                                 std::uint64_t seed,
                                 const runtime::Context& ctx) {
  core::TpController controller(rig.calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  motion::MixedRandomMotion::Config config;
  config.duration_s = duration_s;
  config.max_linear_speed = max_linear_mps;
  config.max_angular_speed = max_angular_rps;
  config.linear_speed_sigma = max_linear_mps * 0.5;
  config.angular_speed_sigma = max_angular_rps * 0.5;
  const motion::MixedRandomMotion profile(rig.proto.nominal_rig_pose, config,
                                          util::Rng(seed));
  return link::run_link_simulation(rig.proto, controller, profile, ctx);
}

MixedCharacterization characterize_mixed(CalibratedRig& rig,
                                         double cap_linear_mps,
                                         double cap_angular_rps,
                                         double lin_limit, double ang_limit,
                                         double duration_s,
                                         std::uint64_t seed,
                                         const runtime::Context& ctx) {
  const double sensitivity = rig.proto.scene.config().sfp.rx_sensitivity_dbm;
  const link::RunResult run = mixed_motion_run(
      rig, cap_linear_mps, cap_angular_rps, duration_s, seed, ctx);

  MixedCharacterization result;
  const int n_lin = 10, n_ang = 10;
  const double lin_step = cap_linear_mps / n_lin;
  const double ang_step = cap_angular_rps / n_ang;
  result.by_linear.resize(n_lin);
  result.by_angular.resize(n_ang);
  for (int i = 0; i < n_lin; ++i) result.by_linear[i].speed_lo = i * lin_step;
  for (int i = 0; i < n_ang; ++i) result.by_angular[i].speed_lo = i * ang_step;

  (void)sensitivity;
  for (const auto& w : run.windows) {
    // Aligned = at least 95 % of the window's slots meet sensitivity
    // (tolerates the transient dip of a mid-window realignment).
    const bool aligned = w.power_ok_fraction >= 0.95;
    if (w.angular_speed_rps < ang_limit) {
      const int b = std::min(
          n_lin - 1, static_cast<int>(w.linear_speed_mps / lin_step));
      ++result.by_linear[b].windows;
      if (aligned) ++result.by_linear[b].aligned;
    }
    if (w.linear_speed_mps < lin_limit) {
      const int b = std::min(
          n_ang - 1, static_cast<int>(w.angular_speed_rps / ang_step));
      ++result.by_angular[b].windows;
      if (aligned) ++result.by_angular[b].aligned;
    }
  }

  // "Sustained" = the highest bucket edge reached while every populated
  // bucket below it keeps >= 75 % of windows aligned.  (Scatter-plot data:
  // window-center speeds are noisy and the off-axis speed can sit near its
  // own limit, so individual buckets never reach 100 %.)
  const auto sustained = [](const std::vector<MixedBucket>& buckets,
                            double step) {
    double edge = 0.0;
    for (const auto& bucket : buckets) {
      if (bucket.windows < 5) continue;
      if (bucket.aligned_fraction() < 0.75) break;
      edge = bucket.speed_lo + step;
    }
    return edge;
  };
  result.sustained_linear_mps = sustained(result.by_linear, lin_step);
  result.sustained_angular_rps = sustained(result.by_angular, ang_step);
  return result;
}

std::string fmt(double v, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

}  // namespace cyclops::bench
