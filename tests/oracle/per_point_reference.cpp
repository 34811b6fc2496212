#include "per_point_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "opt/nelder_mead.hpp"

namespace cyclops::galvo {

std::optional<geom::Ray> reference_trace(const GalvoMirror& galvo, double v1,
                                         double v2) {
  if (!galvo.voltage_in_range(v1) || !galvo.voltage_in_range(v2)) {
    return std::nullopt;
  }
  const GalvoParams& params = galvo.params();
  const double radius = galvo.spec().mirror_radius;
  const auto mid = geom::reflect({params.p0, params.x0.normalized()},
                                 galvo.mirror1_plane(v1));
  if (!mid) return std::nullopt;
  if (geom::distance(mid->origin, params.q1) > radius) return std::nullopt;
  const auto out = geom::reflect(*mid, galvo.mirror2_plane(v2));
  if (!out) return std::nullopt;
  if (geom::distance(out->origin, params.q2) > radius) return std::nullopt;
  return out;
}

}  // namespace cyclops::galvo

namespace cyclops::sim {
namespace {

/// TracedBeam::envelope_diameter_at, taking the tan per call.
double envelope_diameter_at(const optics::TracedBeam& beam,
                            const geom::Vec3& p) {
  if (beam.spec.kind == optics::BeamKind::kCollimated) {
    return beam.spec.launch_diameter;
  }
  return 2.0 * geom::distance(beam.apex, p) *
         std::tan(beam.spec.divergence_half_angle);
}

/// The coupling model on a beam: it derives the four statistics itself and
/// takes the angular acceptance per call (coupling_loss_from_errors).
optics::CouplingResult coupling_loss(const optics::ReceiverDesign& rx,
                                     const optics::TracedBeam& beam,
                                     const geom::Vec3& capture_point,
                                     const geom::Vec3& accept_dir) {
  const double diameter = envelope_diameter_at(beam, capture_point);
  const double delta_r = beam.envelope_offset(capture_point);
  const geom::Vec3 arriving = beam.arriving_dir_at(capture_point);
  const double psi = geom::angle_between(arriving, -accept_dir);
  return optics::coupling_loss_from_errors(rx, diameter,
                                           beam.spec.local_divergence(),
                                           beam.spec.tail_factor, delta_r, psi);
}

}  // namespace

LinkObservation reference_couple(const Scene& scene,
                                 const std::optional<optics::TracedBeam>& beam,
                                 const std::optional<geom::Ray>& rx_ray) {
  const SceneConfig& config = scene.config();
  LinkObservation obs;
  if (!beam || !rx_ray) {
    obs.power = optics::compute_power(config.sfp, config.amplifier, {}, false);
    obs.power.rx_power_dbm = -std::numeric_limits<double>::infinity();
    return obs;
  }

  const geom::Vec3 capture_point = rx_ray->origin;
  const geom::Vec3 accept_dir = rx_ray->dir;
  const geom::Vec3 to_capture = capture_point - beam->chief.origin;
  obs.range = to_capture.norm();
  if (to_capture.dot(beam->chief.dir) <= 0.0) {
    obs.power.rx_power_dbm = -std::numeric_limits<double>::infinity();
    return obs;
  }
  obs.beam_valid = true;

  obs.occluded = scene.segment_occluded(beam->chief.origin, capture_point);
  obs.delta_r = beam->envelope_offset(capture_point);
  obs.psi = geom::angle_between(beam->arriving_dir_at(capture_point),
                                -accept_dir);
  obs.envelope_diameter = envelope_diameter_at(*beam, capture_point);

  const auto coupling = coupling_loss(config.design.receiver, *beam,
                                      capture_point, accept_dir);
  obs.power = optics::compute_power(config.sfp, config.amplifier, coupling,
                                    obs.occluded);
  return obs;
}

optics::QuadReading reference_photodiodes(const Scene& scene,
                                          const Voltages& v) {
  const auto beam = scene.emit(v.tx1, v.tx2);
  if (!beam) return {};
  const geom::Pose& diode_pose = scene.rx_world().mount();
  const optics::QuadPhotodiode quad(diode_pose,
                                    scene.config().photodiode_arm_radius);
  if (scene.segment_occluded(beam->chief.origin, diode_pose.translation())) {
    return {};
  }
  return quad.read(*beam);
}

}  // namespace cyclops::sim

namespace cyclops::core {
namespace {

/// The raster with every point scored through `score(a, b)` from scratch.
template <typename ScoreFn>
std::pair<double, double> raster(double a0, double b0, double half_extent,
                                 double step, int& evals,
                                 const ScoreFn& score,
                                 util::ThreadPool& pool) {
  std::vector<double> as, bs;
  for (double a = a0 - half_extent; a <= a0 + half_extent; a += step) {
    as.push_back(a);
  }
  for (double b = b0 - half_extent; b <= b0 + half_extent; b += step) {
    bs.push_back(b);
  }

  double best = score(a0, b0);
  double best_a = a0, best_b = b0;
  evals += 1 + static_cast<int>(as.size() * bs.size());

  struct RowBest {
    double score = -std::numeric_limits<double>::infinity();
    double b = 0.0;
  };
  std::vector<RowBest> rows(as.size());
  util::parallel_for(
      as.size(),
      [&](std::size_t i) {
        RowBest row;
        for (double b : bs) {
          const double s = score(as[i], b);
          if (s > row.score) {
            row.score = s;
            row.b = b;
          }
        }
        rows[i] = row;
      },
      pool);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].score > best) {
      best = rows[i].score;
      best_a = as[i];
      best_b = rows[i].b;
    }
  }
  return {best_a, best_b};
}

double reference_power_dbm(const sim::Scene& scene, const sim::Voltages& v) {
  return sim::reference_couple(scene, scene.emit(v.tx1, v.tx2),
                               scene.capture(v.rx1, v.rx2))
      .power.rx_power_dbm;
}

AlignResult align_once(const sim::Scene& scene, const sim::Voltages& hint,
                       const AlignerOptions& options, util::ThreadPool& pool) {
  AlignResult result;
  sim::Voltages v = hint;
  const double vmax = scene.tx().galvo().spec().max_voltage;

  const auto diode_sum = [&](double t1, double t2) {
    sim::Voltages probe = v;
    probe.tx1 = t1;
    probe.tx2 = t2;
    return sim::reference_photodiodes(scene, probe).sum();
  };
  std::tie(v.tx1, v.tx2) =
      raster(v.tx1, v.tx2, options.tx_scan_half_extent, options.tx_scan_step,
             result.evaluations, diode_sum, pool);

  const auto tx_beam = scene.emit(v.tx1, v.tx2);
  const auto fiber_power_rx = [&](double r1, double r2) {
    return sim::reference_couple(scene, tx_beam, scene.capture(r1, r2))
        .power.rx_power_dbm;
  };
  std::tie(v.rx1, v.rx2) =
      raster(v.rx1, v.rx2, options.rx_scan_half_extent, options.rx_scan_step,
             result.evaluations, fiber_power_rx, pool);

  for (int round = 0; round < options.refine_rounds; ++round) {
    opt::NelderMeadOptions nm;
    nm.initial_step = round == 0 ? 0.15 : 0.02;
    nm.max_evaluations = 600;
    nm.x_tolerance = 1e-5;
    const auto objective = [&](std::span<const double> x) {
      const double p = reference_power_dbm(scene, {x[0], x[1], x[2], x[3]});
      return std::isfinite(p) ? -p : 1e6;
    };
    const auto nm_result =
        opt::nelder_mead(objective, {v.tx1, v.tx2, v.rx1, v.rx2}, nm);
    result.evaluations += nm_result.evaluations;
    if (nm_result.value < 1e6) {
      v = {nm_result.params[0], nm_result.params[1], nm_result.params[2],
           nm_result.params[3]};
    }
  }
  v.tx1 = std::clamp(v.tx1, -vmax, vmax);
  v.tx2 = std::clamp(v.tx2, -vmax, vmax);
  v.rx1 = std::clamp(v.rx1, -vmax, vmax);
  v.rx2 = std::clamp(v.rx2, -vmax, vmax);

  result.voltages = v;
  result.power_dbm = reference_power_dbm(scene, v);
  ++result.evaluations;
  return result;
}

}  // namespace

AlignResult reference_align(const sim::Scene& scene, const sim::Voltages& hint,
                            const AlignerOptions& options,
                            util::ThreadPool& pool) {
  AlignResult result = align_once(scene, hint, options, pool);
  const double sensitivity = scene.config().sfp.rx_sensitivity_dbm;
  if (result.power_dbm < sensitivity) {
    AlignerOptions wide = options;
    wide.tx_scan_half_extent = std::max(options.tx_scan_half_extent, 6.0);
    wide.rx_scan_half_extent = std::max(options.rx_scan_half_extent, 6.0);
    AlignResult retry = align_once(scene, {}, wide, pool);
    retry.evaluations += result.evaluations;
    if (retry.power_dbm > result.power_dbm) result = retry;
  }
  if (result.power_dbm >= sensitivity) {
    result.status = AlignStatus::kConverged;
  } else if (!std::isfinite(result.power_dbm)) {
    result.status = AlignStatus::kDegenerateGeometry;
  } else {
    result.status = AlignStatus::kMaxIterations;
  }
  return result;
}

}  // namespace cyclops::core

namespace cyclops::opt {

Matrix reference_normal_matrix(const Matrix& a) {
  const std::size_t cols = a.cols();
  Matrix n(cols, cols);
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < cols; ++i) {
      const double aki = a(k, i);
      for (std::size_t j = i; j < cols; ++j) n(i, j) += aki * a(k, j);
    }
  }
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = i + 1; j < cols; ++j) n(j, i) = n(i, j);
  }
  return n;
}

}  // namespace cyclops::opt
