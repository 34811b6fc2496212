#include "pointing_reference.hpp"

#include <algorithm>
#include <cmath>

#include "core/mapping_calibration.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

}  // namespace

GPrimeResult reference_gprime(const GmaModel& model, const geom::Vec3& target,
                              double v1_init, double v2_init,
                              const GPrimeOptions& options) {
  GPrimeResult r;
  r.v1 = v1_init;
  r.v2 = v2_init;
  const double eps = options.probe_epsilon_volts;
  while (!r.converged && r.iterations < options.max_iterations) {
    r.iterations += 1;
    const auto ray0 = model.trace(r.v1, r.v2);
    if (!ray0) return r;  // halted: no miss-distance trace
    const geom::Plane plane{target, ray0->dir};
    const auto k0 = hit_on_plane(ray0, plane);
    const auto k1 = hit_on_plane(model.trace(r.v1 + eps, r.v2), plane);
    const auto k2 = hit_on_plane(model.trace(r.v1, r.v2 + eps), plane);
    if (!k0 || !k1 || !k2) return r;
    const geom::Vec3 u1 = (*k1 - *k0) / eps;
    const geom::Vec3 u2 = (*k2 - *k0) / eps;
    const geom::Vec3 d = target - *k0;
    const double a11 = u1.dot(u1);
    const double a12 = u1.dot(u2);
    const double a22 = u2.dot(u2);
    const double b1 = u1.dot(d);
    const double b2 = u2.dot(d);
    const double det = a11 * a22 - a12 * a12;
    if (std::abs(det) < 1e-18) return r;
    const double a = (b1 * a22 - b2 * a12) / det;
    const double b = (a11 * b2 - a12 * b1) / det;
    r.v1 += a;
    r.v2 += b;
    r.converged = std::abs(a) < options.tolerance_volts &&
                  std::abs(b) < options.tolerance_volts;
  }
  if (const auto ray = model.trace(r.v1, r.v2)) {
    r.miss_distance = geom::line_point_distance(*ray, target);
  }
  return r;
}

PointingResult reference_pointing(const GmaModel& tx_vr, const GmaModel& rx_vr,
                                  const sim::Voltages& hint,
                                  const PointingOptions& options) {
  PointingResult result;
  sim::Voltages v = hint;
  result.voltages = v;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const auto ray_t = tx_vr.trace(v.tx1, v.tx2);
    const auto ray_r = rx_vr.trace(v.rx1, v.rx2);
    if (!ray_t || !ray_r) return result;
    const GPrimeResult tx = reference_gprime(tx_vr, ray_r->origin, v.tx1,
                                             v.tx2, options.gprime);
    const GPrimeResult rx = reference_gprime(rx_vr, ray_t->origin, v.rx1,
                                             v.rx2, options.gprime);
    if (!tx.converged || !rx.converged) return result;
    const double delta =
        std::max({std::abs(tx.v1 - v.tx1), std::abs(tx.v2 - v.tx2),
                  std::abs(rx.v1 - v.rx1), std::abs(rx.v2 - v.rx2)});
    v = {tx.v1, tx.v2, rx.v1, rx.v2};
    result.voltages = v;
    if (delta < options.tolerance_volts) {
      result.converged = true;
      break;
    }
  }
  result.voltages = v;
  const LemmaPoints pts = lemma_points(tx_vr, rx_vr, v);
  result.model_residual_m = pts.valid ? pts.coincidence_error() : 1.0;
  return result;
}

}  // namespace cyclops::core
