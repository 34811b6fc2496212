#include "core/gprime.hpp"

#include <cmath>

#include "geom/ray.hpp"
#include "obs/registry.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const std::optional<geom::Ray>& ray,
                                       const geom::Plane& plane) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// Records G' convergence tallies through the solver's hoisted handles on
/// every exit path.
struct GPrimeRecorder {
  const GPrimeResult& result;
  obs::Counter* solves;
  obs::Counter* converged;
  obs::Histogram* iterations;

  ~GPrimeRecorder() {
    solves->inc();
    if (result.converged) converged->inc();
    iterations->record(static_cast<double>(result.iterations));
  }
};

}  // namespace

GPrimeSolver::GPrimeSolver(GPrimeOptions options, const runtime::Context& ctx)
    : options_(options) {
  obs::Registry& registry = ctx.registry();
  solves_ = &registry.counter("gprime_solves_total");
  converged_ = &registry.counter("gprime_converged_total");
  iterations_ = &registry.histogram(
      "gprime_iterations", obs::HistogramSpec::linear(-0.5, 1.0, 16));
}

GPrimeResult GPrimeSolver::solve(const GmaModel& model,
                                 const geom::Vec3& target, double v1_init,
                                 double v2_init) const {
  SplitTrace at = model.split_trace(v1_init, v2_init);
  return solve(model, target, v1_init, v2_init, at);
}

GPrimeResult GPrimeSolver::solve(const GmaModel& model,
                                 const geom::Vec3& target, double v1_init,
                                 double v2_init, SplitTrace& at) const {
  GPrimeResult result;
  result.v1 = v1_init;
  result.v2 = v2_init;
  const GPrimeRecorder recorder{result, solves_, converged_, iterations_};
  const double eps = options_.probe_epsilon_volts;

  while (!result.converged && result.iterations < options_.max_iterations) {
    result.iterations += 1;
    // Degenerate geometry halts the solve without a miss distance.
    if (!at.ray) return result;
    // Plane P: perpendicular to the current beam, through the target.
    const geom::Plane plane{target, at.ray->dir};

    const auto k0 = hit_on_plane(at.ray, plane);
    const auto k1 = hit_on_plane(
        model.second_leg(model.first_leg(result.v1 + eps), at.mirror2), plane);
    const auto k2 = hit_on_plane(
        model.second_leg(at.first_leg, model.mirror2_plane(result.v2 + eps)),
        plane);
    if (!k0 || !k1 || !k2) return result;

    // Per-volt motion of the hit point on P.
    const geom::Vec3 u1 = (*k1 - *k0) / eps;
    const geom::Vec3 u2 = (*k2 - *k0) / eps;
    const geom::Vec3 d = target - *k0;

    // Least-squares solve a*u1 + b*u2 = d (2x2 normal equations).
    const double a11 = u1.dot(u1);
    const double a12 = u1.dot(u2);
    const double a22 = u2.dot(u2);
    const double b1 = u1.dot(d);
    const double b2 = u2.dot(d);
    const double det = a11 * a22 - a12 * a12;
    if (std::abs(det) < 1e-18) return result;
    const double a = (b1 * a22 - b2 * a12) / det;
    const double b = (a11 * b2 - a12 * b1) / det;

    result.v1 += a;
    result.v2 += b;
    at = model.split_trace(result.v1, result.v2);
    result.converged = std::abs(a) < options_.tolerance_volts &&
                       std::abs(b) < options_.tolerance_volts;
  }
  if (at.ray) result.miss_distance = geom::line_point_distance(*at.ray, target);
  return result;
}

}  // namespace cyclops::core
