#include "core/kspace_calibration.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "galvo/factory.hpp"
#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

const geom::Plane kBoardPlane{{0, 0, 0}, {0, 0, 1}};

std::optional<geom::Vec3> board_hit(const std::optional<geom::Ray>& ray) {
  if (!ray) return std::nullopt;
  const auto t = geom::intersect(*ray, kBoardPlane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray->at(*t);
}

/// One sample's two residuals from its traced ray: the board hit's offset
/// from the grid point, or 1 m on both axes for a degenerate trace.
void board_residuals(const std::optional<geom::Ray>& ray,
                     const BoardSample& sample, double* out) {
  const auto hit = board_hit(ray);
  out[0] = hit ? hit->x - sample.x : 1.0;
  out[1] = hit ? hit->y - sample.y : 1.0;
}

GmaModel model_at(std::span<const double> params) {
  std::array<double, galvo::GalvoParams::kParamCount> packed{};
  std::copy(params.begin(), params.end(), packed.begin());
  return GmaModel(galvo::GalvoParams::unpack(packed));
}

/// The Stage-1 residuals at `params`, two per board sample.  The samples
/// fan out over `pool`, each writing only its own two residuals.
void kspace_residuals(const std::vector<BoardSample>& samples,
                      util::ThreadPool& pool, std::span<const double> params,
                      std::vector<double>& residuals) {
  const GmaModel model = model_at(params);
  residuals.resize(samples.size() * 2);
  util::parallel_for(
      samples.size(),
      [&](std::size_t s) {
        board_residuals(model.trace(samples[s].v1, samples[s].v2), samples[s],
                        &residuals[2 * s]);
      },
      pool);
}

/// One sample traced at a Jacobian's base point: both mirror angles with
/// their cos and sin, both rotated mirror normals, and the first leg.
struct BaseTrace {
  geom::AngleTrig a1, a2;
  geom::Vec3 n1, n2;
  std::optional<geom::Ray> first_leg;
};

/// The Stage-1 Jacobian probes at `base`: a probe of column j re-traces,
/// through the model's own split trace, only what GalvoParams field j
/// moves, and reuses the base point's parts, which a full trace at the
/// probe would recompute to the bit, for the rest.  The base traces fan
/// out over `pool`, one slot per sample.
opt::ProbeFn kspace_probes(const std::vector<BoardSample>& samples,
                           util::ThreadPool& pool,
                           std::span<const double> base) {
  const GmaModel model = model_at(base);
  const galvo::GalvoGeometry& geometry = model.geometry();
  std::vector<BaseTrace> traces = util::parallel_map<BaseTrace>(
      samples.size(),
      [&](std::size_t s) {
        const geom::AngleTrig a1 = geometry.angle(samples[s].v1);
        const geom::AngleTrig a2 = geometry.angle(samples[s].v2);
        const geom::Plane mirror1 = geometry.mirror1_plane(a1);
        return BaseTrace{a1, a2, mirror1.normal,
                         geometry.mirror2_plane(a2).normal,
                         model.first_leg(mirror1)};
      },
      pool);
  return [&samples, &pool, traces = std::move(traces)](
             std::size_t column, std::span<const double> params,
             std::vector<double>& residuals) {
    using P = galvo::GalvoParams;
    const std::size_t field = column - column % 3;  // Vec3 fields span 3.
    if (field == P::kTheta1) {
      // Probes run inside the Jacobian's pool job, so this runs inline.
      return kspace_residuals(samples, pool, params, residuals);
    }
    const GmaModel model = model_at(params);
    const galvo::GalvoGeometry& geometry = model.geometry();
    const geom::Vec3 &q1 = model.params().q1, &q2 = model.params().q2;
    residuals.resize(samples.size() * 2);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const BaseTrace& at = traces[s];
      std::optional<geom::Ray> ray;
      switch (field) {
        case P::kN1:
        case P::kR1:  // The mirror-1 normal, then both legs.
          ray = model.second_leg(model.first_leg(geometry.mirror1_plane(at.a1)),
                                 {q2, at.n2});
          break;
        case P::kN2:
        case P::kR2:  // The mirror-2 normal, then the second leg.
          ray = model.second_leg(at.first_leg, geometry.mirror2_plane(at.a2));
          break;
        case P::kQ2:  // The second leg.
          ray = model.second_leg(at.first_leg, {q2, at.n2});
          break;
        default:  // p0, x0, q1: both legs.
          ray = model.second_leg(model.first_leg({q1, at.n1}), {q2, at.n2});
      }
      board_residuals(ray, samples[s], &residuals[2 * s]);
    }
  };
}

}  // namespace

BoardSampleCollector::BoardSampleCollector(
    const galvo::GalvoMirror& physical_galvo, const geom::Pose& k_from_gma,
    const BoardConfig& config, const runtime::Context& ctx)
    // The physical unit, as a geometric model in the board (K) frame.  This
    // stands in for the experimenter's closed visual loop: they can steer
    // the real beam onto a real grid point without knowing any parameters.
    : galvo_(&physical_galvo),
      truth_in_k_(GmaModel(physical_galvo.params()).transformed(k_from_gma)),
      config_(config),
      solver_(GPrimeOptions{}, ctx) {
  // A board with no interior columns has no grid points at all (the
  // one-shot loop's inner `for j` never runs): start done.
  if (config_.cells_y <= 1) state_.i = config_.cells_x;
}

bool BoardSampleCollector::step(util::Rng& rng) {
  if (done()) return false;
  const int i = state_.i;
  const int j = state_.j;
  const double gx = (i - config_.cells_x / 2.0) * config_.cell_size;
  const double gy = (j - config_.cells_y / 2.0) * config_.cell_size;
  // The beam lands within hand-alignment accuracy of the grid point.
  const geom::Vec3 achieved{gx + rng.normal(0.0, config_.alignment_sigma),
                            gy + rng.normal(0.0, config_.alignment_sigma),
                            0.0};
  const auto result =
      solver_.solve(truth_in_k_, achieved, state_.v1, state_.v2);
  const bool usable = result.converged &&
                      galvo_->voltage_in_range(result.v1) &&
                      galvo_->voltage_in_range(result.v2);
  if (usable) {
    state_.v1 = result.v1;
    state_.v2 = result.v2;
    samples_.push_back({gx, gy, state_.v1, state_.v2});
  }
  // Advance the grid cursor in the one-shot loop's (i, j) order.
  if (++state_.j >= config_.cells_y) {
    state_.j = 1;
    ++state_.i;
  }
  return !done();
}

std::vector<BoardSample> collect_board_samples(
    const galvo::GalvoMirror& physical_galvo, const geom::Pose& k_from_gma,
    const BoardConfig& config, util::Rng& rng, const runtime::Context& ctx) {
  BoardSampleCollector collector(physical_galvo, k_from_gma, config, ctx);
  while (collector.step(rng)) {
  }
  return collector.take_samples();
}

double board_error(const GmaModel& model, const BoardSample& sample) {
  const auto hit = board_hit(model.trace(sample.v1, sample.v2));
  if (!hit) return 1.0;  // 1 m penalty for a degenerate trace
  const double dx = hit->x - sample.x;
  const double dy = hit->y - sample.y;
  return std::sqrt(dx * dx + dy * dy);
}

KSpaceFitProblem make_kspace_problem(const std::vector<BoardSample>& samples,
                                     const GmaModel& initial_guess,
                                     util::ThreadPool& pool) {
  KSpaceFitProblem problem;
  problem.residuals =
      std::bind_front(kspace_residuals, std::cref(samples), std::ref(pool));
  problem.probes =
      std::bind_front(kspace_probes, std::cref(samples), std::ref(pool));
  const auto packed = initial_guess.params().pack();
  problem.initial.assign(packed.begin(), packed.end());
  return problem;
}

KSpaceFitReport finish_kspace_fit(const std::vector<BoardSample>& samples,
                                  const opt::LevMarResult& fit) {
  KSpaceFitReport report{model_at(fit.params), 0.0, 0.0, fit.iterations,
                         fit.converged};
  for (const auto& s : samples) {
    const double e = board_error(report.model, s);
    report.avg_error_m += e;
    report.max_error_m = std::max(report.max_error_m, e);
  }
  if (!samples.empty()) {
    report.avg_error_m /= static_cast<double>(samples.size());
  }
  return report;
}

KSpaceFitReport fit_kspace_model(const std::vector<BoardSample>& samples,
                                 const GmaModel& initial_guess,
                                 const opt::LevMarOptions& options,
                                 const runtime::Context& ctx) {
  const KSpaceFitProblem problem =
      make_kspace_problem(samples, initial_guess, ctx.pool());
  const auto fit = opt::levenberg_marquardt(problem.residuals, problem.initial,
                                            options, ctx, problem.probes);
  return finish_kspace_fit(samples, fit);
}

GmaModel nominal_kspace_guess(double board_distance) {
  const geom::Pose nominal_mount{geom::Mat3::identity(),
                                 {0.0, 0.0, board_distance}};
  return GmaModel(galvo::nominal_params()).transformed(nominal_mount);
}

}  // namespace cyclops::core
