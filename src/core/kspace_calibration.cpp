#include "core/kspace_calibration.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>

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

/// The base traces the last Stage-1 residual pass left, keyed bit for bit
/// by the parameters it traced.  A pass traces into a vector no probe
/// holds (the one kept here when nothing else holds it, else a new one)
/// and then publishes it, so no probe sees its traces change.
struct LastTraces {
  std::mutex mu;
  std::vector<double> params;
  std::shared_ptr<std::vector<BaseTrace>> traces;
};

bool same_point(std::span<const double> a, std::span<const double> b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

/// The Stage-1 residuals at `params`, two per board sample, each the
/// second leg off the sample's BaseTrace, which `last` then keeps.  The
/// samples fan out over `pool`, each writing only its own two residuals
/// and its own trace.
void kspace_residuals(const std::vector<BoardSample>& samples,
                      util::ThreadPool& pool, LastTraces& last,
                      std::span<const double> params,
                      std::vector<double>& residuals) {
  const GmaModel model = model_at(params);
  residuals.resize(samples.size() * 2);
  std::shared_ptr<std::vector<BaseTrace>> traces;
  {
    // Only `last` hands out copies, so a count of one is final here; the
    // fence orders the last holder's reads before this pass's writes.
    const std::lock_guard<std::mutex> lock(last.mu);
    if (last.traces.use_count() == 1) {
      std::atomic_thread_fence(std::memory_order_acquire);
      traces = std::move(last.traces);
    }
  }
  if (!traces) traces = std::make_shared<std::vector<BaseTrace>>();
  traces->resize(samples.size());
  const geom::Vec3& q2 = model.params().q2;
  util::parallel_for(
      samples.size(),
      [&](std::size_t s) {
        BaseTrace& at = (*traces)[s];
        trace_base(model, samples[s].v1, samples[s].v2, at);
        board_residuals(model.second_leg(at.first_leg, {q2, at.n2}, at.unit2),
                        samples[s], &residuals[2 * s]);
      },
      pool);
  const std::lock_guard<std::mutex> lock(last.mu);
  last.params.assign(params.begin(), params.end());
  last.traces = std::move(traces);
}

/// The Stage-1 Jacobian probes at `at`: a probe of column j re-traces only
/// what GalvoParams field j moves (probe_trace) on the base model with
/// that field moved, reusing the rest from the samples traced at `at`.
/// Those are the last residual pass's traces when it traced `at` (the
/// candidate LM accepted); otherwise the samples are traced here, fanned
/// out over `pool`, one slot per sample.
opt::ProbeFn kspace_probes(const std::vector<BoardSample>& samples,
                           util::ThreadPool& pool, LastTraces& last,
                           std::span<const double> at) {
  GmaModel model = model_at(at);
  std::shared_ptr<const std::vector<BaseTrace>> traces;
  {
    const std::lock_guard<std::mutex> lock(last.mu);
    if (last.traces && same_point(last.params, at)) traces = last.traces;
  }
  if (!traces) {
    auto own = std::make_shared<std::vector<BaseTrace>>(samples.size());
    util::parallel_for(
        samples.size(),
        [&](std::size_t s) {
          trace_base(model, samples[s].v1, samples[s].v2, (*own)[s]);
        },
        pool);
    traces = std::move(own);
  }
  return [&samples, model = std::move(model), traces = std::move(traces)](
             std::size_t column, std::span<const double> params,
             std::vector<double>& residuals) {
    const GmaModel probe = model.with_field(column, params);
    residuals.resize(samples.size() * 2);
    dispatch_field(column, [&](auto field) {
      constexpr std::size_t kField = decltype(field)::value;
      for (std::size_t s = 0; s < samples.size(); ++s) {
        board_residuals(probe_trace<kField>(probe, (*traces)[s], samples[s]),
                        samples[s], &residuals[2 * s]);
      }
    });
  };
}

}  // namespace

void trace_base(const GmaModel& model, double v1, double v2, BaseTrace& at) {
  const galvo::GalvoGeometry& geometry = model.geometry();
  at.a1 = geometry.angle(v1);
  at.a2 = geometry.angle(v2);
  at.rot1 = geometry.rotation1(at.a1);
  at.rot2 = geometry.rotation2(at.a2);
  const geom::Plane mirror1 = geometry.mirror1_plane(at.rot1);
  at.n1 = mirror1.normal;
  at.n2 = geometry.mirror2_plane(at.rot2).normal;
  at.unit1 = at.n1.normalized();
  at.unit2 = at.n2.normalized();
  at.first_leg = model.first_leg(mirror1, at.unit1);
}

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
  const auto last = std::make_shared<LastTraces>();
  problem.residuals = [&samples, &pool, last](std::span<const double> params,
                                              std::vector<double>& residuals) {
    kspace_residuals(samples, pool, *last, params, residuals);
  };
  problem.probes = [&samples, &pool, last](std::span<const double> at) {
    return kspace_probes(samples, pool, *last, at);
  };
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
