#include "opt/levmar.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/config.hpp"
#include "opt/linalg.hpp"

namespace cyclops::opt {
namespace {

double cost_of(std::span<const double> residuals) {
  double c = 0.0;
  for (double r : residuals) c += r * r;
  return c;
}

}  // namespace

void numeric_jacobian(const ResidualFn& fn, std::span<const double> params,
                      double epsilon, std::size_t residual_count,
                      Matrix& jacobian, JacobianScratch& scratch,
                      util::ThreadPool& pool) {
  const std::size_t m = residual_count;
  const std::size_t n = params.size();
  if (jacobian.rows() != m || jacobian.cols() != n) jacobian = Matrix(m, n);
  const std::size_t max_chunks = pool.thread_count();
  if (scratch.params.size() < max_chunks) {
    scratch.params.resize(max_chunks);
    scratch.r_plus.resize(max_chunks);
    scratch.r_minus.resize(max_chunks);
  }
  // Each chunk perturbs its own parameter copy and fills disjoint columns
  // of the (pre-sized) Jacobian; per-column arithmetic is exactly the
  // serial loop's, so the result is independent of the chunking.
  pool.run_chunked(n, [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    std::vector<double>& p = scratch.params[chunk];
    std::vector<double>& r_plus = scratch.r_plus[chunk];
    std::vector<double>& r_minus = scratch.r_minus[chunk];
    p.assign(params.begin(), params.end());
    for (std::size_t j = begin; j < end; ++j) {
      // Scale the step with the parameter magnitude for conditioning.
      const double h = epsilon * std::max(1.0, std::abs(p[j]));
      const double saved = p[j];
      p[j] = saved + h;
      fn(p, r_plus);
      p[j] = saved - h;
      fn(p, r_minus);
      p[j] = saved;
      for (std::size_t i = 0; i < m; ++i) {
        jacobian(i, j) = (r_plus[i] - r_minus[i]) / (2.0 * h);
      }
    }
  });
}

LmStepper::LmStepper(ResidualFn fn, std::vector<double> initial_guess,
                     const LevMarOptions& options, const runtime::Context& ctx)
    : fn_(std::move(fn)),
      options_(options),
      ctx_(&ctx),
      params_(std::move(initial_guess)),
      lambda_(options.initial_lambda) {
  init_residuals();
  initial_cost_ = cost_;
}

LmStepper::LmStepper(ResidualFn fn, const LmCheckpoint& checkpoint,
                     const LevMarOptions& options, const runtime::Context& ctx)
    : fn_(std::move(fn)),
      options_(options),
      ctx_(&ctx),
      params_(checkpoint.params),
      initial_cost_(checkpoint.initial_cost),
      lambda_(checkpoint.lambda),
      iterations_(checkpoint.iterations),
      converged_(checkpoint.converged) {
  // The checkpoint carries no residuals: they are a pure function of the
  // parameters, so recomputing yields the exact vector the interrupted
  // solve held — the continuation stays bit-identical.
  init_residuals();
}

void LmStepper::init_residuals() {
  fn_(params_, residuals_);
  cost_ = cost_of(residuals_);
}

bool LmStepper::step() {
  if (done()) return false;
  // One outer iteration of the historical one-shot loop, verbatim.
  iterations_ += 1;
  numeric_jacobian(fn_, params_, options_.jacobian_epsilon, residuals_.size(),
                   jac_, scratch_, ctx_->pool());
  Matrix jtj = normal_matrix(jac_);
  std::vector<double> jtr = transpose_times(jac_, residuals_);

  bool stepped = false;
  // Inner damping loop: grow lambda until a cost-reducing step is found.
  for (int attempt = 0; attempt < 30; ++attempt) {
    Matrix damped = jtj;
    for (std::size_t d = 0; d < damped.rows(); ++d) {
      damped(d, d) += lambda_ * std::max(jtj(d, d), 1e-12);
    }
    if (!solve_spd(damped, jtr, step_)) {
      lambda_ *= options_.lambda_up;
      continue;
    }
    candidate_ = params_;
    double step_norm = 0.0;
    for (std::size_t j = 0; j < params_.size(); ++j) {
      candidate_[j] -= step_[j];
      step_norm = std::max(step_norm, std::abs(step_[j]));
    }
    fn_(candidate_, cand_residuals_);
    const double cand_cost = cost_of(cand_residuals_);
    if (cand_cost < cost_) {
      const double improvement =
          (cost_ - cand_cost) / std::max(cost_, 1e-300);
      params_ = candidate_;
      residuals_ = cand_residuals_;
      cost_ = cand_cost;
      lambda_ = std::max(lambda_ * options_.lambda_down, 1e-12);
      stepped = true;
      if (improvement < options_.cost_tolerance ||
          step_norm < options_.step_tolerance) {
        converged_ = true;
      }
      break;
    }
    lambda_ *= options_.lambda_up;
  }
  if (!stepped) {
    // No downhill step found: treat as converged at a (local) minimum.
    converged_ = true;
  }
  return !done();
}

LmCheckpoint LmStepper::checkpoint() const {
  return {params_, lambda_, initial_cost_, iterations_, converged_};
}

LevMarResult LmStepper::result() const {
  LevMarResult result;
  result.params = params_;
  result.initial_cost = initial_cost_;
  result.final_cost = cost_;
  result.iterations = iterations_;
  result.converged = converged_;
  return result;
}

LevMarResult levenberg_marquardt(const ResidualFn& fn,
                                 std::vector<double> initial_guess,
                                 const LevMarOptions& options,
                                 const runtime::Context& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  LmStepper stepper(fn, std::move(initial_guess), options, ctx);
  while (stepper.step()) {
  }
  LevMarResult result = stepper.result();
  record_lm_solve(ctx.registry(), result,
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
  return result;
}

void record_lm_solve(obs::Registry& registry, const LevMarResult& result,
                     double wall_us) {
  if constexpr (obs::kEnabled) {
    registry.counter("lm_solves_total").inc();
    obs::Counter& converged = registry.counter("lm_converged_total");
    if (result.converged) converged.inc();
    registry
        .histogram("lm_iterations", obs::HistogramSpec::linear(-0.5, 1.0, 64))
        .record(static_cast<double>(result.iterations));
    registry.histogram("lm_solve_wall_us", obs::HistogramSpec::duration_us())
        .record(wall_us);
  }
}

}  // namespace cyclops::opt
