#include "opt/levmar.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "opt/linalg.hpp"

namespace cyclops::opt {
namespace {

double cost_of(std::span<const double> residuals) {
  double c = 0.0;
  for (double r : residuals) c += r * r;
  return c;
}

}  // namespace

void numeric_jacobian(const ProbeFn& probe, std::span<const double> params,
                      double epsilon, std::size_t residual_count,
                      Matrix& jacobian_t, JacobianScratch& scratch,
                      util::ThreadPool& pool) {
  const std::size_t m = residual_count;
  const std::size_t n = params.size();
  if (jacobian_t.rows() != n || jacobian_t.cols() != m) {
    jacobian_t = Matrix(n, m);
  }
  // A buffer set per column when the pool fans the columns out; inline,
  // the columns run one after another and share one set.
  const bool fanned = !pool.runs_inline();
  const std::size_t sets = fanned ? n : 1;
  if (scratch.buffers.size() < sets) scratch.buffers.resize(sets);
  // One column per chunk, dealt by the pool's dispenser last column first:
  // Stage 1's dearest column, θ1, is its last, and its cheapest (p0, x0)
  // its first, so no executor idles behind a long column at the end.
  // Column j perturbs its own parameter copy into its own residual
  // buffers and writes only row j of J^T, with the serial loop's
  // arithmetic, so the result is independent of which executor runs it
  // and when.
  pool.run_chunked(n, n, [&](std::size_t c, std::size_t, std::size_t) {
    const std::size_t j = n - 1 - c;
    JacobianScratch::Buffers& buffers = scratch.buffers[fanned ? j : 0];
    std::vector<double>& p = buffers.params;
    p.assign(params.begin(), params.end());
    // Scale the step with the parameter magnitude for conditioning.
    const double h = epsilon * std::max(1.0, std::abs(p[j]));
    const double saved = p[j];
    p[j] = saved + h;
    probe(j, p, buffers.r_plus);
    p[j] = saved - h;
    probe(j, p, buffers.r_minus);
    for (std::size_t i = 0; i < m; ++i) {
      jacobian_t(j, i) = (buffers.r_plus[i] - buffers.r_minus[i]) / (2.0 * h);
    }
  });
}

void numeric_jacobian(const ResidualFn& fn, std::span<const double> params,
                      double epsilon, std::size_t residual_count,
                      Matrix& jacobian_t, JacobianScratch& scratch,
                      util::ThreadPool& pool) {
  numeric_jacobian(
      [&fn](std::size_t, std::span<const double> p, std::vector<double>& r) {
        fn(p, r);
      },
      params, epsilon, residual_count, jacobian_t, scratch, pool);
}

LmStepper::LmStepper(ResidualFn fn, std::vector<double> initial_guess,
                     const LevMarOptions& options, const runtime::Context& ctx,
                     ProbeFactory probes)
    : fn_(std::move(fn)),
      probes_(std::move(probes)),
      options_(options),
      ctx_(&ctx),
      params_(std::move(initial_guess)),
      lambda_(options.initial_lambda) {
  init_residuals();
  initial_cost_ = cost_;
}

LmStepper::LmStepper(ResidualFn fn, const LmCheckpoint& checkpoint,
                     const LevMarOptions& options, const runtime::Context& ctx,
                     ProbeFactory probes)
    : fn_(std::move(fn)),
      probes_(std::move(probes)),
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
  util::ThreadPool& pool = ctx_->pool();
  if (probes_) {
    numeric_jacobian(probes_(params_), params_, options_.jacobian_epsilon,
                     residuals_.size(), jac_t_, scratch_, pool);
  } else {
    numeric_jacobian(fn_, params_, options_.jacobian_epsilon,
                     residuals_.size(), jac_t_, scratch_, pool);
  }
  normal_equations(jac_t_, residuals_, jtj_, jtr_, pool);

  bool stepped = false;
  // Inner damping loop: grow lambda until a cost-reducing step is found.
  for (int attempt = 0; attempt < 30; ++attempt) {
    damped_ = jtj_;
    for (std::size_t d = 0; d < damped_.rows(); ++d) {
      damped_(d, d) += lambda_ * std::max(jtj_(d, d), 1e-12);
    }
    if (!solve_spd(damped_, jtr_, step_)) {
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
      params_.swap(candidate_);
      residuals_.swap(cand_residuals_);
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
                                 const runtime::Context& ctx,
                                 ProbeFactory probes) {
  const auto t0 = std::chrono::steady_clock::now();
  LmStepper stepper(fn, std::move(initial_guess), options, ctx,
                    std::move(probes));
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
  registry.counter("lm_solves_total").inc();
  obs::Counter& converged = registry.counter("lm_converged_total");
  if (result.converged) converged.inc();
  registry
      .histogram("lm_iterations", obs::HistogramSpec::linear(-0.5, 1.0, 64))
      .record(static_cast<double>(result.iterations));
  registry.histogram("lm_solve_wall_us", obs::HistogramSpec::duration_us())
      .record(wall_us);
}

}  // namespace cyclops::opt
