// Ablation: learn the reverse function G' *directly* from samples —
// the approach the paper tried and rejected (footnote 3: "even several
// hundred training samples yielded an error of a few cms").
//
// We fit a quadratic polynomial regression (target point -> voltages) on
// N aligned samples and compare its pointing error against the
// model-based G' iteration, for several N.
#include <cstdio>

#include "bench_common.hpp"
#include "core/gprime.hpp"
#include "opt/linalg.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

/// Quadratic features of a 3-D target point: 1, x, y, z, x^2, ..., yz.
std::vector<double> features(const geom::Vec3& p) {
  return {1.0,       p.x,       p.y,       p.z,       p.x * p.x,
          p.y * p.y, p.z * p.z, p.x * p.y, p.x * p.z, p.y * p.z};
}

/// Least-squares fit of one voltage channel against the features.  The
/// design matrix A is built transposed (one row per feature), the layout
/// opt::normal_equations reads.
std::vector<double> fit_channel(const std::vector<std::vector<double>>& xs,
                                const std::vector<double>& ys,
                                util::ThreadPool& pool) {
  const std::size_t n = xs.size();
  const std::size_t k = xs.front().size();
  opt::Matrix at(k, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) at(j, i) = xs[i][j];
  opt::Matrix ata;
  std::vector<double> atb;
  opt::normal_equations(at, ys, ata, atb, pool);
  for (std::size_t d = 0; d < k; ++d) ata(d, d) += 1e-9;  // ridge
  std::vector<double> w;
  opt::solve_spd(ata, atb, w);
  return w;
}

double predict(const std::vector<double>& w, const std::vector<double>& f) {
  double s = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) s += w[i] * f[i];
  return s;
}

}  // namespace

int main() {
  std::printf("== Ablation: direct regression of G' vs the model-based "
              "iteration (paper footnote 3) ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);
  const core::PointingSolver solver = rig.calib.make_pointing_solver({}, ctx);
  const core::GmaModel& tx = solver.tx_vr();
  const core::GPrimeSolver gprime({}, ctx);

  // Ground-truth sample factory: (target, voltages) pairs from the
  // physical model, like collecting aligned samples in the lab.
  util::Rng rng(3);
  const auto sample_at = [&](util::Rng& r) {
    const auto boresight = tx.trace(0.0, 0.0);
    const geom::Vec3 target = boresight->at(r.uniform(1.3, 2.2)) +
                              geom::Vec3{r.uniform(-0.3, 0.3),
                                         r.uniform(-0.3, 0.3),
                                         r.uniform(-0.1, 0.1)};
    const core::GPrimeResult g = gprime.solve(tx, target);
    return std::pair{target, g};
  };

  std::printf("training_samples, direct_err_mm_avg, direct_err_mm_max, "
              "model_based_err_mm_avg\n");
  for (int n_train : {50, 100, 200, 400, 800}) {
    std::vector<std::vector<double>> xs;
    std::vector<double> y1, y2;
    for (int i = 0; i < n_train; ++i) {
      const auto [target, g] = sample_at(rng);
      if (!g.converged) continue;
      xs.push_back(features(target));
      y1.push_back(g.v1);
      y2.push_back(g.v2);
    }
    const auto w1 = fit_channel(xs, y1, ctx.pool());
    const auto w2 = fit_channel(xs, y2, ctx.pool());

    util::RunningStats direct_err, model_err;
    util::Rng test_rng(777);
    for (int i = 0; i < 200; ++i) {
      const auto [target, g] = sample_at(test_rng);
      if (!g.converged) continue;
      // Direct regression prediction.
      const auto f = features(target);
      const auto ray =
          tx.trace(predict(w1, f), predict(w2, f));
      if (ray) direct_err.add(geom::line_point_distance(*ray, target));
      // Model-based G'.
      model_err.add(g.miss_distance);
    }
    std::printf("%d, %.2f, %.2f, %.4f\n", n_train,
                util::m_to_mm(direct_err.mean()),
                util::m_to_mm(direct_err.max()),
                util::m_to_mm(model_err.mean()));
  }

  std::printf("\nexpectation: direct regression stalls at many-mm-to-cm "
              "error while the model-based inversion is sub-mm — why the "
              "paper learns G and inverts it computationally.\n");
  return 0;
}
