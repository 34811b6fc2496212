#include "core/exhaustive_aligner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/thread_pool.hpp"

namespace cyclops::core {
namespace {

/// Coarse 2-D raster over one GMA's voltages (a, b) around a center,
/// scoring each output ray in `gma`'s parent frame with `score` (higher is
/// better).  Returns the best (a, b).
///
/// a drives mirror 1 and b mirror 2, so each row's first leg and each
/// column's mirror-2 plane are traced once per raster; a point only
/// reflects off mirror 2 and is mounted, bit-identical to a whole
/// trace_parent(a, b).  Rows are scored in parallel and reduced in row
/// order with the same strict `>` the serial scan used, so the winner is
/// still the first maximum in row-major order — bit-identical at any
/// thread count.  The grid values themselves come from the same
/// sequential `+= step` accumulation as the serial loop.
template <typename ScoreFn>
std::pair<double, double> raster(const galvo::GmaPhysical& gma, double a0,
                                 double b0, double half_extent, double step,
                                 int& evals, const ScoreFn& score,
                                 util::ThreadPool& pool) {
  std::vector<double> as, bs;
  for (double a = a0 - half_extent; a <= a0 + half_extent; a += step) {
    as.push_back(a);
  }
  for (double b = b0 - half_extent; b <= b0 + half_extent; b += step) {
    bs.push_back(b);
  }
  const galvo::GalvoMirror& galvo = gma.galvo();
  std::vector<geom::Plane> mirror2;
  mirror2.reserve(bs.size());
  for (double b : bs) mirror2.push_back(galvo.mirror2_plane(b));

  double best = score(gma.trace_parent(a0, b0));
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
        const auto first = galvo.first_leg(as[i]);
        RowBest row;
        for (std::size_t j = 0; j < bs.size(); ++j) {
          const double s = score(gma.trace_parent(first, bs[j], mirror2[j]));
          if (s > row.score) {
            row.score = s;
            row.b = bs[j];
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

}  // namespace

const char* to_string(AlignStatus status) noexcept {
  switch (status) {
    case AlignStatus::kConverged:
      return "converged";
    case AlignStatus::kMaxIterations:
      return "max-iterations";
    case AlignStatus::kDegenerateGeometry:
      return "degenerate-geometry";
  }
  return "unknown";
}

AlignResult ExhaustiveAligner::align(const sim::Scene& scene,
                                     const sim::Voltages& hint) const {
  AlignResult result = align_once(scene, hint, options_);
  const double sensitivity = scene.config().sfp.rx_sensitivity_dbm;
  if (result.power_dbm < sensitivity) {
    // The hint led the search into a dead corner: redo from scratch with a
    // wider sweep (the lab equivalent: start the scan over).
    AlignerOptions wide = options_;
    wide.tx_scan_half_extent = std::max(options_.tx_scan_half_extent, 6.0);
    wide.rx_scan_half_extent = std::max(options_.rx_scan_half_extent, 6.0);
    AlignResult retry = align_once(scene, {}, wide);
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

AlignResult ExhaustiveAligner::align_once(
    const sim::Scene& scene, const sim::Voltages& hint,
    const AlignerOptions& options) const {
  AlignResult result;
  sim::Voltages v = hint;
  const double vmax = scene.tx().galvo().spec().max_voltage;
  const auto clamp_all = [&](sim::Voltages& vv) {
    vv.tx1 = std::clamp(vv.tx1, -vmax, vmax);
    vv.tx2 = std::clamp(vv.tx2, -vmax, vmax);
    vv.rx1 = std::clamp(vv.rx1, -vmax, vmax);
    vv.rx2 = std::clamp(vv.rx2, -vmax, vmax);
  };

  // Phase A: sweep the TX beam until the quad photodiodes see light.
  const optics::BeamSpec& beam_spec = scene.config().design.beam;
  const auto diode_sum = [&](const std::optional<geom::Ray>& tx_ray) {
    if (!tx_ray) return 0.0;
    return scene.photodiodes(optics::launch_beam(*tx_ray, beam_spec)).sum();
  };
  std::tie(v.tx1, v.tx2) =
      raster(scene.tx(), v.tx1, v.tx2, options.tx_scan_half_extent,
             options.tx_scan_step, result.evaluations, diode_sum, *pool_);

  // Phase B: sweep the RX GM until fiber power appears.  The TX holds
  // still, so its beam is traced once for the whole raster.
  const auto tx_beam = scene.emit(v.tx1, v.tx2);
  const auto fiber_power_rx = [&](const std::optional<geom::Ray>& rx_ray) {
    return scene.couple(tx_beam, rx_ray).power.rx_power_dbm;
  };
  std::tie(v.rx1, v.rx2) =
      raster(scene.rx_world(), v.rx1, v.rx2, options.rx_scan_half_extent,
             options.rx_scan_step, result.evaluations, fiber_power_rx, *pool_);

  // Phase C: joint polish — a 4-D Nelder-Mead on received power.
  for (int round = 0; round < options.refine_rounds; ++round) {
    opt::NelderMeadOptions nm;
    nm.initial_step = round == 0 ? 0.15 : 0.02;
    nm.max_evaluations = 600;
    nm.x_tolerance = 1e-5;
    const auto objective = [&](std::span<const double> x) {
      sim::Voltages probe{x[0], x[1], x[2], x[3]};
      const double p = scene.received_power_dbm(probe);
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
  clamp_all(v);

  result.voltages = v;
  result.power_dbm = scene.received_power_dbm(v);
  ++result.evaluations;
  return result;
}

}  // namespace cyclops::core
