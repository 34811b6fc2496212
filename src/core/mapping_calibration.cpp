#include "core/mapping_calibration.hpp"

#include <algorithm>
#include <cmath>

#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const geom::Ray& ray,
                                       const geom::Plane& plane) {
  const auto t = geom::intersect(ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray.at(*t);
}

std::array<double, 12> pack_maps(const geom::Pose& tx, const geom::Pose& rx) {
  const auto a = tx.params();
  const auto b = rx.params();
  std::array<double, 12> out{};
  std::copy(a.begin(), a.end(), out.begin());
  std::copy(b.begin(), b.end(), out.begin() + 6);
  return out;
}

std::pair<geom::Pose, geom::Pose> unpack_maps(std::span<const double> v) {
  std::array<double, 6> a{}, b{};
  std::copy(v.begin(), v.begin() + 6, a.begin());
  std::copy(v.begin() + 6, v.begin() + 12, b.begin());
  return {geom::Pose::from_params(a), geom::Pose::from_params(b)};
}

/// One aligned sample traced once, in the GMAs' own K-spaces.  G is a
/// chain of two mirror reflections (§4.1), so tracing a rigidly moved
/// model equals moving its K-space trace: a candidate mapping only has to
/// re-pose these beams and planes, never re-trace the GMAs.
struct KSpaceSample {
  geom::Ray tx_beam, rx_beam;
  geom::Plane tx_mirror2, rx_mirror2;
  geom::Pose psi;
  bool valid = false;  ///< Both K-space traces exist.
};

KSpaceSample trace_kspace(const GmaModel& tx_kspace, const GmaModel& rx_kspace,
                          const AlignedSample& sample) {
  KSpaceSample k;
  k.psi = sample.psi;
  const sim::Voltages& v = sample.voltages;
  const auto tx_beam = tx_kspace.trace(v.tx1, v.tx2);
  const auto rx_beam = rx_kspace.trace(v.rx1, v.rx2);
  if (!tx_beam || !rx_beam) return k;
  k.tx_beam = *tx_beam;
  k.rx_beam = *rx_beam;
  k.tx_mirror2 = tx_kspace.mirror2_plane(v.tx2);
  k.rx_mirror2 = rx_kspace.mirror2_plane(v.rx2);
  k.valid = true;
  return k;
}

/// Lemma 1 from both beams and both mirror-2 planes, all in one frame.
LemmaPoints lemma_points(const geom::Ray& ray_t, const geom::Ray& ray_r,
                         const geom::Plane& tx_mirror2,
                         const geom::Plane& rx_mirror2) {
  LemmaPoints pts;
  pts.p_t = ray_t.origin;
  pts.p_r = ray_r.origin;
  const auto tau_t = hit_on_plane(ray_t, rx_mirror2);
  const auto tau_r = hit_on_plane(ray_r, tx_mirror2);
  if (!tau_t || !tau_r) return pts;
  pts.tau_t = *tau_t;
  pts.tau_r = *tau_r;
  pts.valid = true;
  return pts;
}

/// lemma_points on the models moved by `map_tx` and `psi * map_rx`, from
/// the sample's K-space trace.
LemmaPoints lemma_points(const KSpaceSample& k, const geom::Pose& map_tx,
                         const geom::Pose& map_rx) {
  if (!k.valid) return {};
  const geom::Pose rx_map = k.psi * map_rx;
  return lemma_points(map_tx.apply(k.tx_beam), rx_map.apply(k.rx_beam),
                      map_tx.apply(k.tx_mirror2), rx_map.apply(k.rx_mirror2));
}

}  // namespace

LemmaPoints lemma_points(const GmaModel& tx_vr, const GmaModel& rx_vr,
                         const sim::Voltages& v) {
  return lemma_points(tx_vr.split_trace(v.tx1, v.tx2),
                      rx_vr.split_trace(v.rx1, v.rx2));
}

LemmaPoints lemma_points(const SplitTrace& tx, const SplitTrace& rx) {
  if (!tx.ray || !rx.ray) return {};
  return lemma_points(*tx.ray, *rx.ray, tx.mirror2, rx.mirror2);
}

opt::ResidualFn make_blind_tx_residuals(
    const GmaModel& tx_kspace, const std::vector<AlignedSample>& samples) {
  struct TracedBeam {
    std::optional<geom::Ray> beam;  ///< K-space TX beam.
    geom::Vec3 headset;             ///< Reported VRH position.
  };
  std::vector<TracedBeam> traced;
  traced.reserve(samples.size());
  for (const auto& sample : samples) {
    traced.push_back({tx_kspace.trace(sample.voltages.tx1, sample.voltages.tx2),
                      sample.psi.translation()});
  }
  return [traced = std::move(traced)](std::span<const double> p6,
                                      std::vector<double>& r) {
    std::array<double, 6> arr{};
    std::copy(p6.begin(), p6.end(), arr.begin());
    const geom::Pose map = geom::Pose::from_params(arr);
    r.resize(traced.size());
    for (std::size_t s = 0; s < traced.size(); ++s) {
      r[s] = traced[s].beam ? geom::line_point_distance(
                                  map.apply(*traced[s].beam), traced[s].headset)
                            : 2.0;
    }
  };
}

MappingFitProblem make_mapping_problem(const GmaModel& tx_kspace,
                                       const GmaModel& rx_kspace,
                                       const std::vector<AlignedSample>& samples,
                                       const geom::Pose& tx_guess,
                                       const geom::Pose& rx_guess) {
  std::vector<KSpaceSample> traced;
  traced.reserve(samples.size());
  for (const auto& sample : samples) {
    traced.push_back(trace_kspace(tx_kspace, rx_kspace, sample));
  }
  MappingFitProblem problem;
  problem.residuals = [traced = std::move(traced)](
                          std::span<const double> params,
                          std::vector<double>& residuals) {
    const auto [map_tx, map_rx] = unpack_maps(params);
    residuals.resize(traced.size() * 6);
    for (std::size_t s = 0; s < traced.size(); ++s) {
      const LemmaPoints pts = lemma_points(traced[s], map_tx, map_rx);
      double* r = residuals.data() + 6 * s;
      if (pts.valid) {
        const geom::Vec3 d1 = pts.tau_r - pts.p_t;
        const geom::Vec3 d2 = pts.tau_t - pts.p_r;
        r[0] = d1.x; r[1] = d1.y; r[2] = d1.z;
        r[3] = d2.x; r[4] = d2.y; r[5] = d2.z;
      } else {
        std::fill(r, r + 6, 1.0);  // 1 m penalty
      }
    }
  };
  const auto packed = pack_maps(tx_guess, rx_guess);
  problem.initial.assign(packed.begin(), packed.end());
  return problem;
}

MappingFitReport finish_mapping_fit(const GmaModel& tx_kspace,
                                    const GmaModel& rx_kspace,
                                    const std::vector<AlignedSample>& samples,
                                    const opt::LevMarResult& fit) {
  const auto [map_tx, map_rx] = unpack_maps(fit.params);
  MappingFitReport report{map_tx, map_rx, 0.0, 0.0, fit.iterations,
                          fit.converged};

  for (const auto& sample : samples) {
    const LemmaPoints pts =
        lemma_points(trace_kspace(tx_kspace, rx_kspace, sample), map_tx, map_rx);
    const double e = pts.valid ? pts.coincidence_error() : 2.0;
    report.avg_coincidence_m += e;
    report.max_coincidence_m = std::max(report.max_coincidence_m, e);
  }
  if (!samples.empty()) {
    report.avg_coincidence_m /= static_cast<double>(samples.size());
  }
  return report;
}

MappingFitReport fit_mapping(const GmaModel& tx_kspace,
                             const GmaModel& rx_kspace,
                             const std::vector<AlignedSample>& samples,
                             const geom::Pose& tx_guess,
                             const geom::Pose& rx_guess,
                             const opt::LevMarOptions& options,
                             const runtime::Context& ctx) {
  const MappingFitProblem problem =
      make_mapping_problem(tx_kspace, rx_kspace, samples, tx_guess, rx_guess);
  const auto fit = opt::levenberg_marquardt(problem.residuals, problem.initial,
                                            options, ctx);
  return finish_mapping_fit(tx_kspace, rx_kspace, samples, fit);
}

}  // namespace cyclops::core
