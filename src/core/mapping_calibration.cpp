#include "core/mapping_calibration.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "geom/ray.hpp"

namespace cyclops::core {
namespace {

std::optional<geom::Vec3> hit_on_plane(const geom::Ray& ray,
                                       const geom::Plane& plane) {
  const auto t = geom::intersect(ray, plane, /*forward_only=*/false);
  if (!t) return std::nullopt;
  return ray.at(*t);
}

/// The 12 Stage-2 parameters are M_tx's 6 then M_rx's 6: a column below
/// kMapTxParams moves only the TX half of every sample, the rest only the
/// RX half.
constexpr std::size_t kMapTxParams = 6;

std::array<double, 12> pack_maps(const geom::Pose& tx, const geom::Pose& rx) {
  const auto a = tx.params();
  const auto b = rx.params();
  std::array<double, 12> out{};
  std::copy(a.begin(), a.end(), out.begin());
  std::copy(b.begin(), b.end(), out.begin() + kMapTxParams);
  return out;
}

/// The map whose 6 parameters start at `offset` (0 for M_tx, kMapTxParams
/// for M_rx).
geom::Pose map_at(std::span<const double> v, std::size_t offset) {
  std::array<double, 6> p{};
  std::copy(v.begin() + offset, v.begin() + offset + 6, p.begin());
  return geom::Pose::from_params(p);
}

std::pair<geom::Pose, geom::Pose> unpack_maps(std::span<const double> v) {
  return {map_at(v, 0), map_at(v, kMapTxParams)};
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

/// One GMA's half of a sample's Lemma-1 geometry, in VR-space: its beam
/// and its mirror-2 plane.
struct PosedHalf {
  geom::Ray beam;
  geom::Plane mirror2;
};

/// Lemma 1 from both halves, in one frame.
LemmaPoints lemma_points(const PosedHalf& tx, const PosedHalf& rx) {
  LemmaPoints pts;
  pts.p_t = tx.beam.origin;
  pts.p_r = rx.beam.origin;
  const auto tau_t = hit_on_plane(tx.beam, rx.mirror2);
  const auto tau_r = hit_on_plane(rx.beam, tx.mirror2);
  if (!tau_t || !tau_r) return pts;
  pts.tau_t = *tau_t;
  pts.tau_r = *tau_r;
  pts.valid = true;
  return pts;
}

/// The TX half under `map_tx`, and the RX half under `psi * map_rx`.
PosedHalf pose_tx(const KSpaceSample& k, const geom::Pose& map_tx) {
  return {map_tx.apply(k.tx_beam), map_tx.apply(k.tx_mirror2)};
}
PosedHalf pose_rx(const KSpaceSample& k, const geom::Pose& map_rx) {
  const geom::Pose rx_map = k.psi * map_rx;
  return {rx_map.apply(k.rx_beam), rx_map.apply(k.rx_mirror2)};
}

/// lemma_points on the models moved by `map_tx` and `psi * map_rx`, from
/// the sample's K-space trace.
LemmaPoints lemma_points(const KSpaceSample& k, const geom::Pose& map_tx,
                         const geom::Pose& map_rx) {
  if (!k.valid) return {};
  return lemma_points(pose_tx(k, map_tx), pose_rx(k, map_rx));
}

/// One sample's six residuals: Lemma 1's coincidence offsets, or the 1 m
/// penalty on each when the points are invalid (as they are for a sample
/// with no K-space trace).
void write_residuals(const LemmaPoints& pts, double* r) {
  if (!pts.valid) {
    std::fill(r, r + 6, 1.0);
    return;
  }
  const geom::Vec3 d1 = pts.tau_r - pts.p_t;
  const geom::Vec3 d2 = pts.tau_t - pts.p_r;
  r[0] = d1.x; r[1] = d1.y; r[2] = d1.z;
  r[3] = d2.x; r[4] = d2.y; r[5] = d2.z;
}

using KSpaceSamples = std::shared_ptr<const std::vector<KSpaceSample>>;

void mapping_residuals(const KSpaceSamples& traced,
                       std::span<const double> params,
                       std::vector<double>& residuals) {
  const auto [map_tx, map_rx] = unpack_maps(params);
  residuals.resize(traced->size() * 6);
  for (std::size_t s = 0; s < traced->size(); ++s) {
    write_residuals(lemma_points((*traced)[s], map_tx, map_rx),
                    &residuals[6 * s]);
  }
}

/// The Stage-2 Jacobian probes at `base`: every valid sample's TX and RX
/// halves are posed once under the base maps.  A probe of a TX column
/// re-poses only the TX halves and one of an RX column only the RX halves
/// (the other map's 6 parameters equal the base's, so its halves would be
/// posed to the same bits), then forms Lemma 1 as the residuals do.
opt::ProbeFn mapping_probes(const KSpaceSamples& traced,
                            std::span<const double> base) {
  const auto [map_tx, map_rx] = unpack_maps(base);
  struct Halves { PosedHalf tx, rx; };
  std::vector<Halves> halves(traced->size());
  for (std::size_t s = 0; s < traced->size(); ++s) {
    const KSpaceSample& k = (*traced)[s];
    if (k.valid) halves[s] = {pose_tx(k, map_tx), pose_rx(k, map_rx)};
  }
  return [traced, halves = std::move(halves)](
             std::size_t column, std::span<const double> params,
             std::vector<double>& residuals) {
    const bool tx_column = column < kMapTxParams;
    const geom::Pose map = map_at(params, tx_column ? 0 : kMapTxParams);
    residuals.resize(traced->size() * 6);
    for (std::size_t s = 0; s < traced->size(); ++s) {
      const KSpaceSample& k = (*traced)[s];
      LemmaPoints pts;
      if (k.valid) {
        pts = tx_column ? lemma_points(pose_tx(k, map), halves[s].rx)
                        : lemma_points(halves[s].tx, pose_rx(k, map));
      }
      write_residuals(pts, &residuals[6 * s]);
    }
  };
}

}  // namespace

LemmaPoints lemma_points(const SplitTrace& tx, const SplitTrace& rx) {
  if (!tx.ray || !rx.ray) return {};
  return lemma_points(PosedHalf{*tx.ray, tx.mirror2},
                      PosedHalf{*rx.ray, rx.mirror2});
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
    const geom::Pose map = map_at(p6, 0);
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
  auto traced = std::make_shared<std::vector<KSpaceSample>>();
  traced->reserve(samples.size());
  for (const auto& sample : samples) {
    traced->push_back(trace_kspace(tx_kspace, rx_kspace, sample));
  }
  const KSpaceSamples shared = std::move(traced);
  MappingFitProblem problem;
  problem.residuals = std::bind_front(mapping_residuals, shared);
  problem.probes = std::bind_front(mapping_probes, shared);
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
                                            options, ctx, problem.probes);
  return finish_mapping_fit(tx_kspace, rx_kspace, samples, fit);
}

}  // namespace cyclops::core
