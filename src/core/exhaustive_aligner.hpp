// Automated exhaustive-search alignment (§4.2).
//
// Finds the four GM voltages maximizing received power using only what the
// lab bench offers: the quad-photodiode sum around the RX aperture (wide
// capture basin, works even when no light reaches the fiber) and the
// SFP-reported received power (sharp, used for the final polish).  This is
// the 1-2 minute search used once per Stage-2 training sample; it knows
// nothing about any model.
#pragma once

#include "opt/nelder_mead.hpp"
#include "sim/scene.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::core {

struct AlignerOptions {
  /// Coarse TX raster half-extent (V) and step (V).
  double tx_scan_half_extent = 3.0;
  double tx_scan_step = 0.2;
  /// RX raster half-extent/step once the TX beam illuminates the diodes.
  double rx_scan_half_extent = 3.0;
  double rx_scan_step = 0.2;
  /// Joint polish iterations (alternating 2-D refinements + 4-D simplex).
  int refine_rounds = 2;
};

/// Why an alignment search ended the way it did.
enum class AlignStatus {
  /// Found power meets the SFP sensitivity — a sample the lab would
  /// actually record.
  kConverged,
  /// The search exhausted its rasters + polish rounds without reaching
  /// sensitivity; the best point is real but below the SFP floor.
  kMaxIterations,
  /// No finite fiber power anywhere the search looked (occluded path,
  /// rig outside the steerable cone) — the geometry, not the search
  /// budget, is the problem.
  kDegenerateGeometry,
};

const char* to_string(AlignStatus status) noexcept;

struct AlignResult {
  sim::Voltages voltages;
  double power_dbm = 0.0;
  /// Total scene observations consumed (the "minutes of search" proxy).
  int evaluations = 0;
  AlignStatus status = AlignStatus::kMaxIterations;

  bool converged() const noexcept { return status == AlignStatus::kConverged; }
};

class ExhaustiveAligner {
 public:
  /// Raster rows fan out over `pool`, which must outlive the aligner
  /// (results are bit-identical at any thread count, so which pool is
  /// purely a scheduling choice).
  ExhaustiveAligner(AlignerOptions options, util::ThreadPool& pool)
      : options_(options), pool_(&pool) {}

  /// Aligns the link at the scene's current rig pose, starting the search
  /// from `hint` (e.g. the previously aligned voltages).  Falls back to a
  /// wider from-scratch sweep when the hinted search fails to reach the
  /// SFP sensitivity.
  AlignResult align(const sim::Scene& scene, const sim::Voltages& hint) const;

 private:
  /// One hinted search with the given raster extents (align()'s wide
  /// retry passes widened ones).
  AlignResult align_once(const sim::Scene& scene, const sim::Voltages& hint,
                         const AlignerOptions& options) const;

  AlignerOptions options_;
  util::ThreadPool* pool_;
};

}  // namespace cyclops::core
