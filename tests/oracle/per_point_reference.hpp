// The physics and the normal matrix as they ran before each piece was
// computed once per change of its inputs — test-only references:
//
//   * GalvoMirror::trace in one piece, before it split at mirror 2;
//   * Scene::couple and Scene::photodiodes as they were: the coupling
//     model re-derives the envelope diameter (with its own tan), offset,
//     arriving direction and incidence angle, and takes the angular
//     acceptance per call; the quad array is built per reading;
//   * the exhaustive aligner with per-point rasters: every raster point
//     traces its GMA whole, through the two references above;
//   * the row-streaming A^T A.
//
// The production code must reproduce them bit for bit (galvo_test,
// sim_test, aligner_test, opt_test).  No telemetry is recorded.
#pragma once

#include <optional>

#include "core/exhaustive_aligner.hpp"
#include "galvo/galvo_mirror.hpp"
#include "opt/linalg.hpp"
#include "optics/photodiode.hpp"
#include "sim/scene.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::galvo {

std::optional<geom::Ray> reference_trace(const GalvoMirror& galvo, double v1,
                                         double v2);

}  // namespace cyclops::galvo

namespace cyclops::sim {

LinkObservation reference_couple(const Scene& scene,
                                 const std::optional<optics::TracedBeam>& beam,
                                 const std::optional<geom::Ray>& rx_ray);

/// The quad reading for the TX beam launched by (v.tx1, v.tx2).
optics::QuadReading reference_photodiodes(const Scene& scene,
                                          const Voltages& v);

}  // namespace cyclops::sim

namespace cyclops::core {

AlignResult reference_align(const sim::Scene& scene, const sim::Voltages& hint,
                            const AlignerOptions& options,
                            util::ThreadPool& pool);

}  // namespace cyclops::core

namespace cyclops::opt {

Matrix reference_normal_matrix(const Matrix& a);

}  // namespace cyclops::opt
