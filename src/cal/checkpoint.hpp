// Calibration-engine checkpoints: the full CalibrationEngine state as a
// value, serializable to a line-oriented text file so an interrupted
// calibration survives a power cycle and resumes bit-exactly.  A finished
// calibration is the same file at Phase::kDone (save_calibration), so the
// repository has one on-disk format and one reader.
//
//   cyclops-cal-checkpoint v1
//   state         <9 u64: phase steps stage2_i blind_a blind_b
//                         retry_attempt lm_active tx_report rx_report>
//   rng_state     <4 u64>
//   rng_normal    <2 doubles>
//   collector     <4 doubles>
//   tx_report     <29 doubles>    (zeros when the state flag says absent)
//   rx_report     <29 doubles>
//   tx_samples_n  <1 u64>
//   tx_samples    <4n doubles>
//   ... (fixed record sequence; see checkpoint.cpp)
//
// Doubles round-trip exactly (17 significant digits); RNG words are
// written as decimal u64 and parsed with std::from_chars, because a double
// cannot hold values above 2^53 without corruption.  Fit reports store the
// model's raw fields and poses their 9 rotation-matrix entries plus the
// translation — GalvoParams::unpack and the rotation-vector form
// (Pose::params) are not bit-exact through a round-trip.  Malformed files
// — truncation, garbled fields, wrong counts, unknown versions, integer
// fields that are not in-range integers, counts too large for their
// record — are rejected with a std::runtime_error naming the 1-based line,
// never loaded silently.
//
// A checkpoint restores into an engine built against the *same*
// prototype/config/context (the prototype's tracker and flex state are
// live rig state, not engine state).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <optional>

#include "cal/engine.hpp"
#include "core/calibration.hpp"
#include "core/kspace_calibration.hpp"
#include "opt/levmar.hpp"
#include "util/rng.hpp"

namespace cyclops::cal {

/// Everything CalibrationEngine::restore needs, as a plain value.
struct EngineCheckpoint {
  EngineState state;
  util::RngState rng;
  core::BoardSampleCollector::State collector;
  std::optional<opt::LmCheckpoint> lm;  ///< Set while an LM solve is in flight.
};

void write_engine_checkpoint(std::ostream& out, const EngineCheckpoint& cp);
EngineCheckpoint read_engine_checkpoint(std::istream& in);

/// File convenience wrappers.  Throw std::runtime_error on I/O or format
/// errors.
void save_engine_checkpoint(const std::filesystem::path& path,
                            const EngineCheckpoint& cp);
EngineCheckpoint load_engine_checkpoint(const std::filesystem::path& path);

/// A finished calibration on disk: an engine checkpoint at Phase::kDone
/// carrying both Stage-1 reports, the mapping and the Stage-2 tuples.
/// Stage 1 runs at the factory and Stage 2 once per deployment (§4), so
/// both must survive a power cycle.  Throws std::runtime_error on I/O
/// failure.
void save_calibration(const std::filesystem::path& path,
                      const core::CalibrationResult& calibration);

/// Reads a file written by save_calibration; the result is bit-equal to
/// the one saved.  Throws std::runtime_error on I/O or format errors, or
/// unless the file is a Phase::kDone checkpoint carrying both reports.
core::CalibrationResult load_calibration(const std::filesystem::path& path);

}  // namespace cyclops::cal
