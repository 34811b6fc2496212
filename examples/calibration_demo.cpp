// Walkthrough of Cyclops's two-stage learning pipeline (§4) with the
// intermediate numbers printed at each step:
//
//   Stage 1 (pre-deployment): learn each GMA's 25 physical parameters on
//   the grid-board rig from ~266 (x, y, v1, v2) samples.
//   Stage 2 (at deployment): learn the 12 mapping parameters from ~30
//   exhaustively-aligned 5-tuples using the Lemma-1 coincidence error.
//   Then: invert G computationally (G') and point in real time (P).
//   Finally: both stages must survive a power cycle.  The calibration is
//   saved and reloaded (it is a finished engine checkpoint), and a
//   calibration interrupted mid-Stage-1 fit resumes from its checkpoint
//   file.  Files go to a fresh temp directory; any mismatch exits 1.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cal/checkpoint.hpp"
#include "cal/engine.hpp"
#include "core/calibration.hpp"
#include "core/evaluation.hpp"
#include "core/gprime.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

/// A fresh directory under the system temp dir, removed with its contents
/// on scope exit.
class TempDir {
 public:
  TempDir() {
    std::string name = (std::filesystem::temp_directory_path() /
                        "cyclops_calibration_demo.XXXXXX")
                           .string();
    if (mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("cannot create a temp directory");
    }
    path_ = name;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::filesystem::path operator/(const char* name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool same_voltages(const sim::Voltages& a, const sim::Voltages& b) {
  return a.tx1 == b.tx1 && a.tx2 == b.tx2 && a.rx1 == b.rx1 && a.rx2 == b.rx2;
}

}  // namespace

int main() {
  std::printf("== Cyclops calibration walkthrough ==\n\n");

  sim::Prototype proto = sim::make_prototype(7, sim::prototype_10g_config());
  util::Rng rng(11);
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});

  // ---- Stage 1, by hand, for the TX GMA ----
  std::printf("[stage 1] collecting board samples for the TX GMA...\n");
  const galvo::GalvoMirror tx_galvo(proto.tx_galvo_truth,
                                    galvo::gvs102_spec());
  const auto samples = core::collect_board_samples(
      tx_galvo, proto.k_from_tx_gma, core::BoardConfig{}, rng, ctx);
  std::printf("  %zu samples (19 x 14 interior grid points)\n",
              samples.size());
  std::printf("  example tuple: x=%.3f m, y=%.3f m -> v1=%.3f V, v2=%.3f V\n",
              samples[0].x, samples[0].y, samples[0].v1, samples[0].v2);

  const core::GmaModel guess =
      core::nominal_kspace_guess(proto.config.board_distance);
  double guess_error = 0.0;
  for (const auto& s : samples) guess_error += core::board_error(guess, s);
  std::printf("  CAD initial guess board error: %.2f mm avg\n",
              util::m_to_mm(guess_error / samples.size()));

  const core::KSpaceFitReport tx_fit =
      core::fit_kspace_model(samples, guess, {}, ctx);
  std::printf("  after Levenberg-Marquardt (%d iterations): %.2f mm avg, "
              "%.2f mm max\n\n",
              tx_fit.optimizer_iterations, util::m_to_mm(tx_fit.avg_error_m),
              util::m_to_mm(tx_fit.max_error_m));

  // ---- Full pipeline (stage 1 for both + stage 2) ----
  std::printf("[stage 2] full pipeline: exhaustive alignment at ~30 rig "
              "poses + joint 12-parameter fit...\n");
  core::CalibrationConfig config;
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, config, rng, ctx);
  std::printf("  collected %zu aligned 5-tuples\n",
              calib.stage2_samples.size());
  std::printf("  Lemma-1 coincidence after fit: %.2f mm avg, %.2f mm max\n",
              util::m_to_mm(calib.mapping.avg_coincidence_m),
              util::m_to_mm(calib.mapping.max_coincidence_m));
  std::printf("  learned TX mapping vs hidden truth: %.2f mm / %.2f mrad "
              "off\n",
              util::m_to_mm(geom::translation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)),
              util::rad_to_mrad(geom::rotation_distance(
                  calib.mapping.map_tx, proto.true_map_tx)));

  // ---- G' inversion, purely computational ----
  const core::PointingSolver solver = calib.make_pointing_solver({}, ctx);
  const auto boresight = solver.tx_vr().trace(0.0, 0.0);
  const geom::Vec3 target = boresight->at(1.7);
  const core::GPrimeResult gp =
      core::GPrimeSolver({}, ctx).solve(solver.tx_vr(), target);
  std::printf("\n[G'] aim the TX beam through a target point: converged in "
              "%d iterations, miss %.4f mm\n",
              gp.iterations, util::m_to_mm(gp.miss_distance));

  // ---- P, end to end ----
  const geom::Pose psi = proto.tracker.report(0, proto.nominal_rig_pose).pose;
  const core::PointingResult p = solver.solve(psi, {});
  const double power = proto.scene.received_power_dbm(p.voltages);
  std::printf("[P]  pointing from a VRH report: %d iterations -> voltages "
              "(%.2f, %.2f, %.2f, %.2f) V -> received power %.1f dBm\n",
              p.iterations, p.voltages.tx1, p.voltages.tx2, p.voltages.rx1,
              p.voltages.rx2, power);
  std::printf("     (SFP sensitivity %.0f dBm: link %s)\n",
              proto.scene.config().sfp.rx_sensitivity_dbm,
              power >= proto.scene.config().sfp.rx_sensitivity_dbm
                  ? "UP"
                  : "DOWN");

  // ---- Power cycles ----
  const TempDir dir;
  cal::save_calibration(dir / "calibration.ckpt", calib);
  const core::CalibrationResult loaded =
      cal::load_calibration(dir / "calibration.ckpt");
  const core::PointingResult p_loaded =
      loaded.make_pointing_solver({}, ctx).solve(psi, {});
  const bool pointing_ok = same_voltages(p.voltages, p_loaded.voltages);
  std::printf("\n[save] calibration saved and reloaded: pointing voltages "
              "%s\n",
              pointing_ok ? "bit-equal" : "DIFFER");

  // An uninterrupted reference run, and a run whose power is cut five LM
  // iterations into the TX Stage-1 fit.  The restored engine starts on a
  // fresh twin prototype with a different seed: everything it continues
  // from comes out of the checkpoint file.
  sim::Prototype twin_a = sim::make_prototype(7, sim::prototype_10g_config());
  cal::CalibrationEngine reference(twin_a, config, util::Rng(11), ctx);
  while (reference.step()) {
  }
  std::uint64_t cut_at = 0;
  {
    sim::Prototype twin_b =
        sim::make_prototype(7, sim::prototype_10g_config());
    cal::CalibrationEngine interrupted(twin_b, config, util::Rng(11), ctx);
    while (interrupted.phase() != cal::Phase::kStage1TxFit) {
      interrupted.step();
    }
    for (int i = 0; i < 5; ++i) interrupted.step();
    cut_at = interrupted.steps();
    cal::save_engine_checkpoint(dir / "engine.ckpt", interrupted.checkpoint());
  }
  sim::Prototype twin_c = sim::make_prototype(7, sim::prototype_10g_config());
  cal::CalibrationEngine resumed(twin_c, config, util::Rng(99), ctx);
  resumed.restore(cal::load_engine_checkpoint(dir / "engine.ckpt"));
  while (resumed.step()) {
  }
  // Saved calibrations print every double to 17 significant digits, so
  // equal files mean bit-equal results.
  cal::save_calibration(dir / "reference.ckpt", reference.result());
  cal::save_calibration(dir / "resumed.ckpt", resumed.result());
  const bool resume_ok = read_file(dir / "reference.ckpt") ==
                         read_file(dir / "resumed.ckpt");
  std::printf("[power cycle] cut at step %llu (%s), restored on a twin "
              "prototype: result %s the uninterrupted run\n",
              static_cast<unsigned long long>(cut_at),
              cal::phase_name(cal::Phase::kStage1TxFit),
              resume_ok ? "bit-equal to" : "DIFFERS from");

  if (!pointing_ok || !resume_ok) {
    std::fprintf(stderr, "FAIL: a power cycle changed the calibration\n");
    return 1;
  }
  return 0;
}
