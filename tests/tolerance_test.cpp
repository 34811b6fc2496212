// Tests for the §5.1 tolerance-measurement API (core/tolerance.hpp) and
// the TP controller's prediction path under motion.
#include <gtest/gtest.h>

#include "core/calibration.hpp"
#include "core/tolerance.hpp"
#include "link/fso_link.hpp"
#include "motion/profile.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::core {
namespace {

TEST(ToleranceTest, DivergingDesignAnchors) {
  util::ThreadPool pool(2);
  // The Table 1 anchors as unit assertions on the library API.
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.design = optics::diverging_10g(20e-3, 1.5);
  sim::Prototype proto = sim::make_prototype(42, config);

  const double peak = aligned_peak_power_dbm(proto, pool);
  EXPECT_NEAR(peak, -10.0, 2.5);

  const double tx = util::rad_to_mrad(tx_angular_tolerance(proto, pool));
  const double rx = util::rad_to_mrad(rx_angular_tolerance(proto, pool));
  EXPECT_NEAR(tx, 15.81, 4.0);
  EXPECT_NEAR(rx, 5.77, 1.5);
  EXPECT_GT(tx, rx);  // the diverging design's signature asymmetry
}

TEST(ToleranceTest, CollimatedDesignAnchors) {
  util::ThreadPool pool(2);
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.design = optics::collimated_10g(20e-3);
  sim::Prototype proto = sim::make_prototype(42, config);
  EXPECT_NEAR(aligned_peak_power_dbm(proto, pool), 15.0, 2.0);
  EXPECT_NEAR(util::rad_to_mrad(tx_angular_tolerance(proto, pool)), 2.0, 1.0);
  EXPECT_NEAR(util::rad_to_mrad(rx_angular_tolerance(proto, pool)), 2.28, 1.0);
}

TEST(ToleranceTest, MeasurementRestoresScene) {
  util::ThreadPool pool(2);
  // The procedures perturb the scene; they must leave it where they found
  // it (other experiments run on the same prototype afterwards).
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  const geom::Pose rig_before = proto.scene.rig_pose();
  const geom::Pose tx_before = proto.scene.tx().mount();
  tx_angular_tolerance(proto, pool);
  rx_angular_tolerance(proto, pool);
  EXPECT_NEAR(geom::translation_distance(proto.scene.rig_pose(), rig_before),
              0.0, 1e-12);
  EXPECT_NEAR(geom::rotation_distance(proto.scene.tx().mount(), tx_before),
              0.0, 1e-12);
}

TEST(PredictionUnderMotion, PredictedControllerTracksBetter) {
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  // At a speed past the react-only envelope, the predicting controller
  // keeps more windows aligned on a constant-velocity stroke.
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng rng(7);
  const CalibrationResult calib =
      calibrate_prototype(proto, CalibrationConfig{}, rng, ctx);

  const auto aligned_fraction = [&](bool predict) {
    TpConfig tp;
    tp.predict_pose = predict;
    TpController controller(calib.make_pointing_solver({}, ctx), tp);
    const motion::LinearStrokeMotion profile(proto.nominal_rig_pose,
                                             {1, 0, 0}, 0.15, {0.55});
    const link::RunResult run =
        link::run_link_simulation(proto, controller, profile, ctx);
    int aligned = 0;
    for (const auto& w : run.windows) {
      if (w.power_ok_fraction >= 0.95) ++aligned;
    }
    return run.windows.empty()
               ? 0.0
               : static_cast<double>(aligned) / run.windows.size();
  };

  const double react = aligned_fraction(false);
  const double predicted = aligned_fraction(true);
  EXPECT_GT(predicted, react + 0.1);
}

}  // namespace
}  // namespace cyclops::core
