// Reproduces Fig 3: CDFs of VRH linear and angular speeds during 360°
// video viewing (the characterization that sets Cyclops's speed
// requirements: at most ~14 cm/s and ~19 deg/s in normal use).
//
// Uses the synthetic 500-trace dataset standing in for the public
// dataset of [47] (see DESIGN.md substitutions).
#include <cstdio>

#include "motion/trace_generator.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Fig 3: CDFs of VRH linear and angular speeds "
              "(500 synthetic 1-min viewing traces) ==\n\n");

  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  const auto traces =
      motion::generate_dataset(base, 500, {}, rng, util::ThreadPool::global());

  std::vector<double> linear_cms, angular_degs;
  for (const auto& trace : traces) {
    const motion::TraceSpeeds speeds = motion::compute_speeds(trace);
    for (double v : speeds.linear_mps) linear_cms.push_back(v * 100.0);
    for (double w : speeds.angular_rps)
      angular_degs.push_back(util::rad_to_deg(w));
  }

  const util::Cdf lin(linear_cms);
  const util::Cdf ang(angular_degs);

  std::printf("cdf_fraction, linear_speed_cm_s, angular_speed_deg_s\n");
  for (int i = 1; i <= 20; ++i) {
    const double q = i / 20.0;
    std::printf("%.2f, %.3f, %.3f\n", q, lin.quantile(q), ang.quantile(q));
  }

  std::printf("\nmax linear speed:  %.2f cm/s   (paper: at most ~14 cm/s)\n",
              lin.max());
  std::printf("max angular speed: %.2f deg/s  (paper: at most ~19 deg/s)\n",
              ang.max());
  std::printf("medians: %.2f cm/s, %.2f deg/s\n", lin.quantile(0.5),
              ang.quantile(0.5));
  return 0;
}
