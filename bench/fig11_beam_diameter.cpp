// Reproduces Fig 11: TX and RX angular tolerance of the 10G diverging
// link for varying beam diameter at the RX.
//
// Paper anchors: RX angular tolerance peaks at 5.77 mrad around a 16 mm
// beam diameter; TX tolerance keeps growing with the diameter.
#include <cstdio>

#include "bench_common.hpp"
#include "core/tolerance.hpp"
#include "optics/coupling.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Fig 11: angular tolerance vs beam diameter at RX "
              "(10G diverging link, 1.5 m) ==\n\n");
  std::printf("diameter_mm, tx_tolerance_mrad, rx_tolerance_mrad, "
              "peak_power_dbm\n");

  double best_rx = 0.0;
  double best_diameter = 0.0;
  for (double diameter_mm = 8.0; diameter_mm <= 40.0; diameter_mm += 4.0) {
    sim::PrototypeConfig config = sim::prototype_10g_config();
    config.design = optics::diverging_10g(diameter_mm * 1e-3, 1.5);
    sim::Prototype proto = sim::make_prototype(42, config);

    util::ThreadPool& pool = util::ThreadPool::global();
    const double peak = core::aligned_peak_power_dbm(proto, pool);
    const double tx =
        util::rad_to_mrad(core::tx_angular_tolerance(proto, pool));
    const double rx =
        util::rad_to_mrad(core::rx_angular_tolerance(proto, pool));
    std::printf("%.0f, %.2f, %.2f, %.1f\n", diameter_mm, tx, rx, peak);
    if (rx > best_rx) {
      best_rx = rx;
      best_diameter = diameter_mm;
    }
  }

  std::printf("\nRX tolerance peaks at %.2f mrad for a %.0f mm beam "
              "(paper: 5.77 mrad at 16 mm)\n",
              best_rx, best_diameter);
  return 0;
}
