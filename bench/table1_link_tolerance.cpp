// Reproduces Table 1: angular movement tolerances and peak received power
// of the 10G link with a collimated vs a diverging beam (20 mm diameter at
// the RX, 1.5 m link).
//
// Paper anchors:              Collimated   Diverging
//   TX angular tolerance      2.00 mrad    15.81 mrad
//   RX angular tolerance      2.28 mrad    5.77 mrad
//   Peak received power       +15 dBm      -10 dBm
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/tolerance.hpp"
#include "optics/coupling.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

struct DesignResult {
  double tx_tol_mrad;
  double rx_tol_mrad;
  double peak_dbm;
};

DesignResult measure(const optics::LinkDesign& design) {
  sim::PrototypeConfig config = sim::prototype_10g_config();
  config.design = design;
  sim::Prototype proto = sim::make_prototype(42, config);
  DesignResult r{};
  util::ThreadPool& pool = util::ThreadPool::global();
  r.peak_dbm = core::aligned_peak_power_dbm(proto, pool);
  r.tx_tol_mrad = util::rad_to_mrad(core::tx_angular_tolerance(proto, pool));
  r.rx_tol_mrad = util::rad_to_mrad(core::rx_angular_tolerance(proto, pool));
  return r;
}

}  // namespace

int main() {
  std::printf("== Table 1: link angular tolerances and peak received power "
              "(10G, 20 mm beam at RX) ==\n\n");

  const DesignResult collimated = measure(optics::collimated_10g(20e-3));
  const DesignResult diverging = measure(optics::diverging_10g(20e-3, 1.5));

  util::TextTable table({"", "Collimated", "Diverging", "paper-C", "paper-D"});
  table.add_row({"TX Angular Tolerance (mrad)",
                 util::TextTable::num(collimated.tx_tol_mrad),
                 util::TextTable::num(diverging.tx_tol_mrad), "2.00",
                 "15.81"});
  table.add_row({"RX Angular Tolerance (mrad)",
                 util::TextTable::num(collimated.rx_tol_mrad),
                 util::TextTable::num(diverging.rx_tol_mrad), "2.28", "5.77"});
  table.add_row({"Peak Received Power (dBm)",
                 util::TextTable::num(collimated.peak_dbm, 1),
                 util::TextTable::num(diverging.peak_dbm, 1), "15", "-10"});
  table.print(std::cout);

  std::printf("\nshape checks: diverging TX tolerance %.1fx collimated "
              "(paper ~7.9x); diverging RX tolerance %.1fx collimated "
              "(paper ~2.5x); power penalty %.0f dB (paper ~25 dB)\n",
              diverging.tx_tol_mrad / collimated.tx_tol_mrad,
              diverging.rx_tol_mrad / collimated.rx_tol_mrad,
              collimated.peak_dbm - diverging.peak_dbm);
  return 0;
}
