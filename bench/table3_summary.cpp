// Reproduces Table 3: summary of results — the §2 speed requirements vs
// the speeds tolerated by the 10G and 25G prototypes under pure and mixed
// motions.
//
// Paper anchors:           Reqs   10G(P) 10G(M) 25G(P) 25G(M)
//   Linear (cm/s)          14     33     30     25     15
//   Angular (deg/s)        19     16-18  16     25     15-20
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

struct ProtoResult {
  double pure_linear_cms;
  double pure_angular_dps;
  double mixed_linear_cms;
  double mixed_angular_dps;
};

ProtoResult measure(bench::CalibratedRig& rig, const runtime::Context& ctx) {
  const double goodput = rig.proto.scene.config().sfp.goodput_gbps;
  ProtoResult result{};

  std::vector<double> lin;
  for (double v = 0.05; v <= 0.55 + 1e-9; v += 0.05) lin.push_back(v);
  result.pure_linear_cms =
      bench::max_optimal_speed(
          bench::stroke_speed_sweep(rig, bench::StrokeKind::kLinear, lin, ctx),
          goodput) *
      100.0;

  std::vector<double> ang;
  for (double w = 4.0; w <= 40.0 + 1e-9; w += 4.0) {
    ang.push_back(util::deg_to_rad(w));
  }
  result.pure_angular_dps = util::rad_to_deg(bench::max_optimal_speed(
      bench::stroke_speed_sweep(rig, bench::StrokeKind::kAngular, ang, ctx),
      goodput));

  // Mixed: bucketed alignment characterization (same as Figs 14/15).
  const bench::MixedCharacterization mixed = bench::characterize_mixed(
      rig, /*cap_linear=*/0.50, /*cap_angular=*/util::deg_to_rad(40.0),
      /*lin_limit=*/0.5 * result.pure_linear_cms / 100.0,
      /*ang_limit=*/util::deg_to_rad(0.8 * result.pure_angular_dps),
      /*duration_s=*/120.0, /*seed=*/55, ctx);
  result.mixed_linear_cms = mixed.sustained_linear_mps * 100.0;
  result.mixed_angular_dps = util::rad_to_deg(mixed.sustained_angular_rps);
  return result;
}

}  // namespace

int main() {
  std::printf("== Table 3: requirements vs tolerated speeds ==\n\n");

  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  bench::CalibratedRig rig10 =
      bench::make_calibrated_rig(42, sim::prototype_10g_config(), ctx);
  const ProtoResult r10 = measure(rig10, ctx);

  bench::CalibratedRig rig25 =
      bench::make_calibrated_rig(42, sim::prototype_25g_config(), ctx);
  const ProtoResult r25 = measure(rig25, ctx);

  util::TextTable table(
      {"", "Reqs", "10G Pure", "10G Mixed", "25G Pure", "25G Mixed"});
  table.add_row({"Linear (cm/s)", "14", bench::fmt(r10.pure_linear_cms, 0),
                 bench::fmt(r10.mixed_linear_cms, 0),
                 bench::fmt(r25.pure_linear_cms, 0),
                 bench::fmt(r25.mixed_linear_cms, 0)});
  table.add_row({"Angular (deg/s)", "19", bench::fmt(r10.pure_angular_dps, 0),
                 bench::fmt(r10.mixed_angular_dps, 0),
                 bench::fmt(r25.pure_angular_dps, 0),
                 bench::fmt(r25.mixed_angular_dps, 0)});
  table.print(std::cout);

  std::printf("\npaper:            Reqs  10G-P  10G-M  25G-P  25G-M\n");
  std::printf("Linear (cm/s):    14    33     30     25     15\n");
  std::printf("Angular (deg/s):  19    16-18  16     25     15-20\n");
  std::printf("\nshape checks: every tolerated speed >= the requirement; "
              "mixed <= pure for each prototype.\n");
  return 0;
}
