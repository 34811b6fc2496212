// Handover demos on the unified session core.
//
// Part 1 — Multi-TX (§3): two ceiling FSO transmitters cover occlusions.
// A second person repeatedly walks through the primary TX's beam path;
// run_multi_tx_session fails over to the backup TX and the session stays
// up, while a single-TX deployment goes dark for every occlusion.
//
// Part 2 — Heterogeneous fallback: one FSO transmitter plus a 60 GHz
// mmWave radio (§2.1's baseline, repurposed as a safety net) in ONE event
// scheduler via phy::Channel.  When the beam is blocked the session drops
// to mmWave rates instead of zero, and returns to FSO when the path
// clears — the payoff of putting every channel behind one interface.
#include <cstdio>

#include "core/calibration.hpp"
#include "link/hetero_session.hpp"
#include "link/multi_tx.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "phy/mmwave_channel.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Multi-TX occlusion handover demo (two 10G ceiling "
              "transmitters) ==\n\n");

  // Both TXs must sit within the RX galvo's ~±20° steering cone of the
  // play area (see bench/coverage_planner for the general placement
  // problem).
  const runtime::Context ctx = runtime::Context::isolated({.threads = 0});
  std::vector<link::TxChain> chains;
  chains.push_back(link::make_tx_chain(42, {0.0, 2.2, 0.0},
                                       sim::prototype_10g_config(), ctx));
  chains.push_back(link::make_tx_chain(43, {0.5, 2.2, 0.25},
                                       sim::prototype_10g_config(), ctx));
  std::printf("TX0 at (0.0, 2.2, 0.0); TX1 at (0.5, 2.2, 0.25); RX rig at "
              "head height\n");

  // Slow hand-held motion around the nominal pose.
  motion::MixedRandomMotion::Config motion_config;
  motion_config.duration_s = 30.0;
  motion_config.max_linear_speed = 0.10;
  motion_config.max_angular_speed = util::deg_to_rad(8.0);
  const motion::MixedRandomMotion profile(chains[0].proto.nominal_rig_pose,
                                          motion_config, util::Rng(99));

  // A passer-by blocks TX0's path for 2 s out of every 6 s.
  const auto occlusion = [](util::SimTimeUs now, std::size_t tx) {
    return tx == 0 && (now / util::us_from_s(1.0)) % 6 < 2;
  };

  link::MultiTxConfig config;
  config.handover.switch_delay_s = 0.2;
  // The event engine can abandon a drop-triggered switch if the occluder
  // clears before the 200 ms switch delay elapses.
  config.handover.cancel_on_reacquire = true;
  link::SessionLog log;
  const link::MultiTxResult result = link::run_multi_tx_session(
      chains, profile, config, occlusion, runtime::Context::isolated(), &log);

  std::printf("\nper-TX usable fractions: TX0 %.1f%%, TX1 %.1f%%\n",
              100.0 * result.per_tx_usable_fraction[0],
              100.0 * result.per_tx_usable_fraction[1]);
  std::printf("best single TX:          %.1f%%\n",
              100.0 * result.best_single_tx_fraction);
  std::printf("with handover (2 TX):    %.1f%%  (%d switches, %d cancelled "
              "by reacquisition, %llu events)\n",
              100.0 * result.served_fraction, result.switches,
              result.cancelled_switches,
              static_cast<unsigned long long>(result.events));

  // Every handover / reacquisition at its exact event-engine timestamp —
  // these land between 1 ms sampling slots, un-quantized.
  for (const auto& event : log.events()) {
    if (event.kind != link::SessionEventKind::kHandover &&
        event.kind != link::SessionEventKind::kReacquisition) {
      continue;
    }
    std::printf("  t=%9.4f s  %-13s (%.1f dBm)\n", util::us_to_s(event.time),
                link::to_string(event.kind), event.power_dbm);
  }

  // ---- Part 2: heterogeneous FSO -> mmWave fallback. ----
  std::printf("\n== Heterogeneous fallback demo (one 10G FSO TX + 60 GHz "
              "mmWave) ==\n\n");

  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  util::Rng calib_rng(42 ^ 0x9e3779b97f4a7c15ULL);
  core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, calib_rng,
                                ctx);
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});

  phy::MmWaveChannelConfig mm_config;
  mm_config.ap_position =
      proto.nominal_rig_pose.translation() + geom::Vec3{0.0, 1.2, 0.0};
  const runtime::Context hetero_ctx = runtime::Context::isolated();
  phy::MmWaveChannel fallback(mm_config, hetero_ctx);

  const motion::StillMotion still(proto.nominal_rig_pose, 12.0);
  link::HeteroConfig hetero;
  // The same passer-by pattern: FSO blocked 2 s out of every 6.
  hetero.fso_occlusion = [](util::SimTimeUs now) {
    return (now / util::us_from_s(1.0)) % 6 < 2;
  };
  link::SessionLog hetero_log;
  const link::HeteroResult hetero_result = link::run_hetero_session(
      proto, controller, fallback, still, hetero_ctx, hetero, &hetero_log);

  std::printf("channel usable/serving fractions over 12 s:\n");
  for (const auto& channel : hetero_result.channels) {
    std::printf("  %-14s usable %5.1f%%  serving %5.1f%%\n",
                channel.name.c_str(), 100.0 * channel.usable_fraction,
                100.0 * channel.serving_fraction);
  }
  std::printf("session served %.1f%% of slots at %.2f Gbps average "
              "(%d switches, %d cancelled, %llu events)\n",
              100.0 * hetero_result.served_fraction,
              hetero_result.avg_rate_gbps, hetero_result.switches,
              hetero_result.cancelled_switches,
              static_cast<unsigned long long>(hetero_result.events));
  std::printf("single-channel FSO would have served at most %.1f%% — the "
              "mmWave fallback carries the blockages.\n",
              100.0 * hetero_result.channels[0].usable_fraction);

  for (const auto& event : hetero_log.events()) {
    if (event.kind != link::SessionEventKind::kHandover &&
        event.kind != link::SessionEventKind::kReacquisition) {
      continue;
    }
    std::printf("  t=%9.4f s  %-13s (margin %+.1f dB)\n",
                util::us_to_s(event.time), link::to_string(event.kind),
                event.power_dbm);
  }
  return 0;
}
