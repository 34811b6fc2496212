// Spectator fan-out demo: one VR session streamed through a flapping
// FSO -> mmWave heterogeneous link and fanned out to 4 spectators.
//
// Two planes, wired through HeteroConfig::on_slot:
//   1. The link plane — a 10G FSO chain with a 60 GHz mmWave fallback
//     (the handover_demo Part-2 rig) under a passer-by occluder that
//     blocks the FSO LOS 2 s out of every 6.  Its per-slot delivered
//     rate is captured into a timeline.
//   2. The streaming plane — stream::StreamPipeline replays that
//     timeline as its CapacityFn: the encoder rate-adapts, frames are
//     packetized through the zero-copy arena, and the headset plus 4
//     lossy spectators reassemble and play out through jitter buffers,
//     all sharing the headset's arena slabs refcount-only.
//
// Prints per-receiver freeze/drop stats and the obs registry in
// Prometheus text format (DESIGN.md §14 has the architecture).
#include <cstdio>
#include <vector>

#include "core/calibration.hpp"
#include "core/tp_controller.hpp"
#include "link/hetero_session.hpp"
#include "motion/profile.hpp"
#include "obs/export.hpp"
#include "phy/mmwave_channel.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "stream/pipeline.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== Spectator fan-out over a flapping FSO -> mmWave link "
              "==\n\n");

  // ---- Link plane: the handover_demo rig, occluded 2 s of every 6.
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_10g_config());
  const runtime::Context link_ctx = runtime::Context::isolated();
  util::Rng calib_rng(42 ^ 0x9e3779b97f4a7c15ULL);
  core::CalibrationResult calib = core::calibrate_prototype(
      proto, core::CalibrationConfig{}, calib_rng, link_ctx);
  core::TpController controller(calib.make_pointing_solver({}, link_ctx),
                                core::TpConfig{});
  phy::MmWaveChannelConfig mm_config;
  mm_config.ap_position =
      proto.nominal_rig_pose.translation() + geom::Vec3{0.0, 1.2, 0.0};
  phy::MmWaveChannel fallback(mm_config, link_ctx);

  const double session_s = 12.0;
  const motion::StillMotion still(proto.nominal_rig_pose, session_s);
  link::HeteroConfig hetero;
  hetero.fso_occlusion = [](util::SimTimeUs now) {
    return (now / util::us_from_s(1.0)) % 6 < 2;
  };
  std::vector<double> rate_timeline;  // Gbps per 1 ms slot
  hetero.on_slot = [&rate_timeline](util::SimTimeUs, int, bool,
                                    double rate_gbps) {
    rate_timeline.push_back(rate_gbps);
  };
  const link::HeteroResult link_result = link::run_hetero_session(
      proto, controller, fallback, still, link_ctx, hetero);

  std::printf("link plane: served %.1f%% of slots at %.2f Gbps average "
              "(%d handovers) over %.0f s\n",
              100.0 * link_result.served_fraction, link_result.avg_rate_gbps,
              link_result.switches, session_s);
  for (const auto& channel : link_result.channels) {
    std::printf("  %-14s usable %5.1f%%  serving %5.1f%%\n",
                channel.name.c_str(), 100.0 * channel.usable_fraction,
                100.0 * channel.serving_fraction);
  }

  // ---- Streaming plane: replay the captured timeline as capacity.
  runtime::Context ctx = runtime::Context::isolated();
  stream::PipelineConfig config;
  config.duration =
      static_cast<util::SimTimeUs>(rate_timeline.size()) * config.slot;
  config.spectators = 4;
  config.spectator = {.loss = 0.002, .dup = 0.01, .reorder = 0.05};
  stream::StreamPipeline pipeline(config, ctx);
  const stream::PipelineResult result =
      pipeline.run([&rate_timeline, &config](util::SimTimeUs t) {
        const auto slot = static_cast<std::size_t>(t / config.slot);
        return slot < rate_timeline.size() ? rate_timeline[slot] : 0.0;
      });

  std::printf("\nstreaming plane: %lld frames, %d ABR mode switches, "
              "offered %.2f -> goodput %.2f Gbps\n",
              static_cast<long long>(result.frames_generated),
              result.mode_switches, result.offered_gbps, result.goodput_gbps);
  std::printf("%-12s %10s %10s %10s %10s %12s %10s\n", "receiver",
              "delivered", "dropped", "freezes", "re-shows", "late drops",
              "torn");
  for (std::size_t i = 0; i < result.receivers.size(); ++i) {
    const auto& r = result.receivers[i];
    const std::string who =
        i == 0 ? "headset" : "spectator " + std::to_string(i);
    std::printf("%-12s %10lld %10lld %10d %10lld %12lld %10lld\n", who.c_str(),
                static_cast<long long>(r.ledger.frames_delivered),
                static_cast<long long>(r.ledger.frames_dropped),
                r.ledger.freeze_events,
                static_cast<long long>(r.jitter.re_shows),
                static_cast<long long>(r.jitter.late_drops),
                static_cast<long long>(r.reassembly.frames_torn));
  }

  std::printf("\n---- Prometheus view (ctx.registry()) ----\n%s",
              obs::to_prometheus(ctx.registry()).c_str());
  return 0;
}
