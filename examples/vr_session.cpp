// A complete VR session over the 25G Cyclops link: a user watches a
// one-minute 360° video (synthetic head trace), the TP loop keeps the
// beam aligned, and the renderer streams raw 90 fps frames over the link.
//
// Reports both the link-level §5.4 metrics (operational slots) and the
// user-level ones (frames delivered on time, freezes).  The closed loop
// runs as one slot process on the discrete-event engine.
#include <cstdio>

#include "core/calibration.hpp"
#include "link/fso_link.hpp"
#include "link/session_log.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "obs/obs.hpp"
#include "runtime/context.hpp"
#include "stream/frame_source.hpp"
#include "stream/freeze_ledger.hpp"
#include "stream/rate_adapter.hpp"
#include "stream/wire_queue.hpp"
#include "util/units.hpp"

using namespace cyclops;

int main() {
  std::printf("== VR session over the 25G Cyclops link ==\n\n");

  // One context for the whole session: the global pool for speed, but a
  // session-local registry — every layer below records into it through
  // the context, and the report ends with the Prometheus text view
  // (README quickstart).
  obs::Registry registry;
  runtime::Context ctx(util::ThreadPool::global(), registry);

  // Hardware + calibration.
  sim::Prototype proto = sim::make_prototype(42, sim::prototype_25g_config());
  util::Rng rng(5);
  const core::CalibrationResult calib =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
  std::printf("calibrated: stage-2 residual %.1f mm over %zu tuples\n",
              util::m_to_mm(calib.mapping.avg_coincidence_m),
              calib.stage2_samples.size());

  // A one-minute 360° viewing trace anchored at the rig's deployed pose.
  motion::TraceGeneratorConfig trace_config;
  util::Rng trace_rng(2023);
  const motion::Trace trace = motion::generate_viewing_trace(
      proto.nominal_rig_pose, trace_config, trace_rng);
  const motion::TraceMotion profile(trace);
  std::printf("trace: %.0f s of head motion, %zu samples\n",
              profile.duration_s(), trace.samples.size());

  // Renderer: raw 90 fps stream sized to ~85%% of the link goodput.
  stream::FrameSourceConfig source_config;
  source_config.fps = 90.0;
  source_config.stream_rate_gbps =
      0.85 * proto.scene.config().sfp.goodput_gbps;
  source_config.size_jitter = 0.03;
  stream::FrameSource source(source_config, util::Rng(17));
  // The wire queue serializes frames onto the link; its ledger keeps the
  // QoE tallies and the stream_* metrics.
  stream::FreezeLedger ledger;
  ledger.set_obs(&ctx.registry());
  stream::WireQueue wire(stream::WireQueueConfig{}, ledger);
  std::printf("stream: %.0f fps, %.1f Gbps raw (%.0f Mbit/frame)\n\n",
              source_config.fps, source_config.stream_rate_gbps,
              source_config.mean_frame_bits() / 1e6);

  // Closed loop with the wire queue and the adaptive-mode controller
  // riding the per-slot callback; run_link_simulation feeds the session
  // log.
  core::TpController controller(calib.make_pointing_solver({}, ctx),
                                core::TpConfig{});
  stream::RatePolicy adaptive_policy;
  adaptive_policy.raw_rate_gbps = source_config.stream_rate_gbps;
  stream::EncoderRateAdapter adaptive(adaptive_policy, ctx);
  link::SessionLog log;

  link::SimOptions options;
  options.step = 1000;  // 1 ms slots, as in §5.4
  const double goodput = proto.scene.config().sfp.goodput_gbps;
  options.on_slot = [&](util::SimTimeUs now, bool up, double) {
    adaptive.step(now, up ? goodput : 0.0);
    while (const auto frame = source.poll(now)) {
      wire.offer(frame->id, frame->render_time, frame->bits);
    }
    wire.step(now, options.step, up ? goodput : 0.0);
  };

  link::EventSessionStats engine_stats;
  const link::RunResult run = link::run_link_simulation(
      proto, controller, profile, ctx, options, &log, &engine_stats);

  // ---- report ----
  std::printf("link:   operational %.2f%% of 1 ms slots, %d realignments, "
              "avg P iterations %.1f\n",
              100.0 * run.total_up_fraction, run.realignments,
              run.avg_pointing_iterations);
  std::printf("engine: %llu events dispatched (%llu scheduled), one per "
              "slot\n",
              static_cast<unsigned long long>(engine_stats.events),
              static_cast<unsigned long long>(engine_stats.scheduled));

  const stream::LedgerStats& stats = ledger.stats();
  std::printf("frames: %lld offered, %lld delivered (%.2f%%), %lld dropped\n",
              static_cast<long long>(stats.frames_offered),
              static_cast<long long>(stats.frames_delivered),
              100.0 * stats.delivery_rate(),
              static_cast<long long>(stats.frames_dropped));
  std::printf("        delivery latency %.1f ms avg / %.1f ms max; "
              "%d freeze events (longest %d frames)\n",
              stats.avg_delivery_latency_ms, stats.max_delivery_latency_ms,
              stats.freeze_events, stats.longest_freeze_frames);

  const double effective_gbps = run.total_up_fraction * goodput;
  std::printf("\neffective bandwidth %.1f Gbps — "
              "%s for the %.1f Gbps stream\n",
              effective_gbps,
              effective_gbps > source_config.stream_rate_gbps ? "sufficient"
                                                              : "NOT enough",
              source_config.stream_rate_gbps);
  std::printf("adaptive controller: %d mode switches; final mode %s\n",
              adaptive.mode_switches(),
              stream::to_string(adaptive.mode()));
  std::printf("session log: %d link-down events, longest outage %.2f s\n",
              log.count(link::SessionEventKind::kLinkDown),
              log.longest_outage_s());

  // The solver tallies (G'/LM) already live in the context's registry —
  // no global-registry fold needed; add the pool dispatch stats and dump.
  obs::record_thread_pool(registry, ctx.pool());
  std::printf("\n== telemetry (Prometheus text exposition) ==\n%s",
              obs::to_prometheus(registry).c_str());
  return 0;
}
