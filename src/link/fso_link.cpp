#include "link/fso_link.hpp"

#include "link/session_core.hpp"
#include "link/session_log.hpp"
#include "obs/registry.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace {

/// Hoisted session-plane metric handles, looked up once per session.
struct SessionMetrics {
  obs::Counter* realignments = nullptr;
  obs::Counter* tp_failures = nullptr;
  obs::Histogram* realign_latency_us = nullptr;
  obs::Histogram* link_off_us = nullptr;

  explicit SessionMetrics(const runtime::Context& ctx) {
    obs::Registry& registry = ctx.registry();
    realignments = &registry.counter("session_realignments_total");
    tp_failures = &registry.counter("session_tp_failures_total");
    realign_latency_us = &registry.histogram(
        "session_realign_latency_us", obs::HistogramSpec::duration_us());
    link_off_us = &registry.histogram("session_link_off_us",
                                      obs::HistogramSpec::duration_us());
  }
};

}  // namespace

RunResult run_link_simulation(sim::Prototype& proto,
                              core::TpController& controller,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options, SessionLog* log) {
  RunResult result;
  phy::FsoChannel channel(proto.scene);
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());

  // §5.3 protocol: each run starts from an aligned link.
  detail::aligned_start(proto, controller, profile, channel, ctx.pool());

  // Each slot: the steering step, then the optics read-out, the SFP state
  // machine and the window accounting.
  detail::SteeringPlane steering(proto, controller, channel, profile, log);
  const SessionMetrics metrics(ctx);
  const phy::ChannelInfo& info = channel.info();
  detail::WindowTally tally;
  int prev_up = -1;  // until the first slot fixes the initial link state
  util::SimTimeUs down_since = 0;
  util::SimClock& clock = *session::bind_session_clock(ctx);
  result.slots = detail::run_slot_grid(
      clock, options.step, duration, [&](util::SimTimeUs now) {
        const geom::Pose pose = profile.pose_at(now);
        const detail::SteerResult steer = steering.step(now, pose);
        if (steer.queued) {
          ++result.realignments;
          metrics.realignments->inc();
          metrics.realign_latency_us->record(
              static_cast<double>(steer.apply_time - now));
        } else if (steer.tp_failed) {
          if (log) {
            log->on_event(steer.delivery_time, SessionEventKind::kTpFailure);
          }
          metrics.tp_failures->inc();
        }

        const double power = channel.power_at(pose, now);
        const bool up = channel.step(now, power);
        if (options.on_slot) options.on_slot(now, up, power);
        if (log) log->on_slot(now, up, power);
        // Contiguous down spans, measured slot-edge to slot-edge.
        if (prev_up != 0 && !up) down_since = now;
        if (prev_up == 0 && up) {
          metrics.link_off_us->record(static_cast<double>(now - down_since));
        }
        prev_up = up ? 1 : 0;

        tally.add_slot(power, up, info.sensitivity,
                       up ? info.peak_rate_gbps : 0.0);
        if (tally.window_closes(now, options.step, options.window,
                                duration)) {
          result.windows.push_back(
              tally.flush(profile, now, options.step, options.window,
                          info.peak_rate_gbps, info.rate_adaptive));
        }
      });
  tally.finalize(result);
  result.events = result.slots;

  result.tp_failures = controller.failures();
  result.avg_pointing_iterations = controller.avg_pointing_iterations();
  if (log) log->finish(result);
  obs::Registry& registry = ctx.registry();
  registry.counter("session_slots_total").inc(result.slots);
  registry.counter("session_events_dispatched_total").inc(result.events);
  return result;
}

}  // namespace cyclops::link
