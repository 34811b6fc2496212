#include "link/session_core.hpp"

#include "core/exhaustive_aligner.hpp"
#include "obs/registry.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace detail {

void occlude_path(sim::Scene& scene, const geom::Pose& rig_pose,
                  bool blocked) {
  scene.clear_occluders();
  if (blocked) {
    const geom::Vec3 mid =
        (scene.tx().mount().translation() + rig_pose.translation()) * 0.5;
    scene.add_occluder({mid, 0.25});
  }
}

void pointed_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel) {
  proto.scene.set_rig_pose(profile.pose_at(0));
  channel.set_voltages(
      controller.solver()
          .solve(proto.tracker.ideal_report(proto.scene.rig_pose()),
                 channel.voltages())
          .voltages);
  proto.tracker.reset_schedule();  // simulation time restarts at 0
}

void aligned_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel, util::ThreadPool& pool) {
  pointed_start(proto, controller, profile, channel);
  const core::ExhaustiveAligner polish({}, pool);
  channel.set_voltages(polish.align(proto.scene, channel.voltages()).voltages);
  channel.force_up();
}

SteeringPlane::SteeringPlane(sim::Prototype& proto,
                             core::TpController& controller,
                             phy::FsoChannel& channel,
                             const motion::MotionProfile& profile,
                             SessionLog* log)
    : proto_(proto),
      controller_(controller),
      channel_(channel),
      profile_(profile),
      log_(log),
      lag_(util::us_from_ms(proto.tracker.config().position_lag_ms)),
      next_report_(proto.tracker.next_capture_time(0)) {}

SteerResult SteeringPlane::step(util::SimTimeUs now, const geom::Pose& pose,
                                bool report) {
  SteerResult out;
  if (report) {
    const geom::Pose lagged = profile_.pose_at(now > lag_ ? now - lag_ : 0);
    const tracking::PoseReport captured =
        proto_.tracker.report(now, pose, lagged);
    if (!captured.lost) {
      if (auto cmd = controller_.on_report(captured)) {
        out.queued = true;
        out.apply_time = cmd->apply_time;
        pending_.push_back(*cmd);
      } else {
        out.tp_failed = true;
        out.delivery_time = captured.delivery_time;
      }
    }
    // Drawn after the report: the tracker's RNG order is the oracle's.
    next_report_ = proto_.tracker.next_capture_time(now);
  }
  while (!pending_.empty() && now >= pending_.front().apply_time) {
    channel_.set_voltages(pending_.front().voltages);
    if (log_) {
      log_->on_event(pending_.front().apply_time,
                     SessionEventKind::kRealignment);
    }
    pending_.pop_front();
  }
  return out;
}

}  // namespace detail

RunResult run_channel_session(phy::Channel& channel,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options) {
  RunResult result;
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());
  channel.force_up();

  // Each slot: metric, link state, rate, window accounting.
  const phy::ChannelInfo& info = channel.info();
  detail::WindowTally tally;
  event::Scheduler sched(session::bind_session_clock(ctx));
  result.slots = detail::run_slot_grid(
      sched, options.step, duration, [&](util::SimTimeUs now) {
        const double power = channel.power_at(profile.pose_at(now), now);
        const bool up = channel.step(now, power);
        const double rate = up ? channel.rate_for(power) : 0.0;
        if (options.on_slot) options.on_slot(now, up, power);
        tally.add_slot(power, up, info.sensitivity, rate);
        if (tally.window_closes(now, options.step, options.window,
                                duration)) {
          result.windows.push_back(
              tally.flush(profile, now, options.step, options.window,
                          info.peak_rate_gbps, info.rate_adaptive));
        }
      });
  tally.finalize(result);
  result.events = sched.dispatched();

  obs::Registry& registry = ctx.registry();
  const obs::Labels labels{{"channel", info.name}};
  registry.counter("channel_session_slots_total", labels).inc(result.slots);
  registry.counter("channel_session_events_dispatched_total", labels)
      .inc(result.events);
  return result;
}

}  // namespace cyclops::link
