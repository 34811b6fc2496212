#include "link/fso_link.hpp"

#include <deque>

#include "core/exhaustive_aligner.hpp"
#include "link/session_core.hpp"
#include "phy/fso_channel.hpp"

namespace cyclops::link {

RunResult run_link_simulation(sim::Prototype& proto,
                              core::TpController& controller,
                              const motion::MotionProfile& profile,
                              const SimOptions& options) {
  RunResult result;
  phy::FsoChannel channel(proto.scene);
  const phy::ChannelInfo& info = channel.info();
  detail::WindowTally tally;
  // DAQ pipeline: each command applies at its own time even when the
  // report period is shorter than the conversion latency.
  std::deque<core::PendingCommand> pending;
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());

  // §5.3 protocol: each run starts from an aligned link.
  proto.scene.set_rig_pose(profile.pose_at(0));
  const core::PointingResult initial = controller.solver().solve(
      proto.tracker.ideal_report(proto.scene.rig_pose()), channel.voltages());
  const core::ExhaustiveAligner polish;
  channel.set_voltages(polish.align(proto.scene, initial.voltages).voltages);
  channel.force_up();
  proto.tracker.reset_schedule();  // simulation time restarts at 0
  util::SimTimeUs next_report = proto.tracker.next_capture_time(0);

  for (util::SimTimeUs now = 0; now < duration; now += options.step) {
    const geom::Pose pose = profile.pose_at(now);

    // Tracker report?  Reports land on the slot grid; the report path
    // never reads the scene, so deferring the rig-pose write into
    // power_at below is arithmetic-neutral.
    if (now >= next_report) {
      const util::SimTimeUs lag =
          util::us_from_ms(proto.tracker.config().position_lag_ms);
      const geom::Pose lagged = profile.pose_at(now > lag ? now - lag : 0);
      const tracking::PoseReport report =
          proto.tracker.report(now, pose, lagged);
      if (!report.lost) {
        if (auto cmd = controller.on_report(report)) {
          pending.push_back(*cmd);
          ++result.realignments;
        }
      }
      next_report = proto.tracker.next_capture_time(now);
    }
    // Apply pending realignments once their latency has elapsed.
    while (!pending.empty() && now >= pending.front().apply_time) {
      channel.set_voltages(pending.front().voltages);
      pending.pop_front();
    }

    const double power = channel.power_at(pose, now);
    const bool up = channel.step(now, power);
    if (options.on_slot) options.on_slot(now, up, power);

    tally.add_slot(power, up, info.sensitivity,
                   up ? info.peak_rate_gbps : 0.0);
    if (tally.window_closes(now, options.step, options.window, duration)) {
      result.windows.push_back(tally.flush(profile, now, options.step,
                                           options.window,
                                           info.peak_rate_gbps,
                                           info.rate_adaptive));
    }
  }

  tally.finalize(result);
  result.tp_failures = controller.failures();
  result.avg_pointing_iterations = controller.avg_pointing_iterations();
  return result;
}

}  // namespace cyclops::link
