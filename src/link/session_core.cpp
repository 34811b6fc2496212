#include "link/session_core.hpp"

#include "core/exhaustive_aligner.hpp"
#include "obs/registry.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace detail {

void aligned_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel, util::ThreadPool& pool) {
  proto.scene.set_rig_pose(profile.pose_at(0));
  const core::PointingResult initial = controller.solver().solve(
      proto.tracker.ideal_report(proto.scene.rig_pose()), channel.voltages());
  const core::ExhaustiveAligner polish({}, pool);
  channel.set_voltages(polish.align(proto.scene, initial.voltages).voltages);
  channel.force_up();
  proto.tracker.reset_schedule();  // simulation time restarts at 0
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

SteerResult SteeringPlane::step(util::SimTimeUs now, const geom::Pose& pose) {
  SteerResult out;
  if (now >= next_report_) {
    const geom::Pose lagged = profile_.pose_at(now > lag_ ? now - lag_ : 0);
    const tracking::PoseReport report =
        proto_.tracker.report(now, pose, lagged);
    if (!report.lost) {
      if (auto cmd = controller_.on_report(report)) {
        out.queued = true;
        out.apply_time = cmd->apply_time;
        pending_.push_back(*cmd);
      } else {
        out.tp_failed = true;
        out.delivery_time = report.delivery_time;
      }
    }
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

namespace {

/// Slot process of a steering-free channel session: metric, link state,
/// rate, window accounting — no tracker/TP plane.
class ChannelSlotProcess final : public event::Process {
 public:
  ChannelSlotProcess(phy::Channel& channel,
                     const motion::MotionProfile& profile,
                     const SimOptions& options,
                     util::SimTimeUs duration, RunResult& result)
      : channel_(channel),
        profile_(profile),
        options_(options),
        duration_(duration),
        result_(result) {}

  void handle(event::Scheduler& sched, const event::Event&) override {
    const util::SimTimeUs now = sched.now();
    const double power = channel_.power_at(profile_.pose_at(now), now);
    const bool up = channel_.step(now, power);
    const double rate = up ? channel_.rate_for(power) : 0.0;
    if (options_.on_slot) options_.on_slot(now, up, power);

    const phy::ChannelInfo& info = channel_.info();
    tally_.add_slot(power, up, info.sensitivity, rate);
    if (tally_.window_closes(now, options_.step, options_.window, duration_)) {
      result_.windows.push_back(
          tally_.flush(profile_, now, options_.step, options_.window,
                       info.peak_rate_gbps, info.rate_adaptive));
    }
    if (now + options_.step < duration_) {
      event::Event slot;
      slot.time = now + options_.step;
      slot.type = kEvSlotSample;
      slot.target = self_;
      sched.schedule(slot);
    }
  }

  void set_self(event::ProcessId self) { self_ = self; }
  void finalize() { tally_.finalize(result_); }
  int total_slots() const noexcept { return tally_.total_slots; }

 private:
  phy::Channel& channel_;
  const motion::MotionProfile& profile_;
  const SimOptions& options_;
  util::SimTimeUs duration_;
  RunResult& result_;
  detail::WindowTally tally_;
  event::ProcessId self_ = event::kNoProcess;
};

}  // namespace

RunResult run_channel_session(phy::Channel& channel,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options,
                              EventSessionStats* stats) {
  RunResult result;
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());
  channel.force_up();

  event::Scheduler sched(session::bind_session_clock(ctx));

  ChannelSlotProcess slots(channel, profile, options, duration, result);
  const event::ProcessId slots_id = sched.add_process(&slots);
  slots.set_self(slots_id);
  if (duration > 0) {
    event::Event slot;
    slot.time = 0;
    slot.type = kEvSlotSample;
    slot.target = slots_id;
    sched.schedule(slot);
  }
  sched.run();
  slots.finalize();

  if (stats != nullptr) {
    stats->events = sched.dispatched();
    stats->scheduled = sched.scheduled();
    stats->slots = static_cast<std::uint64_t>(slots.total_slots());
  }
  obs::Registry& registry = ctx.registry();
  const obs::Labels labels{{"channel", channel.info().name}};
  registry.counter("channel_session_slots_total", labels)
      .inc(static_cast<std::uint64_t>(slots.total_slots()));
  registry.counter("channel_session_events_dispatched_total", labels)
      .inc(sched.dispatched());
  return result;
}

}  // namespace cyclops::link
