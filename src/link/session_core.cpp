#include "link/session_core.hpp"

#include "core/exhaustive_aligner.hpp"
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

void TrackerProcess::handle(event::Scheduler& sched, const event::Event&) {
  const util::SimTimeUs now = sched.now();
  const geom::Pose pose = s_.profile.pose_at(now);
  const util::SimTimeUs lag =
      util::us_from_ms(s_.proto.tracker.config().position_lag_ms);
  const geom::Pose lagged = s_.profile.pose_at(now > lag ? now - lag : 0);
  const tracking::PoseReport report =
      s_.proto.tracker.report(now, pose, lagged);
  if (!report.lost) {
    if (auto cmd = s_.controller.on_report(report)) {
      ++s_.result.realignments;
      s_.pending.push_back(*cmd);
      event::Event apply;
      apply.time = std::max(now, cmd->apply_time);
      apply.type = kEvApplyCommand;
      apply.target = plant_;
      sched.schedule(apply);
      if constexpr (obs::kEnabled) {
        s_.metrics.realignments->inc();
        s_.metrics.realign_latency_us->record(
            static_cast<double>(apply.time - now));
      }
    } else {
      if (s_.log) {
        s_.log->on_event(report.delivery_time, SessionEventKind::kTpFailure);
      }
      if constexpr (obs::kEnabled) s_.metrics.tp_failures->inc();
    }
  }
  const util::SimTimeUs next = s_.proto.tracker.next_capture_time(now);
  if (next < s_.duration) {
    event::Event capture;
    capture.time = next;
    capture.type = kEvReportCapture;
    capture.target = self_;
    sched.schedule(capture);
  }
}

void SamplerProcess::handle(event::Scheduler& sched, const event::Event&) {
  const util::SimTimeUs now = sched.now();
  // Ties between an apply event and a slot at the same microsecond must
  // resolve apply-first (the legacy loop applies before sampling).
  s_.drain_commands(now);
  const double power = s_.channel.power_at(s_.profile.pose_at(now), now);
  const bool up = s_.channel.step(now, power);
  if (s_.options.on_slot) s_.options.on_slot(now, up, power);
  if (s_.log) s_.log->on_slot(now, up, power);
  if constexpr (obs::kEnabled) {
    // Contiguous down spans, measured slot-edge to slot-edge.
    if (s_.prev_up != 0 && !up) s_.down_since = now;
    if (s_.prev_up == 0 && up) {
      s_.metrics.link_off_us->record(static_cast<double>(now - s_.down_since));
    }
    s_.prev_up = up ? 1 : 0;
  }

  const phy::ChannelInfo& info = s_.channel.info();
  s_.tally.add_slot(power, up, info.sensitivity,
                    up ? info.peak_rate_gbps : 0.0);
  const util::SimTimeUs step = s_.options.step;
  if (s_.tally.window_closes(now, step, s_.options.window, s_.duration)) {
    s_.result.windows.push_back(s_.tally.flush(s_.profile, now, step,
                                               s_.options.window,
                                               info.peak_rate_gbps,
                                               info.rate_adaptive));
  }
  if (now + step < s_.duration) {
    event::Event slot;
    slot.time = now + step;
    slot.type = kEvSlotSample;
    slot.target = self_;
    sched.schedule(slot);
  }
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
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    const obs::Labels labels{{"channel", channel.info().name}};
    registry.counter("channel_session_slots_total", labels)
        .inc(static_cast<std::uint64_t>(slots.total_slots()));
    registry.counter("channel_session_events_dispatched_total", labels)
        .inc(sched.dispatched());
  }
  return result;
}

}  // namespace cyclops::link
