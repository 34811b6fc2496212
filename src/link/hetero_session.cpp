#include "link/hetero_session.hpp"

#include <array>
#include <deque>

#include "link/event_session.hpp"
#include "obs/config.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {
namespace {

/// One slot across both channels: FSO steering plane (quantized report
/// cadence, DAQ-latency command pipeline), both link-state machines, then
/// the margin-space handover decision and service/rate accounting.
class HeteroSlotProcess final : public event::Process {
 public:
  HeteroSlotProcess(sim::Prototype& proto, core::TpController& controller,
                    phy::FsoChannel& fso, phy::Channel& fallback,
                    const motion::MotionProfile& profile,
                    const HeteroConfig& config, HandoverProcess& handover,
                    HeteroResult& result, util::SimTimeUs duration)
      : proto_(proto),
        controller_(controller),
        fso_(fso),
        fallback_(fallback),
        profile_(profile),
        config_(config),
        handover_(handover),
        result_(result),
        duration_(duration),
        next_report_(proto.tracker.next_capture_time(0)) {}

  void set_self(event::ProcessId id) noexcept { self_ = id; }

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    const util::SimTimeUs now = ev.time;
    const geom::Pose pose = profile_.pose_at(now);

    sim::Scene& scene = fso_.scene();
    scene.clear_occluders();
    if (config_.fso_occlusion && config_.fso_occlusion(now)) {
      const geom::Vec3 mid =
          (scene.tx().mount().translation() + pose.translation()) * 0.5;
      scene.add_occluder({mid, 0.25});
    }

    // FSO steering plane (quantized to the slot grid, like
    // run_link_simulation).
    if (now >= next_report_) {
      const util::SimTimeUs lag =
          util::us_from_ms(proto_.tracker.config().position_lag_ms);
      const geom::Pose lagged = profile_.pose_at(now > lag ? now - lag : 0);
      const tracking::PoseReport report =
          proto_.tracker.report(now, pose, lagged);
      if (!report.lost) {
        if (auto cmd = controller_.on_report(report)) {
          pending_.push_back(*cmd);
          ++result_.realignments;
        }
      }
      next_report_ = proto_.tracker.next_capture_time(now);
    }
    while (!pending_.empty() && now >= pending_.front().apply_time) {
      fso_.set_voltages(pending_.front().voltages);
      if (log_) {
        log_->on_event(pending_.front().apply_time,
                       SessionEventKind::kRealignment);
      }
      pending_.pop_front();
    }

    // Both channels sample the same pose; the handover decision runs in
    // margin space so the metrics stay unit-consistent.
    const std::array<phy::Channel*, 2> channels = {&fso_, &fallback_};
    std::array<double, 2> metric{};
    std::array<bool, 2> up{};
    std::array<double, 2> margin{};
    for (std::size_t i = 0; i < channels.size(); ++i) {
      metric[i] = channels[i]->power_at(pose, now);
      up[i] = channels[i]->step(now, metric[i]);
      margin[i] = metric[i] - channels[i]->info().sensitivity;
      if (margin[i] >= 0.0) ++usable_[i];
    }

    const std::array<double, 2> decision = {
        margin[0], margin[1] - config_.fallback_penalty_db};
    const int serving = handover_.on_powers(decision);
    ++slots_;
    bool serving_up = false;
    double slot_rate = 0.0;
    if (serving >= 0) {
      const auto s = static_cast<std::size_t>(serving);
      if (serving != last_serving_) {
        // The switch delay just paid for re-pointing + re-acquisition on
        // the new channel (HandoverConfig::switch_delay_s), so its state
        // machine comes up with the commit — same semantics as multi-TX.
        channels[s]->force_up();
        up[s] = channels[s]->step(now, metric[s]);
        last_serving_ = serving;
      }
      ++serving_slots_[s];
      if (up[s]) {
        serving_up = true;
        slot_rate = channels[s]->rate_for(metric[s]);
        ++served_;
        rate_sum_ += slot_rate;
      }
    }
    if (config_.on_slot) config_.on_slot(now, serving, serving_up, slot_rate);

    const util::SimTimeUs next = now + config_.step;
    if (next < duration_) {
      event::Event slot;
      slot.time = next;
      slot.type = kEvSlotSample;
      slot.target = self_;
      sched.schedule(slot);
    }
  }

  void set_log(SessionLog* log) noexcept { log_ = log; }

  void finalize() {
    result_.served_fraction =
        slots_ > 0 ? static_cast<double>(served_) / slots_ : 0.0;
    result_.avg_rate_gbps = slots_ > 0 ? rate_sum_ / slots_ : 0.0;
    const std::array<const phy::Channel*, 2> channels = {&fso_, &fallback_};
    for (std::size_t i = 0; i < channels.size(); ++i) {
      HeteroChannelStats stats;
      stats.name = channels[i]->info().name;
      stats.usable_fraction =
          slots_ > 0 ? static_cast<double>(usable_[i]) / slots_ : 0.0;
      stats.serving_fraction =
          slots_ > 0 ? static_cast<double>(serving_slots_[i]) / slots_ : 0.0;
      result_.channels.push_back(stats);
    }
  }

  int slots() const noexcept { return slots_; }
  int served() const noexcept { return served_; }

 private:
  sim::Prototype& proto_;
  core::TpController& controller_;
  phy::FsoChannel& fso_;
  phy::Channel& fallback_;
  const motion::MotionProfile& profile_;
  const HeteroConfig& config_;
  HandoverProcess& handover_;
  HeteroResult& result_;
  util::SimTimeUs duration_;
  util::SimTimeUs next_report_;
  SessionLog* log_ = nullptr;
  event::ProcessId self_ = event::kNoProcess;

  std::deque<core::PendingCommand> pending_;
  int last_serving_ = 0;
  std::array<int, 2> usable_{};
  std::array<int, 2> serving_slots_{};
  int slots_ = 0;
  int served_ = 0;
  double rate_sum_ = 0.0;
};

}  // namespace

HeteroResult run_hetero_session(sim::Prototype& proto,
                                core::TpController& controller,
                                phy::Channel& fallback,
                                const motion::MotionProfile& profile,
                                const runtime::Context& ctx,
                                const HeteroConfig& config, SessionLog* log) {
  HeteroResult result;
  phy::FsoChannel fso(proto.scene);
  const util::SimTimeUs duration = util::us_from_s(profile.duration_s());

  // §5.3 aligned start, with the fallback channel up too.
  detail::aligned_start(proto, controller, profile, fso, ctx.pool());
  fallback.force_up();

  event::Scheduler sched(session::bind_session_clock(ctx));
  // Registered first: an equal-time switch-done timer commits before the
  // slot that samples it (same tie discipline as run_multi_tx_session).
  HandoverProcess handover(2, config.handover, sched, ctx, log);

  HeteroSlotProcess slot(proto, controller, fso, fallback, profile, config,
                         handover, result, duration);
  slot.set_log(log);
  const event::ProcessId slot_id = sched.add_process(&slot);
  slot.set_self(slot_id);
  if (duration > 0) {
    event::Event first;
    first.time = 0;
    first.type = kEvSlotSample;
    first.target = slot_id;
    sched.schedule(first);
  }
  sched.run();
  slot.finalize();

  result.switches = handover.switches();
  result.cancelled_switches = handover.cancelled_switches();
  result.events = sched.dispatched();
  result.slots = static_cast<std::uint64_t>(slot.slots());
  if constexpr (obs::kEnabled) {
    obs::Registry& registry = ctx.registry();
    registry.counter("hetero_slots_total").inc(result.slots);
    registry.counter("hetero_served_total")
        .inc(static_cast<std::uint64_t>(slot.served()));
    registry.counter("hetero_events_dispatched_total")
        .inc(sched.dispatched());
  }
  return result;
}

}  // namespace cyclops::link
