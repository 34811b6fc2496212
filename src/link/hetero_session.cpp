#include "link/hetero_session.hpp"

#include <array>

#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {

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
  // Registered before the slot grid: an equal-time switch-done timer
  // commits before the slot that samples it (same tie discipline as
  // run_multi_tx_session).
  HandoverProcess handover(2, config.handover, sched, ctx, log);

  // Each slot across both channels: the FSO steering step, both link-state
  // machines, then the margin-space handover decision and service/rate
  // accounting.
  detail::SteeringPlane steering(proto, controller, fso, profile, log);
  const std::array<phy::Channel*, 2> channels = {&fso, &fallback};
  int last_serving = 0;
  std::array<int, 2> usable{};
  std::array<int, 2> serving_slots{};
  int served = 0;
  double rate_sum = 0.0;
  result.slots = detail::run_slot_grid(
      sched, config.step, duration, [&](util::SimTimeUs now) {
        const geom::Pose pose = profile.pose_at(now);
        detail::occlude_path(fso.scene(), pose,
                             config.fso_occlusion && config.fso_occlusion(now));
        if (steering.step(now, pose).queued) ++result.realignments;

        // Both channels sample the same pose; the handover decision runs in
        // margin space so the metrics stay unit-consistent.
        std::array<double, 2> metric{};
        std::array<bool, 2> up{};
        std::array<double, 2> margin{};
        for (std::size_t i = 0; i < channels.size(); ++i) {
          metric[i] = channels[i]->power_at(pose, now);
          up[i] = channels[i]->step(now, metric[i]);
          margin[i] = metric[i] - channels[i]->info().sensitivity;
          if (margin[i] >= 0.0) ++usable[i];
        }

        const std::array<double, 2> decision = {
            margin[0], margin[1] - config.fallback_penalty_db};
        const int serving = handover.on_powers(decision);
        bool serving_up = false;
        double slot_rate = 0.0;
        if (serving >= 0) {
          const auto s = static_cast<std::size_t>(serving);
          if (serving != last_serving) {
            // The switch delay just paid for re-pointing + re-acquisition
            // on the new channel (HandoverConfig::switch_delay_s), so its
            // state machine comes up with the commit — same semantics as
            // multi-TX.
            channels[s]->force_up();
            up[s] = channels[s]->step(now, metric[s]);
            last_serving = serving;
          }
          ++serving_slots[s];
          if (up[s]) {
            serving_up = true;
            slot_rate = channels[s]->rate_for(metric[s]);
            ++served;
            rate_sum += slot_rate;
          }
        }
        if (config.on_slot) config.on_slot(now, serving, serving_up, slot_rate);
      });

  const auto fraction = [&](double count) {
    return result.slots > 0 ? count / static_cast<double>(result.slots) : 0.0;
  };
  result.served_fraction = fraction(served);
  result.avg_rate_gbps = fraction(rate_sum);
  for (std::size_t i = 0; i < channels.size(); ++i) {
    HeteroChannelStats stats;
    stats.name = channels[i]->info().name;
    stats.usable_fraction = fraction(usable[i]);
    stats.serving_fraction = fraction(serving_slots[i]);
    result.channels.push_back(stats);
  }
  result.switches = handover.switches();
  result.cancelled_switches = handover.cancelled_switches();
  result.events = sched.dispatched();
  obs::Registry& registry = ctx.registry();
  registry.counter("hetero_slots_total").inc(result.slots);
  registry.counter("hetero_served_total")
      .inc(static_cast<std::uint64_t>(served));
  registry.counter("hetero_events_dispatched_total").inc(result.events);
  return result;
}

}  // namespace cyclops::link
