#include "link/multi_tx.hpp"

#include <algorithm>

#include "link/handover.hpp"
#include "link/session_core.hpp"
#include "phy/fso_channel.hpp"
#include "session/lifecycle.hpp"

namespace cyclops::link {

TxChain make_tx_chain(std::uint64_t seed, const geom::Vec3& tx_position,
                      const sim::PrototypeConfig& base_config,
                      const runtime::Context& ctx) {
  sim::PrototypeConfig config = base_config;
  config.tx_position = tx_position;
  sim::Prototype proto = sim::make_prototype(seed, config);
  util::Rng rng(seed * 2654435761ULL + 1);
  core::CalibrationResult calibration =
      core::calibrate_prototype(proto, core::CalibrationConfig{}, rng, ctx);
  return TxChain(std::move(proto), std::move(calibration), ctx);
}

TxChain TxChain::from_truth(sim::Prototype p, const runtime::Context& ctx) {
  // Taken before `p` moves.
  core::CalibrationResult truth = core::truth_calibration(p);
  return TxChain(std::move(p), std::move(truth), ctx);
}

MultiTxResult run_multi_tx_session(
    std::vector<TxChain>& chains, const motion::MotionProfile& profile,
    const MultiTxConfig& config,
    const std::function<bool(util::SimTimeUs, std::size_t)>& occlusion,
    const runtime::Context& ctx, SessionLog* log) {
  MultiTxResult result;
  if (chains.empty()) return result;
  const std::size_t n = chains.size();

  // Per chain, as in the single-TX loop: a TP controller, a
  // phy::FsoChannel as the plant, pointed at the profile's start, and a
  // steering plane (no log: the session logs handovers only).
  std::vector<core::TpController> controllers;
  std::vector<phy::FsoChannel> channels;
  std::vector<detail::SteeringPlane> planes;
  controllers.reserve(n);
  channels.reserve(n);
  planes.reserve(n);
  for (TxChain& chain : chains) {
    controllers.emplace_back(chain.solver, config.tp);
    channels.emplace_back(chain.proto.scene);
    channels.back().set_voltages(chain.voltages);
    detail::pointed_start(chain.proto, controllers.back(), profile,
                          channels.back());
    planes.emplace_back(chain.proto, controllers.back(), channels.back(),
                        profile, nullptr);
  }

  util::SimClock& clock = *session::bind_session_clock(ctx);
  Handover handover(n, config.handover, ctx, log);

  // Each slot: a switch due by now commits, then occlusion, the chains'
  // steering steps, power sampling, the handover decision and service
  // accounting.
  const double sensitivity = channels.front().info().sensitivity;
  std::vector<int> usable(n, 0);
  std::vector<double> powers(n, 0.0);
  int served = 0;
  result.slots = detail::run_slot_grid(
      clock, config.step, util::us_from_s(profile.duration_s()),
      [&](util::SimTimeUs now) {
        handover.advance(now);
        const geom::Pose pose = profile.pose_at(now);
        // One headset, one tracker cadence: every chain reports when
        // chain 0's tracker captures.
        const bool report = planes.front().report_due(now);
        for (std::size_t i = 0; i < n; ++i) {
          detail::occlude_path(channels[i].scene(), pose,
                               occlusion && occlusion(now, i));
          planes[i].step(now, pose, report);
          powers[i] = channels[i].power_at(pose, now);
          if (powers[i] >= sensitivity) ++usable[i];
        }

        const int serving = handover.on_powers(now, powers);
        const bool serving_usable =
            serving >= 0 &&
            powers[static_cast<std::size_t>(serving)] >= sensitivity;
        if (serving_usable) ++served;
        if (config.on_slot) {
          const double power =
              serving >= 0 ? powers[static_cast<std::size_t>(serving)]
                           : *std::max_element(powers.begin(), powers.end());
          config.on_slot(now, serving, serving_usable, power);
        }
      });

  // The channels owned the applied voltages for the session; hand the
  // final values back so TxChain stays an honest snapshot for callers.
  for (std::size_t i = 0; i < n; ++i) {
    chains[i].voltages = channels[i].voltages();
  }

  const auto fraction = [&](int count) {
    return result.slots > 0
               ? static_cast<double>(count) / static_cast<double>(result.slots)
               : 0.0;
  };
  result.served_fraction = fraction(served);
  result.switches = handover.switches();
  result.cancelled_switches = handover.cancelled_switches();
  result.events = result.slots;
  result.per_tx_usable_fraction.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.per_tx_usable_fraction.push_back(fraction(usable[i]));
    result.best_single_tx_fraction = std::max(
        result.best_single_tx_fraction, result.per_tx_usable_fraction.back());
  }
  obs::Registry& registry = ctx.registry();
  registry.counter("multi_tx_slots_total").inc(result.slots);
  registry.counter("multi_tx_served_total")
      .inc(static_cast<std::uint64_t>(served));
  registry.counter("multi_tx_events_dispatched_total").inc(result.events);
  return result;
}

}  // namespace cyclops::link
