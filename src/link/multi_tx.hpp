// Multi-TX rig: several ceiling transmitters serving one headset, with
// per-TX calibrated TP chains and handover — the §3 occlusion/coverage
// architecture as a first-class API (examples/handover_demo shows the
// manual version).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/tp_controller.hpp"
#include "link/handover.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "runtime/context.hpp"

namespace cyclops::link {

/// One calibrated TX chain.
struct TxChain {
  sim::Prototype proto;
  core::CalibrationResult calibration;
  core::PointingSolver solver;
  sim::Voltages voltages{};

  /// The chain's PointingSolver tallies its G' telemetry into
  /// `ctx.registry()`, so `ctx` must outlive the chain.
  TxChain(sim::Prototype p, core::CalibrationResult c,
          const runtime::Context& ctx)
      : proto(std::move(p)),
        calibration(std::move(c)),
        solver(calibration.make_pointing_solver({}, ctx)) {}

  /// Chain with a truth "calibration" — ground-truth galvo models and
  /// mappings lifted straight from the prototype, no sample collection or
  /// LM fits.  The LP-scale path (session catalog, fleet benches): a chain
  /// in microseconds instead of the full calibrate_prototype pipeline.
  static TxChain from_truth(sim::Prototype p, const runtime::Context& ctx);
};

struct MultiTxConfig {
  HandoverConfig handover;
  util::SimTimeUs step = 1000;
  /// Per-chain TP configuration (DAQ latency, optional pose prediction).
  core::TpConfig tp;
  /// Per-slot decision tap (mirrors HeteroConfig::on_slot): called after
  /// the handover decision each sampling slot with (time, serving TX index
  /// or -1 while a switch is in flight, serving-TX-usable, serving power
  /// dBm — the best power seen this slot when mid-switch).  The structured
  /// trail behind "which TX carried slot t and why did we leave it".
  std::function<void(util::SimTimeUs, int, bool, double)> on_slot;
};

struct MultiTxResult {
  double served_fraction = 0.0;        ///< Slots with a usable serving TX.
  double best_single_tx_fraction = 0.0;  ///< Best TX alone (baseline).
  int switches = 0;
  /// Switches started but abandoned because the old TX reacquired before
  /// the switch delay elapsed (HandoverConfig::cancel_on_reacquire).
  int cancelled_switches = 0;
  std::uint64_t events = 0;  ///< Session events: one per slot.
  std::uint64_t slots = 0;   ///< Sampling slots run.
  std::vector<double> per_tx_usable_fraction;
};

/// Builds a TX chain: prototype at `tx_position` + full calibration.
/// Calibration (sample collection, LM fits, alignment fan-out) runs on
/// `ctx` — its pool, and its registry for the opt-plane metrics.
TxChain make_tx_chain(std::uint64_t seed, const geom::Vec3& tx_position,
                      const sim::PrototypeConfig& base_config,
                      const runtime::Context& ctx);

/// Runs a multi-TX session over `profile` on the session core's slot grid.
/// Each chain starts pointed (P's answer for the ideal report at the
/// profile's start) and steers through its own SteeringPlane; all chains
/// report together, at chain 0's tracker captures, as one headset's
/// tracker would feed them.  A handover commits at the first slot at or
/// after its switch instant, and one still pending at the end never
/// does.  `occlusion(t, tx_index)` says whether the given TX's path is
/// blocked at time t (the scene occluders are managed internally from
/// it).  `log` (optional) receives kHandover / kReacquisition events at
/// their instants.  Throws std::invalid_argument for config.step <= 0.
///
/// The slot grid rides ctx.clock() (reset to 0 at session start, advanced
/// in place — ctx.clock().now() reads the session's current time).
/// ctx.registry() receives multi_tx_{slots,served,events_dispatched}_total
/// counters plus the handover metrics documented on Handover
/// (switches, cancellations, reacquisition time).
MultiTxResult run_multi_tx_session(
    std::vector<TxChain>& chains, const motion::MotionProfile& profile,
    const MultiTxConfig& config,
    const std::function<bool(util::SimTimeUs, std::size_t)>& occlusion,
    const runtime::Context& ctx, SessionLog* log = nullptr);

}  // namespace cyclops::link
