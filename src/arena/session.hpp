// The arena session: N TXs × M headsets under shared airspace, run on
// the link session core's slot grid (link::detail::run_slot_grid).
//
// Each slot ticks the world (track kinematics, occlusion, margins, drift
// accounting, scheduling, service), and M link::Handover instances — the
// same switch machinery the single-headset multi-TX rig uses — arbitrate
// each headset's serving TX over the *candidate margin* vector:
//
//   candidate[tx] = geo margin − contention penalty × roster load,
//                   capacity-masked for non-serving TXs.
//
// A commit (the first tick at or after the switch delay) migrates the
// headset between TX rosters and force-up's its fine pointing: the new
// TX re-acquires on commit, so the first scheduled slot after a
// migration delivers data — the §5.3 force_up semantics mapped onto the
// arena's drift model.
//
// Fine-pointing drift: Cyclops' coarse pose comes from the VRH-T and is
// always fresh, but the sub-mrad TP correction (§4's feedback loop)
// converges only while the beam is on the receiver.  Between serve slots
// the residual error grows with the headset's motion; a serve slot
// whose drift-penalized margin is still non-negative delivers peak rate
// and re-converges the loop, otherwise the slot is spent re-pointing
// (no data) and the loop re-converges anyway.  This is what couples the
// scheduler policy to capacity: fast-turning headsets need fresher
// serves, and a policy that anticipates the turn keeps them aligned.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "arena/admission.hpp"
#include "arena/scheduler.hpp"
#include "arena/topology.hpp"
#include "link/handover.hpp"
#include "runtime/context.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::arena {

struct ArenaOptions {
  SchedulerConfig scheduler;
  SlaConfig sla;
  /// Handover thresholds in candidate-margin space.  drop_threshold is
  /// below zero so contention penalties alone (a loaded but visible TX)
  /// never fake a drop; a blocked beam (kBlockedMarginDb) always does.
  link::HandoverConfig handover{.hysteresis_db = 3.0,
                                .drop_threshold_dbm = -6.0,
                                .switch_delay_s = 0.15,
                                .cancel_on_reacquire = true};
  util::SimTimeUs slot = 2000;  ///< Galvo slot / world tick (µs).
  double duration_s = 30.0;
  /// dB charged per roster occupant on a candidate TX, so handover
  /// prefers less-loaded TXs when geometry is comparable.
  double contention_penalty_db = 0.75;
  /// Drift below this is free (the TP loop's converged residual).
  double drift_free_rad = 0.01;
  /// Margin penalty per radian of accumulated drift beyond the free
  /// allowance — the knob that makes scheduling frequency matter.
  double drift_penalty_db_per_rad = 200.0;
  /// Scenario hook: TX `i` is dead at time `t` (margins collapse to
  /// kBlockedMarginDb; its headsets drop-trigger migrations).
  std::function<bool(util::SimTimeUs, std::size_t)> tx_failed;
};

enum class ArenaEventKind {
  kAdmitted,
  kQueued,
  kRejected,
  kMigrated,   ///< TX↔TX handover committed (force_up on the new TX).
  kEvicted,    ///< Unservable past the grace period; back to the queue.
  kTxFailed,
};
const char* to_string(ArenaEventKind kind) noexcept;

/// The accountability trail: every admission-control and migration
/// decision, in tick order.  Invariant (property-tested): an admitted
/// headset never stops being served without a kMigrated/kEvicted entry.
struct ArenaEvent {
  util::SimTimeUs time = 0;
  ArenaEventKind kind = ArenaEventKind::kAdmitted;
  int headset = -1;
  int tx = -1;  ///< Target TX (admission/migration) or failed TX.
};

struct HeadsetQoE {
  bool admitted = false;     ///< Ever held a roster slot.
  int final_tx = -1;         ///< Serving TX at session end (-1 if none).
  double avg_rate_gbps = 0.0;
  double served_fraction = 0.0;    ///< Galvo slots granted / ticks active.
  double delivered_fraction = 0.0; ///< Slots that carried data / ticks.
  double occluded_fraction = 0.0;  ///< Ticks the serving beam was blocked.
  double longest_outage_s = 0.0;   ///< Longest gap between data slots.
  int migrations = 0;
  bool sla_met = false;  ///< admitted && avg_rate >= SLA minimum.
};

struct ArenaResult {
  std::vector<HeadsetQoE> headsets;
  std::vector<double> per_tx_duty;  ///< Serve slots / ticks (0 with no tick).
  int admissions = 0;
  int queued = 0;
  int rejections = 0;
  int migrations = 0;
  int cancelled_migrations = 0;
  int evictions = 0;
  /// Slots a TX emitted beyond its frame budget.  Zero by construction;
  /// counted (and gated in bench/check.sh) rather than trusted.
  int duty_violations = 0;
  /// Delivered / scheduled serve slots (how much granted galvo time
  /// actually carried data).
  double schedule_efficiency = 0.0;
  std::uint64_t events = 0;  ///< World ticks run: one per slot.
  std::uint64_t slots = 0;   ///< Serve slots emitted, summed over TXs.
  std::vector<ArenaEvent> log;

  int sla_met_count() const;
};

/// Runs the arena on a slot grid that rides ctx.clock() (reset to 0 — one
/// context, one session timeline): one tick per options.slot below
/// options.duration_s, so a 0-s session runs none.  ctx.registry() receives
/// arena_{admissions,queued,rejections,migrations,evictions,slots,
/// delivered_slots,duty_violations,tx_failures}_total counters, the
/// arena_headset_rate_gbps and arena_occlusion_outage_us histograms, and
/// the per-headset link::Handover metrics (handover_*).  Deterministic:
/// same topology + options give byte-identical results at any driver-pool
/// thread count (the session itself never touches a pool).  Throws
/// std::invalid_argument for options.slot <= 0.
ArenaResult run_arena_session(const ArenaTopology& topology,
                              const ArenaOptions& options,
                              const runtime::Context& ctx);

}  // namespace cyclops::arena
