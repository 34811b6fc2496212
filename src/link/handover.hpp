// Multi-TX handover (§3): several ceiling transmitters cover occlusions
// and the GMs' limited field of view; link::Handover keeps the best
// usable TX active with hysteresis, paying a switch delay (re-pointing +
// SFP re-acquisition on the new TX).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>

#include "link/session_log.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::link {

struct HandoverConfig {
  /// New TX must beat the active one by this much to trigger a switch.
  double hysteresis_db = 3.0;
  /// Power below which the active TX is considered lost (e.g. the SFP
  /// sensitivity) and an immediate switch is allowed.
  double drop_threshold_dbm = -25.0;
  /// Time to re-point and re-acquire on the new TX.
  double switch_delay_s = 0.2;
  /// When a drop-triggered switch is pending and the old TX recovers
  /// above `drop_threshold_dbm` before the switch delay elapses, cancel
  /// the handover and keep serving from the old TX.
  bool cancel_on_reacquire = false;
};

/// Slot-polled handover control: hysteresis + drop threshold, first-best
/// wins ties (the reference manager in tests/oracle makes the same
/// decisions), and never onto a TX whose level is below the drop
/// threshold.  A switch commits at the first advance(now) at or after
/// its instant (trigger + switch_delay_s), stamped with that instant;
/// with HandoverConfig::cancel_on_reacquire set, a drop-triggered switch
/// is abandoned if the old TX recovers first.  A switch still pending
/// when the caller stops polling never commits.
class Handover {
 public:
  /// `log` (optional) receives kHandover / kReacquisition events at their
  /// instants.  ctx.registry() receives handover_{started,switches,
  /// cancelled}_total counters plus handover_{switch,reacq}_us histograms
  /// (time from the switch trigger to the commit / to the old TX
  /// reacquiring).
  Handover(std::size_t num_tx, HandoverConfig config,
           const runtime::Context& ctx, SessionLog* log = nullptr);

  /// Commits a pending switch whose instant is at or before `now`.  Call
  /// it first in each slot, before anything reads the handover's state.
  void advance(util::SimTimeUs now);

  /// Feeds the per-TX achievable powers at `now` (after advance(now));
  /// returns the serving TX index, or -1 while a switch is in progress.
  /// When `powers_dbm` carries a decision bias (run_hetero_session charges
  /// the fallback a penalty), `levels_dbm` holds the unbiased levels the
  /// never-onto-a-dead-TX check reads; empty means `powers_dbm`.
  int on_powers(util::SimTimeUs now, std::span<const double> powers_dbm,
                std::span<const double> levels_dbm = {});

  int active() const noexcept { return active_; }
  /// Seeds the serving TX before handover takes over — initial placement
  /// (an admission controller assigning the session to its first TX).
  /// Not legal while a switch is pending.
  void set_active(int tx) noexcept {
    assert(!switch_pending_);
    active_ = tx;
  }
  bool switching() const noexcept { return switch_pending_; }
  /// Switches committed (a started switch that is cancelled, or still
  /// pending when polling stops, never counts).
  int switches() const noexcept { return switches_; }
  int started() const noexcept { return started_; }
  int cancelled_switches() const noexcept { return cancelled_; }

 private:
  HandoverConfig config_;
  std::size_t num_tx_;
  util::SimTimeUs delay_;  ///< switch_delay_s in µs.
  SessionLog* log_;
  int active_ = 0;
  bool switch_pending_ = false;
  bool switch_drop_triggered_ = false;
  int pending_target_ = 0;
  double pending_power_ = 0.0;  ///< The target's power at the trigger.
  util::SimTimeUs switch_started_at_ = 0;
  int started_ = 0;
  int cancelled_ = 0;
  int switches_ = 0;

  // Metric handles, hoisted by the constructor.
  obs::Counter* m_started_ = nullptr;
  obs::Counter* m_switches_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Histogram* m_switch_us_ = nullptr;
  obs::Histogram* m_reacq_us_ = nullptr;
};

}  // namespace cyclops::link
