// Multi-TX handover (§3): several ceiling transmitters cover occlusions
// and the GMs' limited field of view; link::HandoverProcess keeps the
// best usable TX active with hysteresis, paying a switch delay
// (re-pointing + SFP re-acquisition on the new TX).
#pragma once

#include <cassert>
#include <cstddef>
#include <span>

#include "event/scheduler.hpp"
#include "link/session_log.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"

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
  /// above `drop_threshold_dbm` before the switch-done timer fires, cancel
  /// the handover and keep serving from the old TX.
  bool cancel_on_reacquire = false;
};

/// Event-driven handover control: hysteresis + drop threshold, first-best
/// wins ties (the slot-polled reference manager in tests/oracle makes the
/// same decisions), with the switch completion on a cancellable Timer:
/// with HandoverConfig::cancel_on_reacquire set, a drop-triggered switch
/// is abandoned if the old TX recovers before the timer fires.  The
/// serving TX commits only when the timer dispatches, at its exact time.
class HandoverProcess final : public event::Process {
 public:
  /// Registers itself with `sched`; `log` (optional) receives kHandover /
  /// kReacquisition events at their exact timestamps.  ctx.registry()
  /// receives handover_{started,switches,cancelled}_total counters plus
  /// handover_{switch,reacq}_us histograms (time from the switch trigger
  /// to the commit / to the old TX reacquiring).
  HandoverProcess(std::size_t num_tx, HandoverConfig config,
                  event::Scheduler& sched, const runtime::Context& ctx,
                  SessionLog* log = nullptr);

  /// Feeds the per-TX achievable powers at sched.now(); returns the
  /// serving TX index, or -1 while a switch is in progress.
  int on_powers(std::span<const double> powers_dbm);

  void handle(event::Scheduler& sched, const event::Event& ev) override;

  int active() const noexcept { return active_; }
  /// Seeds the serving TX before handover takes over — initial placement
  /// (an admission controller assigning the session to its first TX).
  /// Not legal while a switch is pending.
  void set_active(int tx) noexcept {
    assert(!switch_pending_);
    active_ = tx;
  }
  bool switching() const noexcept { return switch_pending_; }
  /// Switches that took (or will take) effect: started minus cancelled.
  int switches() const noexcept { return started_ - cancelled_; }
  int started() const noexcept { return started_; }
  int cancelled_switches() const noexcept { return cancelled_; }

 private:
  HandoverConfig config_;
  std::size_t num_tx_;
  event::Scheduler& sched_;
  SessionLog* log_;
  event::ProcessId self_ = event::kNoProcess;
  int active_ = 0;
  bool switch_pending_ = false;
  bool switch_drop_triggered_ = false;
  int pending_target_ = 0;
  event::Timer switch_timer_;
  util::SimTimeUs switch_started_at_ = 0;
  int started_ = 0;
  int cancelled_ = 0;

  // Metric handles, hoisted by the constructor.
  obs::Counter* m_started_ = nullptr;
  obs::Counter* m_switches_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Histogram* m_switch_us_ = nullptr;
  obs::Histogram* m_reacq_us_ = nullptr;
};

}  // namespace cyclops::link
