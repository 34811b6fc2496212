// The closed-loop link control plane on the discrete-event engine.
//
// run_link_session_events runs the closed loop as processes: the VRH-T
// schedules its own (jittered) capture events at exact times, TpController
// commands apply at their exact DAQ+settle completion instants, and the
// SFP sampler rides periodic slot events.  HandoverProcess gives multi-TX
// selection a real cancellable switch timer — including handovers
// cancelled by the old TX reacquiring.
//
// run_link_simulation (link/fso_link) is the production slot loop behind
// Figs 13-15; the fixed-step oracle it must match bit for bit is
// tests/oracle/fixed_step.  The event session agrees with the slot loop
// closely (asserted in tests) but not bit for bit, because its reports
// are not quantized to the physics step.
#pragma once

#include <cassert>
#include <span>

#include "core/tp_controller.hpp"
#include "event/scheduler.hpp"
#include "link/fso_link.hpp"
#include "link/handover.hpp"
#include "link/session_core.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"

namespace cyclops::link {

/// Event-driven counterpart of run_link_simulation; the whole session
/// runs on `ctx`.  Its SimClock is reset to 0 and becomes the session
/// timeline (the scheduler advances it in place, so ctx.clock().now()
/// reads the session's current time), and the §5.3 start-up alignment
/// polish fans out over its pool.  `log` (optional) receives per-slot
/// transitions plus exact-time kRealignment events; `stats` (optional)
/// receives the engine's event and slot counts.
///
/// ctx.registry() receives session-plane metrics:
/// session_{realignments,tp_failures,slots,events_dispatched}_total
/// counters, the session_realign_latency_us histogram (report capture to
/// command settle, §5.2's end-to-end realignment latency) and the
/// session_link_off_us histogram (contiguous link-down spans, §5.4's
/// distributional view).  All values are sim-time quantities, so they are
/// deterministic; no-op in CYCLOPS_OBS=OFF builds.
RunResult run_link_session_events(sim::Prototype& proto,
                                  core::TpController& controller,
                                  const motion::MotionProfile& profile,
                                  const runtime::Context& ctx,
                                  const SimOptions& options = {},
                                  SessionLog* log = nullptr,
                                  EventSessionStats* stats = nullptr);

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

  // Hoisted metric handles (null in OBS=OFF builds).
  obs::Counter* m_started_ = nullptr;
  obs::Counter* m_switches_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Histogram* m_switch_us_ = nullptr;
  obs::Histogram* m_reacq_us_ = nullptr;
};

}  // namespace cyclops::link
