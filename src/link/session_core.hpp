// The session core of src/link: what the four link drivers share.
//
//   * run_channel_session below runs any phy::Channel (mmWave baseline,
//     WDM) with no steering plane, which is how bench/baseline_mmwave and
//     bench/future_wdm ride the event scheduler.
//   * run_link_simulation (link/fso_link) runs the single-TX closed loop,
//     run_hetero_session (link/hetero_session) FSO plus a fallback channel
//     in one scheduler, and run_multi_tx_session (link/multi_tx) per-chain
//     FsoChannels with HandoverProcess (link/handover).
//
// All four are bodies on one slot grid (run_slot_grid).  WindowTally, the
// window/total accounting, is shared by the channel and link sessions;
// SteeringPlane, the slot-grid steering step, by the other three.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "core/tp_controller.hpp"
#include "event/scheduler.hpp"
#include "link/fso_link.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "phy/channel.hpp"
#include "phy/fso_channel.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"

namespace cyclops::link {

/// Event types of the session processes.
enum SessionEventType : event::EventType {
  kEvSlotSample = 1,  ///< Periodic link sampling slot.
  kEvSwitchDone,      ///< Handover switch delay elapsed.
};

/// Runs `channel` over `profile` on the event scheduler with no
/// tracker/TP plane (mmWave baseline, WDM sweeps), starting with its
/// link-state machine up/trained (§5.3 protocol).  The RunResult's
/// windows carry the channel metric in the power fields, and
/// options.on_slot receives it as its third argument; throughput is
/// rate-aware (see RunResult::avg_rate_gbps).  The scheduler rides
/// ctx.clock() (reset to 0), and ctx.registry() receives
/// channel_session_{slots,events_dispatched}_total counters labeled
/// {channel=<name>}.  Throws std::invalid_argument for options.step <= 0.
RunResult run_channel_session(phy::Channel& channel,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options = {});

namespace detail {

/// The slot grid's process: runs the body, then schedules the next slot.
template <typename Slot>
struct SlotGridProcess final : event::Process {
  SlotGridProcess(Slot& body, util::SimTimeUs step, util::SimTimeUs duration)
      : body(body), step(step), duration(duration) {}

  void handle(event::Scheduler& sched, const event::Event& ev) override {
    body(ev.time);
    ++slots;
    if (ev.time + step < duration) {
      event::Event next = ev;
      next.time += step;
      sched.schedule(next);
    }
  }

  Slot& body;
  util::SimTimeUs step, duration;
  std::uint64_t slots = 0;
};

/// The slot grid every link driver runs on: calls `slot(now)` at 0, step,
/// 2·step, ... while now < duration, one event on `sched` per slot, drains
/// `sched`, and returns the number of slots run.  The grid's process
/// registers after any the caller registered, and each next slot is
/// scheduled after the body ran, so a timer armed before a slot's event
/// (a HandoverProcess switch) dispatches first at equal times.  The grid's
/// process lives for this call only: `sched` must not dispatch after it.
/// Throws std::invalid_argument for step <= 0.
template <typename Slot>
std::uint64_t run_slot_grid(event::Scheduler& sched, util::SimTimeUs step,
                            util::SimTimeUs duration, Slot&& slot) {
  if (step <= 0) throw std::invalid_argument("slot step <= 0");
  SlotGridProcess<std::remove_reference_t<Slot>> grid(slot, step, duration);
  event::Event first;
  first.type = kEvSlotSample;
  first.target = sched.add_process(&grid);
  if (duration > 0) sched.schedule(first);
  // Devirtualized when the grid is the scheduler's only process.
  first.target == 0 ? sched.run_single(grid) : sched.run();
  return grid.slots;
}

/// Clears `scene`'s occluders and, when `blocked`, puts a 0.25 m occluder
/// halfway between the TX mount and the rig at `rig_pose`: the LOS
/// blockage of the hetero and multi-TX sessions.
void occlude_path(sim::Scene& scene, const geom::Pose& rig_pose,
                  bool blocked);

/// Window/total accounting — an exact transcription of the fixed-step
/// loop's accumulator arithmetic (same statement order, same types), so
/// every engine built on it stays bit-identical to the oracle.  `rate` is
/// the slot's delivered rate for RunResult::avg_rate_gbps; fixed-rate
/// flushes still derive throughput from up_fraction * peak, exactly as
/// the oracle does.
struct WindowTally {
  util::SimTimeUs window_start = 0;
  double power_sum = 0.0;
  double min_power = std::numeric_limits<double>::infinity();
  double min_power_all = std::numeric_limits<double>::infinity();
  int power_ok_slots = 0;
  int up_slots = 0;
  int slots = 0;
  double rate_sum = 0.0;

  double total_up = 0.0;
  int total_slots = 0;
  double total_rate = 0.0;

  void add_slot(double power, bool up, double sensitivity, double rate) {
    ++slots;
    ++total_slots;
    min_power_all = std::min(min_power_all, power);
    if (power >= sensitivity) ++power_ok_slots;
    if (up) {
      ++up_slots;
      total_up += 1.0;
      power_sum += power;
      min_power = std::min(min_power, power);
    }
    rate_sum += rate;
    total_rate += rate;
  }

  /// True when the slot ending at `now` closes a window (the oracle's
  /// flush predicate, verbatim).
  bool window_closes(util::SimTimeUs now, util::SimTimeUs step,
                     util::SimTimeUs window, util::SimTimeUs duration) const {
    return (now + step) % window < step || now + step >= duration;
  }

  WindowSample flush(const motion::MotionProfile& profile, util::SimTimeUs now,
                     util::SimTimeUs step, util::SimTimeUs window,
                     double peak_rate_gbps, bool rate_adaptive) {
    WindowSample sample;
    sample.t_s = util::us_to_s(window_start);
    const motion::Speeds speeds =
        motion::measure_speeds(profile, window_start + window / 2);
    sample.linear_speed_mps = speeds.linear_mps;
    sample.angular_speed_rps = speeds.angular_rps;
    sample.up_fraction =
        slots > 0 ? static_cast<double>(up_slots) / slots : 0.0;
    sample.throughput_gbps =
        rate_adaptive ? (slots > 0 ? rate_sum / slots : 0.0)
                      : sample.up_fraction * peak_rate_gbps;
    sample.avg_power_dbm =
        up_slots > 0 ? power_sum / up_slots
                     : -std::numeric_limits<double>::infinity();
    sample.min_power_dbm =
        up_slots > 0 ? min_power : -std::numeric_limits<double>::infinity();
    sample.min_power_all_dbm =
        slots > 0 ? min_power_all : -std::numeric_limits<double>::infinity();
    sample.power_ok_fraction =
        slots > 0 ? static_cast<double>(power_ok_slots) / slots : 0.0;

    window_start = now + step;
    power_sum = 0.0;
    min_power = std::numeric_limits<double>::infinity();
    min_power_all = std::numeric_limits<double>::infinity();
    power_ok_slots = 0;
    up_slots = 0;
    slots = 0;
    rate_sum = 0.0;
    return sample;
  }

  void finalize(RunResult& result) const {
    result.total_up_fraction =
        total_slots > 0 ? total_up / total_slots : 0.0;
    result.avg_rate_gbps = total_slots > 0 ? total_rate / total_slots : 0.0;
  }
};

/// The pointed start of every steered chain: poses the rig at the
/// profile's start, installs in `channel` P's answer for the ideal report
/// there (solved from the channel's voltages), and restarts the tracker's
/// capture schedule at 0.
void pointed_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel);

/// The §5.3 aligned start every single-TX closed loop shares: the pointed
/// start, polished with an exhaustive search fanned out over `pool`, with
/// the channel's link-state machine up.
void aligned_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel, util::ThreadPool& pool);

/// What one slot's steering step did; each caller keeps its own
/// counters.
struct SteerResult {
  bool queued = false;     ///< A delivered report queued a TP command.
  bool tp_failed = false;  ///< A delivered report's TP solve failed.
  util::SimTimeUs delivery_time = 0;  ///< That report's delivery time.
  util::SimTimeUs apply_time = 0;     ///< The queued command's settle time.
};

/// One chain's steering plane on the slot grid, shared by
/// run_link_simulation, run_hetero_session and run_multi_tx_session: a
/// VRH-T report when one is due, its TP command queued through the DAQ
/// pipeline, and every queued command applied to `channel` at the first
/// slot at or after its own apply time (even when the report period is
/// shorter than the conversion latency).  `log` (optional) receives a
/// kRealignment at each applied command's apply time.  Construct it after
/// pointed_start or aligned_start, which restart the tracker's capture
/// schedule.
class SteeringPlane {
 public:
  SteeringPlane(sim::Prototype& proto, core::TpController& controller,
                phy::FsoChannel& channel,
                const motion::MotionProfile& profile, SessionLog* log);

  /// True when this plane's tracker is due to capture at `now`.
  bool report_due(util::SimTimeUs now) const noexcept {
    return now >= next_report_;
  }

  /// Runs the slot at `now`, where the rig sits at `pose`, reporting when
  /// report_due(now).  The report path never reads the scene, so it may
  /// run before the slot's optics.
  SteerResult step(util::SimTimeUs now, const geom::Pose& pose) {
    return step(now, pose, report_due(now));
  }

  /// The same, reporting when `report` says so: chains that serve one
  /// headset report together, at the instants one plane's report_due
  /// picks (each still from its own tracker).
  SteerResult step(util::SimTimeUs now, const geom::Pose& pose, bool report);

 private:
  sim::Prototype& proto_;
  core::TpController& controller_;
  phy::FsoChannel& channel_;
  const motion::MotionProfile& profile_;
  SessionLog* log_;
  util::SimTimeUs lag_;
  util::SimTimeUs next_report_;
  std::deque<core::PendingCommand> pending_;
};

}  // namespace detail
}  // namespace cyclops::link
