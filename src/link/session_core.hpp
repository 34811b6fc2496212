// The event-driven session core: the engine behind every event-driven
// closed loop in src/link.
//
// One set of processes — plant, tracker, sampler — parameterized by a
// phy::Channel runs:
//   * run_link_session_events (exact timing discipline: jittered capture
//     times and DAQ+settle applies at their exact microseconds — agrees
//     closely but deliberately not bit-for-bit),
//   * run_multi_tx_session (per-chain FsoChannels + HandoverProcess),
//   * run_channel_session below — any phy::Channel (mmWave baseline, WDM)
//     with no steering plane, which is how bench/baseline_mmwave and
//     bench/future_wdm ride the same core,
//   * run_hetero_session (link/hetero_session) — FSO + fallback channel
//     in one scheduler.
// WindowTally, the window/total accounting, and aligned_start, the §5.3
// start-up alignment, are shared with run_link_simulation's plain slot
// loop (link/fso_link).
#pragma once

#include <algorithm>
#include <deque>
#include <limits>

#include "core/tp_controller.hpp"
#include "event/scheduler.hpp"
#include "link/fso_link.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "obs/config.hpp"
#include "obs/registry.hpp"
#include "phy/channel.hpp"
#include "phy/fso_channel.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"

namespace cyclops::link {

/// Event types of the session processes (payload: i64 = chain index for
/// apply/switch events).
enum SessionEventType : event::EventType {
  kEvReportCapture = 1,  ///< VRH-T captures (and delivers) a pose report.
  kEvApplyCommand,       ///< A DAQ voltage command finishes settling.
  kEvSlotSample,         ///< Periodic link sampling slot.
  kEvSwitchDone,         ///< Handover switch delay elapsed.
};

/// Scheduler-level accounting for a session; filled regardless of
/// CYCLOPS_OBS, unlike the registry counters.
struct EventSessionStats {
  std::uint64_t events = 0;     ///< Dispatched by the scheduler.
  std::uint64_t scheduled = 0;
  std::uint64_t slots = 0;      ///< Link slots sampled.
};

/// Runs `channel` over `profile` on the event scheduler with no
/// tracker/TP plane (mmWave baseline, WDM sweeps), starting with its
/// link-state machine up/trained (§5.3 protocol).  The RunResult's
/// windows carry the channel metric in the power fields, and
/// options.on_slot receives it as its third argument; throughput is
/// rate-aware (see RunResult::avg_rate_gbps).  The scheduler rides
/// ctx.clock() (reset to 0), and ctx.registry() receives
/// channel_session_{slots,events_dispatched}_total counters labeled
/// {channel=<name>}.
RunResult run_channel_session(phy::Channel& channel,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options = {},
                              EventSessionStats* stats = nullptr);

namespace detail {

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

/// The §5.3 aligned start every single-TX closed loop shares: poses the
/// rig at the profile's start, solves P from the ideal report, polishes
/// with an exhaustive search fanned out over `pool`, installs the result
/// in `channel` with its link-state machine up, and restarts the
/// tracker's capture schedule at 0.
void aligned_start(sim::Prototype& proto, core::TpController& controller,
                   const motion::MotionProfile& profile,
                   phy::FsoChannel& channel, util::ThreadPool& pool);

/// Hoisted session-plane metric handles; null members when the build
/// has CYCLOPS_OBS=OFF.
struct SessionMetrics {
  obs::Counter* realignments = nullptr;
  obs::Counter* tp_failures = nullptr;
  obs::Histogram* realign_latency_us = nullptr;
  obs::Histogram* link_off_us = nullptr;

  explicit SessionMetrics(const runtime::Context& ctx) {
    if constexpr (obs::kEnabled) {
      obs::Registry& registry = ctx.registry();
      realignments = &registry.counter("session_realignments_total");
      tp_failures = &registry.counter("session_tp_failures_total");
      realign_latency_us = &registry.histogram(
          "session_realign_latency_us", obs::HistogramSpec::duration_us());
      link_off_us = &registry.histogram("session_link_off_us",
                                        obs::HistogramSpec::duration_us());
    }
  }
};

/// State shared by the exact-timing session processes (single-TX closed
/// loop).  The plant — applied voltages and SFP state machine — is the
/// phy::FsoChannel.
struct SessionState {
  sim::Prototype& proto;
  core::TpController& controller;
  const motion::MotionProfile& profile;
  const SimOptions& options;
  SessionLog* log;
  SessionMetrics metrics;
  phy::FsoChannel& channel;

  std::deque<core::PendingCommand> pending;
  util::SimTimeUs duration = 0;

  RunResult result;
  WindowTally tally;

  // Link-down span tracking for the session_link_off_us histogram
  // (-1 until the first sampled slot fixes the initial state).
  int prev_up = -1;
  util::SimTimeUs down_since = 0;

  /// Applies every command whose settle completed by `now`, logging each
  /// at its exact apply instant (not the sampling slot).
  void drain_commands(util::SimTimeUs now) {
    while (!pending.empty() && now >= pending.front().apply_time) {
      channel.set_voltages(pending.front().voltages);
      if (log) {
        log->on_event(pending.front().apply_time,
                      SessionEventKind::kRealignment);
      }
      pending.pop_front();
    }
  }
};

/// VRH-T process: captures a (noisy, jittered-cadence) report at its
/// exact capture time, runs the TP controller, and schedules the command
/// application at the controller's exact DAQ+settle completion time.
class TrackerProcess final : public event::Process {
 public:
  TrackerProcess(SessionState& s, event::ProcessId plant)
      : s_(s), plant_(plant) {}

  void handle(event::Scheduler& sched, const event::Event&) override;

  void set_self(event::ProcessId self) { self_ = self; }

 private:
  SessionState& s_;
  event::ProcessId plant_;
  event::ProcessId self_ = event::kNoProcess;
};

/// Plant process: kEvApplyCommand events land here at their exact
/// completion times and drain into the channel's applied voltages.
class PlantProcess final : public event::Process {
 public:
  explicit PlantProcess(SessionState& s) : s_(s) {}

  void handle(event::Scheduler& sched, const event::Event&) override {
    s_.drain_commands(sched.now());
  }

 private:
  SessionState& s_;
};

/// Periodic link sampler: the only fixed-cadence process left — the
/// optics must be integrated over the continuous rig motion, and the
/// physics step is that quadrature.  Window flushing matches the oracle
/// loop so WindowSamples stay comparable.
class SamplerProcess final : public event::Process {
 public:
  explicit SamplerProcess(SessionState& s) : s_(s) {}

  void handle(event::Scheduler& sched, const event::Event&) override;

  void set_self(event::ProcessId self) { self_ = self; }

 private:
  SessionState& s_;
  event::ProcessId self_ = event::kNoProcess;
};

}  // namespace detail
}  // namespace cyclops::link
