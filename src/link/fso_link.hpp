// Closed-loop FSO link simulation: rig motion + VRH-T reports + TP
// realignment + optics + SFP link-state machine, sampled at sub-ms
// resolution.  This is the engine behind Figs 13-15, the fleet's `link`
// sessions and examples/vr_session.
//
// run_link_simulation runs on the session core's slot grid over
// phy::FsoChannel, with its window accounting and steering step
// (link/session_core): tracker reports land on the slot grid, and each TP
// command applies at the first slot at or after its DAQ+settle
// completion.  Its per-window output is bit-identical to the original
// 0.5 ms loop, which survives as a test-only oracle (tests/oracle;
// enforced in tests/session_core_test and bench/fig13).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/tp_controller.hpp"
#include "motion/profile.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::link {

class SessionLog;

struct SimOptions {
  util::SimTimeUs step = 500;        ///< Physics step (0.5 ms).
  util::SimTimeUs window = 50000;    ///< Throughput window (50 ms, §5.3).
  /// Optional per-step observer: (time, traffic flows?, received power).
  /// Lets higher layers (e.g. the VR frame streamer) ride the simulation.
  std::function<void(util::SimTimeUs, bool, double)> on_slot;
};

/// One measurement window (the iperf/50 ms rows of Figs 13-15).
struct WindowSample {
  double t_s = 0.0;
  double throughput_gbps = 0.0;
  double avg_power_dbm = 0.0;   ///< Mean over up-slots; -inf if none.
  double min_power_dbm = 0.0;   ///< Min over up-slots; -inf if none.
  /// Min over *all* slots in the window — measures alignment capability
  /// independent of the SFP re-acquisition state machine.
  double min_power_all_dbm = 0.0;
  /// Fraction of the window's slots whose raw power meets the RX
  /// sensitivity (also re-acquisition-independent).
  double power_ok_fraction = 0.0;
  double linear_speed_mps = 0.0;
  double angular_speed_rps = 0.0;
  double up_fraction = 0.0;
};

struct RunResult {
  std::vector<WindowSample> windows;
  double total_up_fraction = 0.0;
  /// Mean delivered rate over all slots (Gbps).  For the fixed-rate FSO
  /// channel this is total_up_fraction * goodput; for rate-adaptive
  /// channels (phy::MmWaveChannel, phy::WdmChannel via
  /// run_channel_session) it is the MCS/lane-ladder average.
  double avg_rate_gbps = 0.0;
  int realignments = 0;
  int tp_failures = 0;
  double avg_pointing_iterations = 0.0;
  std::uint64_t events = 0;  ///< Session events: one per slot.
  std::uint64_t slots = 0;   ///< Sampling slots run.
};

/// Runs the closed loop for the duration of `profile`, starting from a
/// perfectly aligned link (the §5.3 test protocol); the start-up
/// alignment polish fans out over `ctx.pool()`.  The slot grid rides
/// ctx.clock(), reset to 0, so ctx.clock().now() reads the session's
/// time.  `log` (optional) receives the per-slot link transitions, a
/// kRealignment at each applied command's apply time and a kTpFailure at
/// each failed report's delivery time, then the run's windows.  Throws
/// std::invalid_argument for options.step <= 0.
///
/// ctx.registry() receives session-plane metrics:
/// session_{realignments,tp_failures,slots,events_dispatched}_total
/// counters, the session_realign_latency_us histogram (report capture to
/// command settle, §5.2's end-to-end realignment latency) and the
/// session_link_off_us histogram (contiguous link-down spans, slot edge
/// to slot edge, §5.4's distributional view).  All values are sim-time
/// quantities, so they are deterministic.
RunResult run_link_simulation(sim::Prototype& proto,
                              core::TpController& controller,
                              const motion::MotionProfile& profile,
                              const runtime::Context& ctx,
                              const SimOptions& options = {},
                              SessionLog* log = nullptr);

}  // namespace cyclops::link
