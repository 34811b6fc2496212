// Heterogeneous FSO → fallback sessions: the Cyclops FSO chain and a
// second phy::Channel (typically phy::MmWaveChannel — §2.1's 60 GHz
// baseline as a fallback radio, or a phy::WdmChannel) run side by side in
// ONE event scheduler, with HandoverProcess arbitrating between them.
//
// Channels report metrics in different units (dBm vs SNR dB vs margin
// dB), so the handover decision runs in *margin space*: each channel
// contributes metric − sensitivity, and HandoverConfig::drop_threshold_dbm
// is therefore 0.0 by default here ("drop when the serving channel loses
// its own link margin").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/tp_controller.hpp"
#include "link/handover.hpp"
#include "link/session_core.hpp"
#include "link/session_log.hpp"
#include "motion/profile.hpp"
#include "phy/channel.hpp"
#include "runtime/context.hpp"
#include "sim/prototype.hpp"

namespace cyclops::link {

struct HeteroConfig {
  /// Handover thresholds in margin space (dB above each channel's own
  /// sensitivity).  Hysteresis keeps the session on FSO while it holds.
  HandoverConfig handover{.hysteresis_db = 3.0, .drop_threshold_dbm = 0.0};
  /// Policy bias for the primary: the fallback's margin is charged this
  /// many dB in the handover decision (not in usable_fraction).  mmWave
  /// SNR margins are numerically far larger than optical ones, so without
  /// a bias the session would camp on the fallback; with it, the fallback
  /// serves only while the FSO chain is actually degraded.
  double fallback_penalty_db = 30.0;
  util::SimTimeUs step = 1000;
  /// Optional FSO LOS obstruction (occluder mid-beam while true); the
  /// fallback channel models its own blockage (MmWaveChannelConfig).
  std::function<bool(util::SimTimeUs)> fso_occlusion;
  /// Optional per-slot tap: (slot time, serving channel index or -1
  /// mid-switch, serving link up, delivered rate in Gbps — 0 while down).
  /// This is how a streaming data plane rides the session: capture the
  /// rate timeline here and feed it to stream::StreamPipeline as its
  /// CapacityFn (examples/spectator_demo.cpp).
  std::function<void(util::SimTimeUs, int, bool, double)> on_slot;
};

struct HeteroChannelStats {
  std::string name;
  double usable_fraction = 0.0;   ///< Slots with non-negative margin.
  double serving_fraction = 0.0;  ///< Slots this channel was serving.
};

struct HeteroResult {
  /// Fraction of slots where the serving channel carried traffic.
  double served_fraction = 0.0;
  /// Mean delivered rate over all slots (serving channel's rate ladder).
  double avg_rate_gbps = 0.0;
  int switches = 0;
  int cancelled_switches = 0;
  int realignments = 0;  ///< TP realignments on the FSO chain.
  std::uint64_t events = 0;
  std::uint64_t slots = 0;  ///< Sampling slots run.
  std::vector<HeteroChannelStats> channels;  ///< [0] = FSO, [1] = fallback.
};

/// Runs the FSO chain of `proto`/`controller` plus `fallback` over
/// `profile` in one scheduler, from the §5.3 aligned start: FSO steered
/// onto the RX (the alignment polish fans out over ctx.pool()) and both
/// link-state machines forced up/trained.  The slot grid rides
/// ctx.clock() (reset to 0).  `log` (optional) receives kHandover /
/// kReacquisition / kRealignment events; ctx.registry() receives
/// hetero_{slots,served,events_dispatched}_total counters plus the
/// HandoverProcess metrics.  Throws std::invalid_argument for
/// config.step <= 0.
HeteroResult run_hetero_session(sim::Prototype& proto,
                                core::TpController& controller,
                                phy::Channel& fallback,
                                const motion::MotionProfile& profile,
                                const runtime::Context& ctx,
                                const HeteroConfig& config = {},
                                SessionLog* log = nullptr);

}  // namespace cyclops::link
