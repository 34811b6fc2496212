// Multi-TX handover (§3): several ceiling transmitters cover occlusions
// and the GMs' limited field of view; link::HandoverProcess
// (link/event_session.hpp) keeps the best usable TX active with
// hysteresis, paying a switch delay (re-pointing + SFP re-acquisition on
// the new TX).
#pragma once

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

}  // namespace cyclops::link
