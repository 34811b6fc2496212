// Session logging: record a closed-loop run (per-window link metrics and
// discrete events).  A deployed system needs this trail to diagnose "why
// did my headset freeze at 14:32".
#pragma once

#include <vector>

#include "link/fso_link.hpp"

namespace cyclops::link {

enum class SessionEventKind {
  kLinkUp,
  kLinkDown,
  kRealignment,
  kTpFailure,
  kHandover,       ///< Switch to another TX completed.
  kReacquisition,  ///< Pending switch cancelled: the old TX came back.
};

struct SessionEvent {
  util::SimTimeUs time = 0;
  SessionEventKind kind = SessionEventKind::kLinkUp;
  double power_dbm = 0.0;
};

const char* to_string(SessionEventKind kind) noexcept;

/// Collects per-slot samples into events + keeps the run's windows.
class SessionLog {
 public:
  /// Feeds one slot (wire into SimOptions::on_slot).
  void on_slot(util::SimTimeUs now, bool up, double power_dbm);

  /// Records a discrete event at its *exact* (event-engine) timestamp —
  /// realignments, handovers, and reacquisitions land between slot
  /// boundaries, and the event-driven control plane reports them here
  /// un-quantized.
  void on_event(util::SimTimeUs now, SessionEventKind kind,
                double power_dbm = 0.0);

  /// Attach the run result (windows etc.) once the simulation finishes.
  void finish(const RunResult& result) { windows_ = result.windows; }

  const std::vector<SessionEvent>& events() const noexcept { return events_; }
  const std::vector<WindowSample>& windows() const noexcept {
    return windows_;
  }

  /// Counts by kind.
  int count(SessionEventKind kind) const;

  /// Longest continuous down period (seconds).
  double longest_outage_s() const;

 private:
  std::vector<SessionEvent> events_;
  std::vector<WindowSample> windows_;
  bool have_state_ = false;
  bool last_up_ = false;
  util::SimTimeUs last_time_ = 0;
};

}  // namespace cyclops::link
