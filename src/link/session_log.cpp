#include "link/session_log.hpp"

#include <algorithm>

namespace cyclops::link {

const char* to_string(SessionEventKind kind) noexcept {
  switch (kind) {
    case SessionEventKind::kLinkUp:
      return "link_up";
    case SessionEventKind::kLinkDown:
      return "link_down";
    case SessionEventKind::kRealignment:
      return "realignment";
    case SessionEventKind::kTpFailure:
      return "tp_failure";
    case SessionEventKind::kHandover:
      return "handover";
    case SessionEventKind::kReacquisition:
      return "reacquisition";
  }
  return "unknown";
}

void SessionLog::on_event(util::SimTimeUs now, SessionEventKind kind,
                          double power_dbm) {
  events_.push_back({now, kind, power_dbm});
  last_time_ = std::max(last_time_, now);
}

void SessionLog::on_slot(util::SimTimeUs now, bool up, double power_dbm) {
  if (!have_state_) {
    have_state_ = true;
    last_up_ = up;
    events_.push_back({now,
                       up ? SessionEventKind::kLinkUp
                          : SessionEventKind::kLinkDown,
                       power_dbm});
  } else if (up != last_up_) {
    last_up_ = up;
    events_.push_back({now,
                       up ? SessionEventKind::kLinkUp
                          : SessionEventKind::kLinkDown,
                       power_dbm});
  }
  last_time_ = now;
}

int SessionLog::count(SessionEventKind kind) const {
  return static_cast<int>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const SessionEvent& e) { return e.kind == kind; }));
}

double SessionLog::longest_outage_s() const {
  double longest = 0.0;
  util::SimTimeUs down_since = -1;
  for (const auto& event : events_) {
    if (event.kind == SessionEventKind::kLinkDown) {
      down_since = event.time;
    } else if (event.kind == SessionEventKind::kLinkUp && down_since >= 0) {
      longest = std::max(longest, util::us_to_s(event.time - down_since));
      down_since = -1;
    }
  }
  if (down_since >= 0) {
    longest = std::max(longest, util::us_to_s(last_time_ - down_since));
  }
  return longest;
}

}  // namespace cyclops::link
