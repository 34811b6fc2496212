// Test-only oracle: the slot-polled multi-TX handover manager that
// link::Handover replaced.  It polls once per slot, commits a switch the
// instant it triggers, and blocks further switches (and service) until
// the switch delay has elapsed — it cannot cancel.
// HandoverProcessTest.MatchesLegacyManagerOnSlotSequence holds
// link::Handover to its decisions on a 1 ms slot sequence.
#pragma once

#include <cstddef>
#include <span>

#include "link/handover.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::oracle {

class HandoverManager {
 public:
  HandoverManager(std::size_t num_tx, link::HandoverConfig config)
      : config_(config), num_tx_(num_tx) {}

  /// Feeds the per-TX achievable powers for this instant; returns the
  /// index of the serving TX, or -1 while a switch is in progress.
  int step(util::SimTimeUs now, std::span<const double> powers_dbm);

  int active() const noexcept { return active_; }
  int switches() const noexcept { return switches_; }
  bool switching(util::SimTimeUs now) const noexcept {
    return now < switch_done_;
  }

 private:
  link::HandoverConfig config_;
  std::size_t num_tx_;
  int active_ = 0;
  int switches_ = 0;
  util::SimTimeUs switch_done_ = 0;
};

}  // namespace cyclops::oracle
