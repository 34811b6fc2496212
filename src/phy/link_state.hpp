// SFP/NIC link-state machine, shared by every phy::Channel adapter.  The
// link is usable while the metric >= sensitivity; after any drop it needs
// `link_up_delay` of continuous light before traffic flows again (§5.3:
// "takes a few seconds to regain the link").
#pragma once

#include "util/sim_clock.hpp"

namespace cyclops::phy {

class LinkStateMachine {
 public:
  LinkStateMachine(double sensitivity_dbm, util::SimTimeUs link_up_delay)
      : sensitivity_dbm_(sensitivity_dbm), link_up_delay_(link_up_delay) {}

  /// Feeds one power observation; returns whether traffic flows now.
  bool step(util::SimTimeUs now, double power_dbm);

  bool up() const noexcept { return up_; }
  void force_up() noexcept { up_ = true; }

 private:
  double sensitivity_dbm_;
  util::SimTimeUs link_up_delay_;
  bool up_ = false;
  bool light_ = false;
  util::SimTimeUs light_since_ = 0;
};

}  // namespace cyclops::phy
