#include "handover_manager.hpp"

#include <algorithm>
#include <cassert>

namespace cyclops::oracle {

int HandoverManager::step(util::SimTimeUs now,
                          std::span<const double> powers_dbm) {
  assert(powers_dbm.size() == num_tx_);
  if (num_tx_ == 0) return -1;

  const auto best_it =
      std::max_element(powers_dbm.begin(), powers_dbm.end());
  const int best = static_cast<int>(best_it - powers_dbm.begin());
  const double active_power = powers_dbm[static_cast<std::size_t>(active_)];

  const bool active_lost = active_power < config_.drop_threshold_dbm;
  const bool better = *best_it > active_power + config_.hysteresis_db;

  if (best != active_ && *best_it >= config_.drop_threshold_dbm &&
      (active_lost || better) && !switching(now)) {
    active_ = best;
    ++switches_;
    switch_done_ = now + util::us_from_s(config_.switch_delay_s);
  }
  return switching(now) ? -1 : active_;
}

}  // namespace cyclops::oracle
