// Movement-tolerance measurement, §5.1's methodology as an API:
// exhaustively align the link, then perturb one terminal from the aligned
// position (no TP running) until received power falls below the SFP
// sensitivity.  Binary-searched over the worst perturbation axis, exactly
// how Table 1 and Fig 11 are produced.  Every function aligns with an
// exhaustive search whose rasters fan out over `pool`.
#pragma once

#include "sim/prototype.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::core {

/// Peak received power after exhaustive alignment at the nominal pose.
double aligned_peak_power_dbm(sim::Prototype& proto, util::ThreadPool& pool);

/// Angular movement tolerance of the TX terminal (rad): rigid rotation of
/// the whole TX assembly about its GM mirror, worst of the two transverse
/// axes and both signs.
double tx_angular_tolerance(sim::Prototype& proto, util::ThreadPool& pool);

/// Angular movement tolerance of the RX terminal (rad): the rotation-stage
/// measurement — rotate the rig about the RX GM mirror.
double rx_angular_tolerance(sim::Prototype& proto, util::ThreadPool& pool);

}  // namespace cyclops::core
