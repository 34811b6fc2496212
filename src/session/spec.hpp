// What a session IS, independent of how it runs: one value that names a
// workload variant plus the handful of knobs every variant understands.
// A SessionSpec is the unit the fleet simulator stripes across the
// driver pool — everything a runner needs must be derivable from
// (variant, seed, knobs) so a session is reproducible anywhere, in any
// order, on any thread (DESIGN.md §16).
#pragma once

#include <cstdint>

#include "util/sim_clock.hpp"

namespace cyclops::session {

/// The five legacy runner families, the streaming plane, and the
/// drift-injected online-recalibration scenario.  Every variant maps
/// onto one concrete SessionRunner in session/catalog.
enum class Variant : std::uint8_t {
  kLink,        ///< link::run_link_simulation (single-TX FSO closed loop)
  kChannel,     ///< link::run_channel_session (steering-free phy::Channel)
  kHetero,      ///< link::run_hetero_session (FSO + fallback, handover)
  kMultiTx,     ///< link::run_multi_tx_session (N TXs, one headset)
  kArena,       ///< arena::run_arena_session (N TXs × M headsets)
  kStream,      ///< stream::StreamPipeline (zero-copy data plane)
  kOnlineRecal, ///< cal::run_online_recal_session (drift + in-flight refit)
};

inline constexpr std::size_t kVariantCount = 7;

constexpr const char* variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::kLink: return "link";
    case Variant::kChannel: return "channel";
    case Variant::kHetero: return "hetero";
    case Variant::kMultiTx: return "multi_tx";
    case Variant::kArena: return "arena";
    case Variant::kStream: return "stream";
    case Variant::kOnlineRecal: return "online_recal";
  }
  return "unknown";
}

/// One session, fully specified.  Knobs a variant does not use are
/// ignored by its runner (e.g. spectators outside kStream); defaults
/// keep every variant cheap enough for 10k-session fleets.
struct SessionSpec {
  Variant variant = Variant::kChannel;
  /// Per-session RNG stream AND prototype/track seed.  Two specs that
  /// differ only in seed are fully independent workloads.
  std::uint64_t seed = 1;
  double duration_s = 1.0;
  /// Motion/scenario selector (catalog-defined per variant: viewing-trace
  /// style for the link family, arena::Scenario for kArena).
  std::uint32_t motion = 0;
  /// Motion intensity scale (1.0 = the paper's Fig-3 calibration).
  double intensity = 1.0;
  std::uint32_t num_tx = 2;       ///< kMultiTx / kArena
  std::uint32_t num_players = 4;  ///< kArena
  std::uint32_t spectators = 0;   ///< kStream fan-out
  util::SimTimeUs step_us = 1000; ///< Sampling slot where the variant has one.
};

}  // namespace cyclops::session
