// Rendered-frame traffic source.
//
// Models the renderer-to-VRH payload the paper motivates in §2.1: raw
// (uncompressed) video frames at a fixed rate.  E.g. an 8K RGB stream at
// 30 fps is ~24 Gbps (0.8 Gbit per frame); a 90 fps stream at 20 Gbps is
// ~222 Mbit per frame.  Frames are generated on a fixed clock; sizes can
// carry a small jitter to model per-frame content variation.  Feed them
// to a WireQueue (WireQueue::offer takes id, render time and bits).
#pragma once

#include <cstdint>
#include <optional>

#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

struct FrameSourceConfig {
  double fps = 90.0;
  double stream_rate_gbps = 20.0;
  /// Relative per-frame size jitter (sigma as a fraction of the mean).
  double size_jitter = 0.0;

  double mean_frame_bits() const noexcept {
    return stream_rate_gbps * 1e9 / fps;
  }
  util::SimTimeUs frame_period() const noexcept {
    return static_cast<util::SimTimeUs>(1e6 / fps);
  }
};

struct Frame {
  std::int64_t id = 0;
  util::SimTimeUs render_time = 0;  ///< When the renderer finished it.
  double bits = 0.0;
};

/// Emits frames on the renderer's clock.
class FrameSource {
 public:
  FrameSource(FrameSourceConfig config, util::Rng rng)
      : config_(config), rng_(rng) {}

  /// The next frame whose render time is <= now, if due.
  std::optional<Frame> poll(util::SimTimeUs now);

  const FrameSourceConfig& config() const noexcept { return config_; }

 private:
  FrameSourceConfig config_;
  util::Rng rng_;
  std::int64_t next_id_ = 0;
  util::SimTimeUs next_time_ = 0;
};

}  // namespace cyclops::stream
