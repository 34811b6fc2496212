#include "stream/frame_source.hpp"

#include <algorithm>

namespace cyclops::stream {

std::optional<Frame> FrameSource::poll(util::SimTimeUs now) {
  if (now < next_time_) return std::nullopt;
  Frame frame;
  frame.id = next_id_++;
  frame.render_time = next_time_;
  const double jitter =
      config_.size_jitter > 0.0 ? rng_.normal(1.0, config_.size_jitter) : 1.0;
  frame.bits = config_.mean_frame_bits() * std::max(0.1, jitter);
  next_time_ += config_.frame_period();
  return frame;
}

}  // namespace cyclops::stream
