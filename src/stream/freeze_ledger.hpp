// Delivered-frame QoE accounting, shared by every stage that decides a
// frame's fate (the WireQueue and the jitter-buffered playout path).
//
// One definition of the paper's §5.4 user-experience bookkeeping:
//   * a frame is either delivered (display advances) or dropped (the
//     display re-shows the previous frame);
//   * a run of >= 2 consecutive dropped frames is one freeze event;
//   * delivery latency is render -> fully received.
// Keeping the arithmetic here byte-for-byte identical to the pre-stream
// frame streamer is what keeps WireQueue + FreezeLedger bit-exact against
// it (tests/stream_abr_test.cpp embeds that implementation, drives both
// over the 500-trace library and EXPECT_EQs the outcome).
#pragma once

#include <cstdint>

#include "obs/registry.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

struct LedgerStats {
  std::int64_t frames_offered = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t frames_dropped = 0;
  double avg_delivery_latency_ms = 0.0;  ///< Render -> fully received.
  double max_delivery_latency_ms = 0.0;
  /// Display freezes: runs of >= 2 consecutive dropped frames.
  int freeze_events = 0;
  int longest_freeze_frames = 0;
  /// Id of the most recently delivered frame (-1 before the first); while
  /// frames drop, the display keeps re-showing this one.
  std::int64_t last_delivered_id = -1;

  double delivery_rate() const {
    return frames_offered > 0
               ? static_cast<double>(frames_delivered) / frames_offered
               : 0.0;
  }
};

class FreezeLedger {
 public:
  /// Attaches QoE metrics under the legacy names —
  /// stream_frames_{offered,delivered,dropped}_total, stream_freezes_total,
  /// and the stream_delivery_latency_us histogram — with the given label
  /// set (empty for a standalone WireQueue, {"stage", ...} /
  /// {"receiver", ...} for pipeline stages).  Handles are hoisted here;
  /// pass nullptr to detach.  No-op in CYCLOPS_OBS=OFF builds.
  void set_obs(obs::Registry* registry, obs::Labels labels = {});

  void on_offered();
  void on_dropped();
  void on_delivered(util::SimTimeUs now, std::int64_t frame_id,
                    util::SimTimeUs render_time);

  const LedgerStats& stats() const noexcept { return stats_; }

 private:
  LedgerStats stats_;
  double latency_sum_ms_ = 0.0;
  int current_drop_run_ = 0;

  // Hoisted metric handles (null when detached / OBS=OFF).
  obs::Counter* m_offered_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_freezes_ = nullptr;
  obs::Histogram* m_latency_us_ = nullptr;
};

}  // namespace cyclops::stream
