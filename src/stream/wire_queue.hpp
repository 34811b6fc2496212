// Deadline-driven FIFO wire queue: serializes rendered frames (e.g. a
// FrameSource's) onto the link and records each frame's fate in a
// FreezeLedger.
//
// Policy (unchanged from the pre-stream frame streamer, and pinned by
// tests/net_test.cpp + tests/stream_abr_test.cpp):
//   * frames queue FIFO and are serialized against the per-slot
//     capacity budget `capacity_gbps * slot_duration`;
//   * DEADLINE BOUNDARY: a frame still undelivered once `now` moves
//     PAST render_time + deadline is dropped — the expiry predicate is
//     `now > render_time + deadline`, so a frame that finishes at
//     exactly the deadline instant counts as on-time and one
//     microsecond later is a drop;
//   * a delivered frame's latency is stamped at the END of the slot
//     that finished it (now + slot_duration): partial-slot completion
//     times are not modeled.
#pragma once

#include <cstdint>
#include <deque>

#include "stream/freeze_ledger.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

struct WireQueueConfig {
  /// Delivery deadline relative to render time (see DEADLINE BOUNDARY
  /// above: at the deadline is on-time, past it is a drop).
  util::SimTimeUs deadline = 22000;  ///< ~2 frame periods at 90 fps.
  /// Transmission overhead factor (protocol framing, FEC).
  double overhead = 1.05;
};

/// FIFO of frames being serialized onto the link.  Outcomes (delivery,
/// deadline drop) are recorded into the caller's FreezeLedger.
class WireQueue {
 public:
  explicit WireQueue(WireQueueConfig config, FreezeLedger& ledger)
      : config_(config), ledger_(&ledger) {}

  /// Enqueues a rendered frame of `bits` wire bits (pre-overhead).
  void offer(std::int64_t frame_id, util::SimTimeUs render_time, double bits);

  /// Advances one slot of `slot_duration`; `capacity_gbps` is the link's
  /// deliverable rate during the slot (0 when the link is down).
  void step(util::SimTimeUs now, util::SimTimeUs slot_duration,
            double capacity_gbps);

  std::size_t depth() const noexcept { return queue_.size(); }
  const WireQueueConfig& config() const noexcept { return config_; }

 private:
  struct InFlight {
    std::int64_t frame_id = 0;
    util::SimTimeUs render_time = 0;
    double bits_remaining = 0.0;
  };

  WireQueueConfig config_;
  FreezeLedger* ledger_;
  std::deque<InFlight> queue_;
};

}  // namespace cyclops::stream
