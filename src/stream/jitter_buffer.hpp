// Jitter-buffered playout: in-order display against a playout deadline,
// with re-show accounting.
//
// Reassembled frames can arrive bursty and out of render order (loss,
// reorder, retransmission gaps upstream).  The jitter buffer absorbs
// that: frames queue keyed by id, each vsync displays the next id in
// order if one is ready and still within its playout deadline, and when
// nothing is displayable the display re-shows the previous frame (a
// re-show; two or more in a row over missing frames is the freeze the
// ledger counts).
//
// DEADLINE BOUNDARY — same predicate as the wire queue: a frame is late
// once `now > render_time + playout_deadline`; displayable at exactly
// the deadline instant, dropped one microsecond past it
// (tests/stream_jitter_test.cpp pins both sides).
//
// QoE accounting goes through the shared FreezeLedger in frame-id
// order: when frame k displays after frame j, the ids in (j, k) that
// never made it are recorded as drops first, then k's delivery — so the
// drop-run/freeze arithmetic matches the WireQueue's per-frame outcome
// sequence.
#pragma once

#include <cstdint>
#include <map>

#include "stream/frame_arena.hpp"
#include "stream/freeze_ledger.hpp"
#include "stream/packet.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

struct JitterConfig {
  /// Playout deadline relative to render time (see DEADLINE BOUNDARY
  /// above).  Matches the wire queue's 22 ms default.
  util::SimTimeUs playout_deadline = 22000;
};

struct JitterStats {
  std::int64_t frames_pushed = 0;
  std::int64_t frames_displayed = 0;
  std::int64_t late_drops = 0;     ///< Expired in the buffer (past deadline).
  std::int64_t stale_arrivals = 0; ///< Arrived already behind the playhead.
  std::int64_t re_shows = 0;       ///< Vsyncs with nothing displayable.
  double displayed_bits = 0.0;     ///< Logical wire bits shown (goodput).
};

class JitterBuffer {
 public:
  JitterBuffer(JitterConfig config, FrameArena& arena, FreezeLedger& ledger)
      : config_(config), arena_(&arena), ledger_(&ledger) {}
  ~JitterBuffer();
  JitterBuffer(const JitterBuffer&) = delete;
  JitterBuffer& operator=(const JitterBuffer&) = delete;

  /// Buffers a reassembled frame (pins one arena reference; refcount-only,
  /// never a copy).  Frames at or behind the playhead are dropped as
  /// stale; their ids were already accounted when the playhead passed.
  void push(const FrameDesc& frame);

  /// One display refresh: expires frames past their playout deadline,
  /// then shows the lowest buffered id if it is displayable — recording
  /// the skipped ids before it as drops — or counts a re-show.
  void on_vsync(util::SimTimeUs now);

  /// Accounts every id in (last displayed, last_offered_id] that never
  /// displayed as dropped.  Call once at end of run so tail losses reach
  /// the ledger.
  void finalize(std::int64_t last_offered_id);

  std::size_t depth() const noexcept { return buffer_.size(); }
  const JitterStats& stats() const noexcept { return stats_; }
  const JitterConfig& config() const noexcept { return config_; }

 private:
  /// Records ids in (next_display_id_ - 1, up_to) exclusive of up_to as
  /// ledger drops and advances the playhead.
  void account_gap(std::int64_t up_to);

  JitterConfig config_;
  FrameArena* arena_;
  FreezeLedger* ledger_;
  std::map<std::int64_t, FrameDesc> buffer_;  ///< Ordered by frame id.
  std::int64_t next_display_id_ = 0;  ///< Playhead: smallest undisplayed id.
  JitterStats stats_;
};

}  // namespace cyclops::stream
