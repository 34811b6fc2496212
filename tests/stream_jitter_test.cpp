// JitterBuffer: in-order playout, the exact playout-deadline boundary,
// gap/freeze accounting through the shared FreezeLedger, and re-show
// counting.
#include <gtest/gtest.h>

#include "stream/frame_arena.hpp"
#include "stream/jitter_buffer.hpp"

namespace cyclops::stream {
namespace {

struct Rig {
  FrameArena arena;
  FreezeLedger ledger;
  JitterBuffer buffer;

  explicit Rig(JitterConfig config = {})
      : buffer(config, arena, ledger) {}

  FrameDesc frame(std::int64_t id, util::SimTimeUs render_time) {
    FrameDesc f;
    f.id = id;
    f.render_time = render_time;
    f.bits = 1000.0;
    f.payload = arena.acquire(16);
    EXPECT_TRUE(f.payload.valid());
    return f;
  }

  /// Offer + push: ledger offered accounting plus buffer insert, then
  /// drop the producer's reference (the buffer pinned its own).
  void feed(std::int64_t id, util::SimTimeUs render_time) {
    ledger.on_offered();
    FrameDesc f = frame(id, render_time);
    buffer.push(f);
    arena.release(f.payload);
  }
};

TEST(StreamJitterTest, DisplaysInOrderEvenWhenArrivalIsNot) {
  Rig rig;
  rig.feed(2, 200);
  rig.feed(0, 0);
  rig.feed(1, 100);
  rig.buffer.on_vsync(1000);
  rig.buffer.on_vsync(2000);
  rig.buffer.on_vsync(3000);
  EXPECT_EQ(rig.ledger.stats().frames_delivered, 3);
  EXPECT_EQ(rig.ledger.stats().frames_dropped, 0);
  EXPECT_EQ(rig.ledger.stats().last_delivered_id, 2);
  // Latency is vsync - render: (1000-0), (2000-100), (3000-200).
  EXPECT_DOUBLE_EQ(rig.ledger.stats().max_delivery_latency_ms, 2.8);
}

TEST(StreamJitterTest, PlayoutDeadlineBoundaryIsExact) {
  // A frame is displayable AT render_time + playout_deadline and dropped
  // one microsecond past it — the same `now > deadline` predicate as the
  // wire queue (net_test.DeadlineBoundaryIsExact pins that side).
  const JitterConfig config{.playout_deadline = 22000};
  {
    Rig rig(config);
    rig.feed(0, 1000);
    rig.buffer.on_vsync(23000);  // == render + deadline: on time
    EXPECT_EQ(rig.ledger.stats().frames_delivered, 1);
    EXPECT_EQ(rig.buffer.stats().late_drops, 0);
  }
  {
    Rig rig(config);
    rig.feed(0, 1000);
    rig.buffer.on_vsync(23001);  // one microsecond past: dropped
    EXPECT_EQ(rig.ledger.stats().frames_delivered, 0);
    EXPECT_EQ(rig.buffer.stats().late_drops, 1);
    EXPECT_EQ(rig.buffer.stats().re_shows, 1);  // nothing else to show
    rig.buffer.finalize(0);
    EXPECT_EQ(rig.ledger.stats().frames_dropped, 1);
  }
}

TEST(StreamJitterTest, GapsAccountAsDropsInFrameIdOrder) {
  Rig rig;
  rig.feed(0, 0);
  // Frames 1 and 2 never arrive (lost upstream); 3 does.
  rig.ledger.on_offered();
  rig.ledger.on_offered();
  rig.feed(3, 300);
  rig.buffer.on_vsync(1000);  // displays 0
  rig.buffer.on_vsync(2000);  // displays 3, accounting 1 and 2 as drops
  const LedgerStats& stats = rig.ledger.stats();
  EXPECT_EQ(stats.frames_delivered, 2);
  EXPECT_EQ(stats.frames_dropped, 2);
  // The 2-frame drop run between deliveries is one freeze event.
  EXPECT_EQ(stats.freeze_events, 1);
  EXPECT_EQ(stats.longest_freeze_frames, 2);
  EXPECT_EQ(stats.last_delivered_id, 3);
}

TEST(StreamJitterTest, ReShowsCountWhenNothingIsDisplayable) {
  Rig rig;
  rig.buffer.on_vsync(1000);
  rig.buffer.on_vsync(2000);
  EXPECT_EQ(rig.buffer.stats().re_shows, 2);
  EXPECT_EQ(rig.ledger.stats().frames_delivered, 0);
  rig.feed(0, 2500);
  rig.buffer.on_vsync(3000);
  EXPECT_EQ(rig.buffer.stats().re_shows, 2);
  EXPECT_EQ(rig.ledger.stats().frames_delivered, 1);
}

TEST(StreamJitterTest, StaleArrivalBehindPlayheadIsIgnored) {
  Rig rig;
  rig.feed(0, 0);
  rig.feed(1, 100);
  rig.buffer.on_vsync(1000);
  rig.buffer.on_vsync(2000);
  // Frame 1 arrives again (duplicate path) after being displayed.
  rig.ledger.on_offered();
  FrameDesc dup = rig.frame(1, 100);
  rig.buffer.push(dup);
  rig.arena.release(dup.payload);
  EXPECT_EQ(rig.buffer.stats().stale_arrivals, 1);
  EXPECT_EQ(rig.buffer.depth(), 0u);
  // Nothing double-pinned: all slabs came back.
  EXPECT_EQ(rig.arena.stats().in_use, 0u);
}

TEST(StreamJitterTest, FinalizeAccountsUndisplayedTail) {
  Rig rig;
  rig.feed(0, 0);
  rig.buffer.on_vsync(1000);
  // Frames 1..3 offered; 2 sits undisplayed in the buffer, 1 and 3 never
  // arrived.
  rig.ledger.on_offered();
  rig.feed(2, 200);
  rig.ledger.on_offered();
  rig.buffer.finalize(3);
  const LedgerStats& stats = rig.ledger.stats();
  EXPECT_EQ(stats.frames_offered, 4);
  EXPECT_EQ(stats.frames_delivered, 1);
  EXPECT_EQ(stats.frames_dropped, 3);
  EXPECT_EQ(stats.freeze_events, 1);
  EXPECT_EQ(stats.longest_freeze_frames, 3);
  EXPECT_EQ(rig.arena.stats().in_use, 0u);  // buffered ref released
}

}  // namespace
}  // namespace cyclops::stream
