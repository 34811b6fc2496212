// The renderer-to-link path: FrameSource pacing and the deadline-driven
// WireQueue with its FreezeLedger (frame outcomes, freezes, metrics).
#include <gtest/gtest.h>

#include <cmath>

#include "obs/obs.hpp"
#include "stream/frame_source.hpp"
#include "stream/freeze_ledger.hpp"
#include "stream/wire_queue.hpp"
#include "util/units.hpp"

namespace cyclops::stream {
namespace {

constexpr util::SimTimeUs kSlot = 1000;  // 1 ms

/// Offers a rendered frame to the wire.
void offer(WireQueue& wire, const Frame& frame) {
  wire.offer(frame.id, frame.render_time, frame.bits);
}

/// Drives source + wire queue for `duration` with a capacity function;
/// returns the wire's ledger stats.
template <typename CapacityFn>
LedgerStats drive(FrameSource& source, WireQueue& wire,
                  const FreezeLedger& ledger, util::SimTimeUs duration,
                  const CapacityFn& capacity) {
  for (util::SimTimeUs now = 0; now < duration; now += kSlot) {
    while (const auto frame = source.poll(now)) offer(wire, *frame);
    wire.step(now, kSlot, capacity(now));
  }
  return ledger.stats();
}

// ---- FrameSource ----

TEST(FrameSourceTest, EmitsAtConfiguredRate) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(1));
  int frames = 0;
  for (util::SimTimeUs now = 0; now < util::us_from_s(1.0); now += kSlot) {
    while (source.poll(now)) ++frames;
  }
  EXPECT_NEAR(frames, 90, 2);
}

TEST(FrameSourceTest, FrameSizeMatchesBitrate) {
  FrameSourceConfig config{.fps = 90.0, .stream_rate_gbps = 20.0};
  EXPECT_NEAR(config.mean_frame_bits(), 20e9 / 90.0, 1.0);
  FrameSource source(config, util::Rng(1));
  const auto frame = source.poll(0);
  ASSERT_TRUE(frame.has_value());
  EXPECT_DOUBLE_EQ(frame->bits, config.mean_frame_bits());
}

TEST(FrameSourceTest, JitterVariesSizes) {
  FrameSource source(
      {.fps = 90.0, .stream_rate_gbps = 20.0, .size_jitter = 0.05},
      util::Rng(2));
  const auto a = source.poll(0);
  const auto b = source.poll(util::us_from_s(1.0));
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->bits, b->bits);
  EXPECT_GT(a->bits, 0.0);
}

TEST(FrameSourceTest, MonotoneIdsAndTimes) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(3));
  util::SimTimeUs prev_time = -1;
  std::int64_t prev_id = -1;
  for (util::SimTimeUs now = 0; now < util::us_from_s(0.5); now += kSlot) {
    while (const auto f = source.poll(now)) {
      EXPECT_GT(f->id, prev_id);
      EXPECT_GT(f->render_time, prev_time);
      prev_id = f->id;
      prev_time = f->render_time;
    }
  }
}

TEST(FrameSourceTest, NotDueReturnsNull) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(4));
  ASSERT_TRUE(source.poll(0).has_value());
  EXPECT_FALSE(source.poll(1).has_value());  // next frame ~11.1 ms away
}

// ---- WireQueue + FreezeLedger (the frame streamer) ----

TEST(StreamerTest, AmpleCapacityDeliversEverything) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(5));
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  const auto stats = drive(source, wire, ledger, util::us_from_s(2.0),
                           [](util::SimTimeUs) { return 23.5; });
  EXPECT_GT(stats.frames_offered, 170);
  EXPECT_EQ(stats.frames_dropped, 0);
  EXPECT_NEAR(stats.delivery_rate(), 1.0, 0.02);
  EXPECT_EQ(stats.freeze_events, 0);
}

TEST(StreamerTest, DeliveryLatencyReflectsServiceTime) {
  // 222 Mbit frame at 23.5 Gbps ~ 9.4 ms on the wire (+overhead).
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(6));
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  const auto stats = drive(source, wire, ledger, util::us_from_s(2.0),
                           [](util::SimTimeUs) { return 23.5; });
  EXPECT_GT(stats.avg_delivery_latency_ms, 5.0);
  EXPECT_LT(stats.avg_delivery_latency_ms, 15.0);
}

TEST(StreamerTest, DeadLinkDropsEverything) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(7));
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  const auto stats = drive(source, wire, ledger, util::us_from_s(1.0),
                           [](util::SimTimeUs) { return 0.0; });
  EXPECT_EQ(stats.frames_delivered, 0);
  EXPECT_GT(stats.frames_dropped, 70);
  EXPECT_EQ(stats.freeze_events, 1);
  EXPECT_GT(stats.longest_freeze_frames, 70);
}

TEST(StreamerTest, OutageCausesOneFreezeThenRecovers) {
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 20.0},
                     util::Rng(8));
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  // 0.3 s outage in the middle of 2 s.
  const auto capacity = [](util::SimTimeUs now) {
    const bool out = now > util::us_from_s(1.0) &&
                     now < util::us_from_s(1.3);
    return out ? 0.0 : 23.5;
  };
  const auto stats =
      drive(source, wire, ledger, util::us_from_s(2.0), capacity);
  EXPECT_EQ(stats.freeze_events, 1);
  EXPECT_GT(stats.frames_dropped, 15);
  EXPECT_LT(stats.frames_dropped, 45);
  EXPECT_GT(stats.delivery_rate(), 0.7);
}

TEST(StreamerTest, OverSubscribedLinkDegrades) {
  // Stream faster than the link: some frames must miss deadlines.
  FrameSource source({.fps = 90.0, .stream_rate_gbps = 30.0},
                     util::Rng(9));
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  const auto stats = drive(source, wire, ledger, util::us_from_s(2.0),
                           [](util::SimTimeUs) { return 23.5; });
  EXPECT_LT(stats.delivery_rate(), 0.95);
  EXPECT_GT(stats.frames_dropped, 0);
}

TEST(StreamerTest, DeadlineEnforced) {
  FrameSourceConfig config{.fps = 90.0, .stream_rate_gbps = 20.0};
  FrameSource source(config, util::Rng(10));
  WireQueueConfig sc;
  sc.deadline = util::us_from_ms(5.0);  // tighter than the service time
  FreezeLedger ledger;
  WireQueue wire(sc, ledger);
  const auto stats = drive(source, wire, ledger, util::us_from_s(1.0),
                           [](util::SimTimeUs) { return 23.5; });
  // ~9.4 ms service > 5 ms deadline: nothing can make it.
  EXPECT_EQ(stats.frames_delivered, 0);
}

TEST(StreamerTest, DeadlineBoundaryIsExact) {
  // Pins the exact expiry predicate `now > render_time + deadline`
  // (documented in stream/wire_queue.hpp): a step landing AT the deadline
  // still delivers; one microsecond past it drops.  With the default
  // 22000 µs deadline, a frame rendered at 0 is droppable from 22001.
  {
    FreezeLedger ledger;
    WireQueue wire({}, ledger);
    offer(wire, Frame{0, 0, 1e6});
    wire.step(22000, kSlot, 1.05);  // == render + deadline: serves
    EXPECT_EQ(ledger.stats().frames_delivered, 1);
    EXPECT_EQ(ledger.stats().frames_dropped, 0);
  }
  {
    FreezeLedger ledger;
    WireQueue wire({}, ledger);
    offer(wire, Frame{0, 0, 1e6});
    wire.step(22001, kSlot, 1.05);  // one microsecond past: expired
    EXPECT_EQ(ledger.stats().frames_delivered, 0);
    EXPECT_EQ(ledger.stats().frames_dropped, 1);
  }
}

TEST(StreamerTest, DeadlineDropReShowsLastDeliveredFrame) {
  // The display keeps re-showing the last delivered frame while later
  // frames miss their deadline: last_delivered_id must not advance on
  // drops.
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  EXPECT_EQ(ledger.stats().last_delivered_id, -1);
  offer(wire, Frame{0, 0, 1e6});
  wire.step(0, kSlot, 1.05);  // exactly one frame (incl. overhead)
  ASSERT_EQ(ledger.stats().frames_delivered, 1);
  EXPECT_EQ(ledger.stats().last_delivered_id, 0);

  // Two more frames rendered at t=0; by t=30 ms both are past the 22 ms
  // deadline and the link is down anyway.
  offer(wire, Frame{1, 0, 1e6});
  offer(wire, Frame{2, 0, 1e6});
  wire.step(30000, kSlot, 0.0);
  EXPECT_EQ(ledger.stats().frames_dropped, 2);
  EXPECT_EQ(ledger.stats().last_delivered_id, 0);  // still re-shown
  // A run of two consecutive drops is exactly one freeze event.
  EXPECT_EQ(ledger.stats().freeze_events, 1);
  EXPECT_EQ(ledger.stats().longest_freeze_frames, 2);
}

TEST(StreamerTest, LinkOffBurstDropsFifoAndResumesInOrder) {
  obs::Registry registry;
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  ledger.set_obs(&registry);

  // Three frames in flight when the link dies; the two oldest expire (in
  // FIFO order, from the queue front), the newest survives the outage.
  offer(wire, Frame{0, 0, 1e6});
  offer(wire, Frame{1, 5000, 1e6});
  offer(wire, Frame{2, 40000, 1e6});
  wire.step(30000, kSlot, 0.0);
  EXPECT_EQ(ledger.stats().frames_dropped, 2);
  EXPECT_EQ(wire.depth(), 1u);

  // Link restored: the surviving frame delivers, then a later one — ids
  // stay strictly increasing across the outage.
  wire.step(41000, kSlot, 2.1);
  EXPECT_EQ(ledger.stats().last_delivered_id, 2);
  offer(wire, Frame{3, 50000, 1e6});
  wire.step(51000, kSlot, 2.1);
  EXPECT_EQ(ledger.stats().last_delivered_id, 3);
  EXPECT_EQ(ledger.stats().frames_delivered, 2);
  EXPECT_EQ(ledger.stats().freeze_events, 1);

  // The obs counters mirror the legacy stats struct exactly.
  const LedgerStats& stats = ledger.stats();
  EXPECT_EQ(registry.counter("stream_frames_offered_total").value(),
            static_cast<std::uint64_t>(stats.frames_offered));
  EXPECT_EQ(registry.counter("stream_frames_delivered_total").value(),
            static_cast<std::uint64_t>(stats.frames_delivered));
  EXPECT_EQ(registry.counter("stream_frames_dropped_total").value(),
            static_cast<std::uint64_t>(stats.frames_dropped));
  EXPECT_EQ(registry.counter("stream_freezes_total").value(),
            static_cast<std::uint64_t>(stats.freeze_events));
  EXPECT_EQ(registry
                .histogram("stream_delivery_latency_us",
                           obs::HistogramSpec::duration_us())
                .count(),
            static_cast<std::uint64_t>(stats.frames_delivered));
}

TEST(StreamerTest, QueueDrainsInOrder) {
  FreezeLedger ledger;
  WireQueue wire({}, ledger);
  Frame a{0, 0, 1e6};
  Frame b{1, 0, 1e6};
  offer(wire, a);
  offer(wire, b);
  EXPECT_EQ(wire.depth(), 2u);
  // Per slot: 1.05 Gbps * 1 ms = 1.05 Mbit = exactly one frame including
  // its 5 % overhead.
  wire.step(0, kSlot, 1.05);
  EXPECT_EQ(wire.depth(), 1u);
  wire.step(kSlot, kSlot, 1.05);
  EXPECT_EQ(wire.depth(), 0u);
  EXPECT_EQ(ledger.stats().frames_delivered, 2);
}

}  // namespace
}  // namespace cyclops::stream
