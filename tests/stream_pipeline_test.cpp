// StreamPipeline end-to-end: the event-driven frame -> transport ->
// jitter-playout plane over clean and flapping capacity, spectator
// fan-out with the refcount-only (zero-copy) guarantee, ABR downgrade
// under sustained outage, and arena-cap backpressure.
#include <gtest/gtest.h>

#include "runtime/context.hpp"
#include "stream/pipeline.hpp"
#include "util/units.hpp"

namespace cyclops::stream {
namespace {

PipelineConfig base_config() {
  PipelineConfig config;
  config.duration = util::us_from_s(2.0);
  config.stored_payload_bytes = 1024;
  return config;
}

TEST(StreamPipelineTest, CleanLinkDeliversNearlyEveryFrame) {
  runtime::Context ctx = runtime::Context::isolated();
  StreamPipeline pipe(base_config(), ctx);
  PipelineResult result = pipe.run([](util::SimTimeUs) { return 23.5; });

  ASSERT_EQ(result.receivers.size(), 1u);
  const LedgerStats& qoe = result.receivers[0].ledger;
  EXPECT_GT(result.frames_generated, 170);
  EXPECT_EQ(qoe.frames_offered, result.frames_generated);
  // 23.5 Gbps carries the 20 Gbps raw stream: everything but the tail
  // frame in flight at cutoff arrives.
  EXPECT_GE(qoe.delivery_rate(), 0.97);
  EXPECT_EQ(qoe.freeze_events, 0);
  EXPECT_EQ(result.torn_frames, 0);
  EXPECT_EQ(result.mode_switches, 0);
  EXPECT_GT(result.goodput_gbps, 18.0);
  // Ledger balance: every offered frame resolved one way.
  EXPECT_EQ(qoe.frames_delivered + qoe.frames_dropped, qoe.frames_offered);
}

TEST(StreamPipelineTest, DeadLinkFreezesAndDeliversNothing) {
  runtime::Context ctx = runtime::Context::isolated();
  StreamPipeline pipe(base_config(), ctx);
  PipelineResult result = pipe.run([](util::SimTimeUs) { return 0.0; });

  const LedgerStats& qoe = result.receivers[0].ledger;
  EXPECT_EQ(qoe.frames_delivered, 0);
  EXPECT_EQ(qoe.frames_dropped, qoe.frames_offered);
  EXPECT_EQ(qoe.freeze_events, 1);  // one long freeze, not many short ones
  EXPECT_EQ(qoe.longest_freeze_frames, qoe.frames_offered);
  // Packets piled up against the backlog cap and were evicted
  // (peripheral/foveal first, so what survives is the intra tail: ~4 raw
  // + ~12 compressed intra frames under the 1e9-bit cap).  The arena
  // footprint is bounded by the cap, not one slab per stuck frame (180).
  EXPECT_LE(result.arena.in_use, 20u);
}

TEST(StreamPipelineTest, OutageTriggersAbrDowngradeAndRecovery) {
  runtime::Context ctx = runtime::Context::isolated();
  PipelineConfig config = base_config();
  config.duration = util::us_from_s(9.0);
  StreamPipeline pipe(config, ctx);
  // Clean for 2 s, dead for 3 s, clean again: the adapter must downgrade
  // during the outage and upgrade after recovery (the EMA needs ~2.7 s
  // above threshold to re-cross 0.995).
  PipelineResult result = pipe.run([](util::SimTimeUs t) {
    return t < util::us_from_s(2.0)   ? 23.5
           : t < util::us_from_s(5.0) ? 0.0
                                      : 23.5;
  });
  EXPECT_GE(result.mode_switches, 2);
  const LedgerStats& qoe = result.receivers[0].ledger;
  EXPECT_GT(qoe.frames_delivered, 0);
  EXPECT_GT(qoe.freeze_events, 0);
  EXPECT_LT(qoe.delivery_rate(), 1.0);
  EXPECT_EQ(result.torn_frames, 0);
}

TEST(StreamPipelineTest, SpectatorFanOutIsRefcountOnly) {
  runtime::Context ctx = runtime::Context::isolated();
  PipelineConfig config = base_config();
  config.spectators = 4;
  // Loss is per fragment and a raw frame is ~106 fragments, so even
  // 0.2% fragment loss costs a spectator ~19% of frames.
  config.spectator = {.loss = 0.002, .dup = 0.02, .reorder = 0.1};
  StreamPipeline pipe(config, ctx);
  PipelineResult result = pipe.run([](util::SimTimeUs) { return 23.5; });

  ASSERT_EQ(result.receivers.size(), 5u);
  // THE zero-copy claim: 5 receivers, every slab shared refcount-only.
  EXPECT_EQ(result.torn_frames, 0);
  EXPECT_LE(result.arena.in_use, 3u);  // only the cutoff tail in flight
  // The headset (clean) beats the lossy spectators, but spectators still
  // see most frames.
  const double headset_rate = result.receivers[0].ledger.delivery_rate();
  EXPECT_GE(headset_rate, 0.97);
  for (int i = 1; i <= 4; ++i) {
    const LedgerStats& qoe = result.receivers[i].ledger;
    EXPECT_EQ(qoe.frames_offered, result.frames_generated);
    EXPECT_GT(qoe.delivery_rate(), 0.5) << "spectator " << i;
    EXPECT_LE(qoe.delivery_rate(), headset_rate) << "spectator " << i;
    EXPECT_EQ(qoe.frames_delivered + qoe.frames_dropped, qoe.frames_offered);
  }
}

TEST(StreamPipelineTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    runtime::Context ctx = runtime::Context::isolated();
    PipelineConfig config;
    config.duration = util::us_from_s(2.0);
    config.stored_payload_bytes = 1024;
    config.spectators = 2;
    config.spectator = {.loss = 0.1, .dup = 0.05, .reorder = 0.2};
    config.size_jitter = 0.05;
    StreamPipeline pipe(config, ctx);
    return pipe.run([](util::SimTimeUs t) {
      return (t / 500000) % 2 == 0 ? 23.5 : 0.3;
    });
  };
  const PipelineResult a = run_once();
  const PipelineResult b = run_once();
  ASSERT_EQ(a.receivers.size(), b.receivers.size());
  EXPECT_EQ(a.frames_generated, b.frames_generated);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  for (std::size_t i = 0; i < a.receivers.size(); ++i) {
    EXPECT_EQ(a.receivers[i].ledger.frames_delivered,
              b.receivers[i].ledger.frames_delivered);
    EXPECT_EQ(a.receivers[i].ledger.frames_dropped,
              b.receivers[i].ledger.frames_dropped);
    EXPECT_EQ(a.receivers[i].ledger.freeze_events,
              b.receivers[i].ledger.freeze_events);
    EXPECT_EQ(a.receivers[i].transport.packets_lost,
              b.receivers[i].transport.packets_lost);
  }
}

TEST(StreamPipelineTest, ArenaCapBackpressuresInsteadOfGrowing) {
  runtime::Context ctx = runtime::Context::isolated();
  PipelineConfig config = base_config();
  config.arena.max_slabs = 2;
  StreamPipeline pipe(config, ctx);
  // Dead link: frames pile up until the arena cap, then rendering is
  // backpressured (acquire failures), never unbounded growth.
  PipelineResult result = pipe.run([](util::SimTimeUs) { return 0.0; });
  EXPECT_LE(result.arena.slabs_allocated, 2u);
  EXPECT_GT(result.arena.failures, 0u);
  EXPECT_EQ(result.receivers[0].ledger.frames_dropped,
            result.receivers[0].ledger.frames_offered);
}

}  // namespace
}  // namespace cyclops::stream
