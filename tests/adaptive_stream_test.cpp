#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "stream/rate_adapter.hpp"

namespace cyclops::stream {
namespace {

constexpr util::SimTimeUs kSlot = 1000;

RatePolicy fast_config() {
  RatePolicy config;
  config.window = 100000;    // 0.1 s for snappy tests
  config.min_dwell = 200000;  // 0.2 s
  return config;
}

TEST(AdaptiveStreamTest, StaysRawOnHealthyLink) {
  EncoderRateAdapter controller(fast_config());
  for (util::SimTimeUs t = kSlot; t < 2000000; t += kSlot) {
    EXPECT_EQ(controller.step(t, 23.5), EncoderMode::kRaw);
  }
  EXPECT_EQ(controller.mode_switches(), 0);
}

TEST(AdaptiveStreamTest, DowngradesOnOutage) {
  EncoderRateAdapter controller(fast_config());
  util::SimTimeUs t = kSlot;
  for (; t < 500000; t += kSlot) controller.step(t, 23.5);
  // Link dies.
  for (; t < 1500000; t += kSlot) controller.step(t, 0.0);
  EXPECT_EQ(controller.mode(), EncoderMode::kCompressed);
  EXPECT_DOUBLE_EQ(controller.current_rate_gbps(), 0.4);
  EXPECT_GT(controller.current_decode_latency_ms(), 0.0);
}

TEST(AdaptiveStreamTest, UpgradesAfterRecovery) {
  EncoderRateAdapter controller(fast_config());
  util::SimTimeUs t = kSlot;
  for (; t < 500000; t += kSlot) controller.step(t, 23.5);
  for (; t < 1200000; t += kSlot) controller.step(t, 0.0);
  ASSERT_EQ(controller.mode(), EncoderMode::kCompressed);
  for (; t < 3000000; t += kSlot) controller.step(t, 23.5);
  EXPECT_EQ(controller.mode(), EncoderMode::kRaw);
  EXPECT_EQ(controller.mode_switches(), 2);
}

TEST(AdaptiveStreamTest, DwellPreventsFlapping) {
  RatePolicy config = fast_config();
  config.min_dwell = 5000000;  // 5 s
  EncoderRateAdapter controller(config);
  // Alternate good/bad every 0.3 s for 4 s: at most one switch can fire.
  util::SimTimeUs t = kSlot;
  bool good = true;
  util::SimTimeUs phase_start = 0;
  for (; t < 4000000; t += kSlot) {
    if (t - phase_start > 300000) {
      good = !good;
      phase_start = t;
    }
    controller.step(t, good ? 23.5 : 0.0);
  }
  EXPECT_LE(controller.mode_switches(), 1);
}

TEST(AdaptiveStreamTest, MinDwellBoundaryIsExact) {
  // The anti-flap guard is `now - last_switch >= min_dwell`: a switch is
  // blocked one microsecond before the dwell elapses and fires at exactly
  // min_dwell.
  RatePolicy config;
  config.window = 1000;       // 1 ms window: the EMA reacts within a slot
  config.min_dwell = 200000;  // 0.2 s
  EncoderRateAdapter controller(config);
  obs::Registry registry;
  controller.set_obs(&registry);

  // Dead link from t=0: the EMA is below the downgrade threshold almost
  // immediately, so the dwell guard is the only thing holding raw mode.
  for (util::SimTimeUs t = kSlot; t < 199000; t += kSlot) {
    EXPECT_EQ(controller.step(t, 0.0), EncoderMode::kRaw);
  }
  EXPECT_EQ(controller.step(199999, 0.0), EncoderMode::kRaw);  // dwell - 1
  EXPECT_EQ(controller.step(200000, 0.0), EncoderMode::kCompressed);
  EXPECT_EQ(controller.mode_switches(), 1);

  // Same boundary on the way back up: full capacity saturates the EMA
  // fast, and the upgrade fires exactly one dwell after the downgrade.
  for (util::SimTimeUs t = 201000; t < 399000; t += kSlot) {
    EXPECT_EQ(controller.step(t, config.raw_rate_gbps),
              EncoderMode::kCompressed);
  }
  EXPECT_EQ(controller.step(399999, config.raw_rate_gbps),
            EncoderMode::kCompressed);
  EXPECT_EQ(controller.step(400000, config.raw_rate_gbps), EncoderMode::kRaw);
  EXPECT_EQ(controller.mode_switches(), 2);

  // The dwell histograms saw exactly the min-dwell durations.
  EXPECT_EQ(
      registry.counter("adaptive_switches_total", {{"to", "compressed"}})
          .value(),
      1u);
  EXPECT_EQ(
      registry.counter("adaptive_switches_total", {{"to", "raw"}}).value(),
      1u);
  EXPECT_DOUBLE_EQ(registry
                       .histogram("adaptive_mode_dwell_us",
                                  obs::HistogramSpec::duration_us(),
                                  {{"mode", "raw"}})
                       .min(),
                   200000.0);
  EXPECT_DOUBLE_EQ(registry
                       .histogram("adaptive_mode_dwell_us",
                                  obs::HistogramSpec::duration_us(),
                                  {{"mode", "compressed"}})
                       .min(),
                   200000.0);
}

TEST(AdaptiveStreamTest, PartialCapacityCountsProportionally) {
  // A link at 50 % of the raw demand must trigger the downgrade.
  EncoderRateAdapter controller(fast_config());
  util::SimTimeUs t = kSlot;
  for (; t < 2000000; t += kSlot) controller.step(t, 10.0);
  EXPECT_EQ(controller.mode(), EncoderMode::kCompressed);
}

}  // namespace
}  // namespace cyclops::stream
