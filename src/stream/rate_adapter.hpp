// Encoder rate adaptation: raw video when the link allows it, a
// compressed fallback when it does not.
//
// Its step() arithmetic is a float-op-for-float-op port of the
// pre-stream adaptive stream controller — tests/stream_abr_test.cpp
// embeds that controller, drives both over the 500-trace library and
// EXPECT_EQs every mode switch — so the rebase is a pure refactor, not a
// behavior change.
#pragma once

#include "obs/registry.hpp"
#include "runtime/context.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

enum class EncoderMode {
  kRaw,         ///< Uncompressed frames over the FSO link.
  kCompressed,  ///< Codec fallback (e.g. HEVC at ~0.4 Gbps).
};

const char* to_string(EncoderMode mode) noexcept;

/// Field-for-field mirror of the pre-stream controller's config.
struct RatePolicy {
  double raw_rate_gbps = 20.0;
  double compressed_rate_gbps = 0.4;
  /// Extra motion-to-photon latency the decoder adds in compressed mode.
  double decode_latency_ms = 8.0;
  /// Downgrade when the delivered fraction over the window drops below
  /// this; upgrade back above the high-water mark (hysteresis).
  double downgrade_threshold = 0.90;
  double upgrade_threshold = 0.995;
  /// Sliding window over which delivery is judged.
  util::SimTimeUs window = 500000;  // 0.5 s
  /// Minimum dwell time in a mode (prevents flapping).
  util::SimTimeUs min_dwell = 1000000;  // 1 s
};

class EncoderRateAdapter {
 public:
  explicit EncoderRateAdapter(RatePolicy policy) : policy_(policy) {}

  /// Context constructor: mode metrics land in ctx.registry() (handles
  /// hoisted once, here) — the one-argument form of construct + set_obs.
  EncoderRateAdapter(RatePolicy policy, const runtime::Context& ctx)
      : EncoderRateAdapter(policy) {
    set_obs(&ctx.registry());
  }

  /// Attaches mode metrics under the legacy names: adaptive_switches_total
  /// counters (labelled by destination mode) and adaptive_mode_dwell_us
  /// histograms (time spent in the mode being left, labelled by that
  /// mode).  Pass nullptr to detach.
  void set_obs(obs::Registry* registry);

  /// Feeds one slot: the link's current deliverable capacity.  Returns
  /// the mode to use for frames rendered now.
  EncoderMode step(util::SimTimeUs now, double capacity_gbps);

  EncoderMode mode() const noexcept { return mode_; }
  int mode_switches() const noexcept { return switches_; }

  /// Rate demanded from the link in the current mode.
  double current_rate_gbps() const noexcept {
    return mode_ == EncoderMode::kRaw ? policy_.raw_rate_gbps
                                      : policy_.compressed_rate_gbps;
  }

  /// End-to-end latency penalty of the current mode.
  double current_decode_latency_ms() const noexcept {
    return mode_ == EncoderMode::kRaw ? 0.0 : policy_.decode_latency_ms;
  }

  const RatePolicy& policy() const noexcept { return policy_; }

 private:
  RatePolicy policy_;
  EncoderMode mode_ = EncoderMode::kRaw;
  int switches_ = 0;
  util::SimTimeUs last_switch_ = 0;
  // Sliding accounting: how much of the demanded rate the link could
  // carry over the recent window (exponential moving average matched to
  // the window length).
  double satisfied_ema_ = 1.0;
  util::SimTimeUs last_step_ = 0;

  // Hoisted metric handles (null when detached).
  obs::Counter* m_switch_to_raw_ = nullptr;
  obs::Counter* m_switch_to_compressed_ = nullptr;
  obs::Histogram* m_dwell_raw_us_ = nullptr;
  obs::Histogram* m_dwell_compressed_us_ = nullptr;
};

}  // namespace cyclops::stream
