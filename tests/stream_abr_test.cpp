// ABR rebase oracle: the streaming data plane's EncoderRateAdapter and
// its WireQueue + FreezeLedger must be bit-exact with the pre-stream
// implementations across the full fig16 trace library
// (ISSUE 7 acceptance: EXPECT_EQ mode-switch sequences and freeze
// counts on all 500 traces).
//
// The legacy implementations are embedded below VERBATIM (modulo obs
// handles, which do not touch the arithmetic) — the same oracle
// discipline as tests/session_core_test.cpp: the old float-op sequence
// is the spec, the new code must reproduce it exactly, not
// approximately.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "stream/freeze_ledger.hpp"
#include "stream/rate_adapter.hpp"
#include "stream/wire_queue.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace cyclops::stream {
namespace {

// ---------------------------------------------------------------------
// Legacy oracle #1: AdaptiveStreamController as it was before the
// stream:: rebase (git history, src/net/adaptive_stream.cpp), obs
// handles stripped.
// ---------------------------------------------------------------------

enum class LegacyMode { kRaw, kCompressed };

struct LegacyAdaptiveConfig {
  double raw_rate_gbps = 20.0;
  double compressed_rate_gbps = 0.4;
  double decode_latency_ms = 8.0;
  double downgrade_threshold = 0.90;
  double upgrade_threshold = 0.995;
  util::SimTimeUs window = 500000;
  util::SimTimeUs min_dwell = 1000000;
};

class LegacyAdaptiveStreamController {
 public:
  explicit LegacyAdaptiveStreamController(LegacyAdaptiveConfig config)
      : config_(config) {}

  LegacyMode step(util::SimTimeUs now, double capacity_gbps) {
    const double dt =
        last_step_ == 0 ? 1e-3 : util::us_to_s(now - last_step_);
    last_step_ = now;

    const double satisfied =
        std::clamp(capacity_gbps / config_.raw_rate_gbps, 0.0, 1.0);
    const double alpha =
        1.0 - std::exp(-dt / util::us_to_s(config_.window));
    satisfied_ema_ += alpha * (satisfied - satisfied_ema_);

    const bool dwell_ok = now - last_switch_ >= config_.min_dwell;
    if (mode_ == LegacyMode::kRaw &&
        satisfied_ema_ < config_.downgrade_threshold && dwell_ok) {
      mode_ = LegacyMode::kCompressed;
      ++switches_;
      last_switch_ = now;
    } else if (mode_ == LegacyMode::kCompressed &&
               satisfied_ema_ > config_.upgrade_threshold && dwell_ok) {
      mode_ = LegacyMode::kRaw;
      ++switches_;
      last_switch_ = now;
    }
    return mode_;
  }

  int mode_switches() const noexcept { return switches_; }
  double current_rate_gbps() const noexcept {
    return mode_ == LegacyMode::kRaw ? config_.raw_rate_gbps
                                     : config_.compressed_rate_gbps;
  }

 private:
  LegacyAdaptiveConfig config_;
  LegacyMode mode_ = LegacyMode::kRaw;
  int switches_ = 0;
  util::SimTimeUs last_switch_ = 0;
  double satisfied_ema_ = 1.0;
  util::SimTimeUs last_step_ = 0;
};

// ---------------------------------------------------------------------
// Legacy oracle #2: FrameStreamer as it was before the WireQueue /
// FreezeLedger rebase (git history, src/net/streamer.cpp).
// ---------------------------------------------------------------------

struct LegacyFrame {
  std::int64_t id = 0;
  util::SimTimeUs render_time = 0;
  double bits = 0.0;
};

struct LegacyStreamStats {
  std::int64_t frames_offered = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t frames_dropped = 0;
  double avg_delivery_latency_ms = 0.0;
  double max_delivery_latency_ms = 0.0;
  int freeze_events = 0;
  int longest_freeze_frames = 0;
  std::int64_t last_delivered_id = -1;
};

class LegacyFrameStreamer {
 public:
  LegacyFrameStreamer(util::SimTimeUs deadline, double overhead)
      : deadline_(deadline), overhead_(overhead) {}

  void offer(const LegacyFrame& frame) {
    ++stats_.frames_offered;
    queue_.push_back({frame, frame.bits * overhead_});
  }

  void step(util::SimTimeUs now, util::SimTimeUs slot_duration,
            double capacity_gbps) {
    while (!queue_.empty() &&
           now > queue_.front().frame.render_time + deadline_) {
      record_drop();
      queue_.pop_front();
    }
    double budget_bits = capacity_gbps * 1e9 * util::us_to_s(slot_duration);
    while (budget_bits > 0.0 && !queue_.empty()) {
      InFlight& head = queue_.front();
      const double sent = std::min(budget_bits, head.bits_remaining);
      head.bits_remaining -= sent;
      budget_bits -= sent;
      if (head.bits_remaining <= 0.0) {
        record_delivery(now + slot_duration, head.frame);
        queue_.pop_front();
      }
    }
  }

  const LegacyStreamStats& stats() const noexcept { return stats_; }

 private:
  struct InFlight {
    LegacyFrame frame;
    double bits_remaining = 0.0;
  };

  void record_drop() {
    ++stats_.frames_dropped;
    ++current_drop_run_;
    if (current_drop_run_ == 2) ++stats_.freeze_events;
    stats_.longest_freeze_frames =
        std::max(stats_.longest_freeze_frames, current_drop_run_);
  }

  void record_delivery(util::SimTimeUs now, const LegacyFrame& frame) {
    ++stats_.frames_delivered;
    stats_.last_delivered_id = frame.id;
    current_drop_run_ = 0;
    const double latency_ms = util::us_to_ms(now - frame.render_time);
    latency_sum_ms_ += latency_ms;
    stats_.avg_delivery_latency_ms =
        latency_sum_ms_ / static_cast<double>(stats_.frames_delivered);
    stats_.max_delivery_latency_ms =
        std::max(stats_.max_delivery_latency_ms, latency_ms);
  }

  util::SimTimeUs deadline_;
  double overhead_;
  std::deque<InFlight> queue_;
  LegacyStreamStats stats_;
  double latency_sum_ms_ = 0.0;
  int current_drop_run_ = 0;
};

// ---------------------------------------------------------------------
// Capacity timeline: the fig16 §5.4 study, reduced to a per-slot rate.
// Same interval walk as oracle::evaluate_trace_fixed_step — off slots
// carry 0 Gbps, on slots the 25G prototype's 23.5 Gbps effective rate.
// ---------------------------------------------------------------------

constexpr double kOnRateGbps = 23.5;

std::vector<double> capacity_per_slot(const motion::Trace& trace,
                                      const link::SlotEvalConfig& config) {
  std::vector<double> capacity;
  for (std::size_t i = 1; i < trace.samples.size(); ++i) {
    const auto& prev = trace.samples[i - 1];
    const auto& cur = trace.samples[i];
    link::detail::IntervalModel model;
    model.gap_ms = util::us_to_ms(cur.time - prev.time);
    if (model.gap_ms <= 0.0) continue;
    model.lat_rate =
        geom::translation_distance(prev.pose, cur.pose) / model.gap_ms;
    model.ang_rate =
        geom::rotation_distance(prev.pose, cur.pose) / model.gap_ms;
    model.config = &config;
    const int slots =
        std::max(1, static_cast<int>(model.gap_ms / config.slot_ms));
    for (int s = 0; s < slots; ++s) {
      capacity.push_back(model.off_at(s) ? 0.0 : kOnRateGbps);
    }
  }
  return capacity;
}

// The fig16 dataset recipe (bench/fig16_trace_cdf.cpp), verbatim.
std::vector<motion::Trace> make_dataset(int n) {
  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig gen_config;
  gen_config.max_linear_mps = 0.19;
  gen_config.shift_peak_mps = 0.17;
  gen_config.shift_rate_hz = 0.22;
  return motion::generate_dataset(base, n, gen_config, rng,
                                  util::ThreadPool::global());
}

// One (time, mode) entry per switch; int so EXPECT_EQ prints cleanly.
using SwitchSeq = std::vector<std::pair<util::SimTimeUs, int>>;

struct TraceOutcome {
  SwitchSeq switches;
  std::int64_t frames_offered = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t frames_dropped = 0;
  int freeze_events = 0;
  int longest_freeze_frames = 0;
  std::int64_t last_delivered_id = -1;
  double avg_delivery_latency_ms = 0.0;
  double max_delivery_latency_ms = 0.0;
};

bool operator==(const TraceOutcome& a, const TraceOutcome& b) {
  return a.switches == b.switches && a.frames_offered == b.frames_offered &&
         a.frames_delivered == b.frames_delivered &&
         a.frames_dropped == b.frames_dropped &&
         a.freeze_events == b.freeze_events &&
         a.longest_freeze_frames == b.longest_freeze_frames &&
         a.last_delivered_id == b.last_delivered_id &&
         a.avg_delivery_latency_ms == b.avg_delivery_latency_ms &&
         a.max_delivery_latency_ms == b.max_delivery_latency_ms;
}

constexpr util::SimTimeUs kSlotUs = 1000;
constexpr util::SimTimeUs kFramePeriodUs = 11111;  // 90 fps

// Drives one trace through an ABR controller + wire pair; `ledger`
// supplies the QoE stats (the legacy streamer is its own ledger).  The
// same slot/frame interleave for both paths: frames rendered since the
// last slot are offered (sized by the controller's current mode), then
// the controller and the wire advance one slot.
template <typename Controller, typename Wire, typename Ledger,
          typename Offer>
TraceOutcome drive(const std::vector<double>& capacity,
                   Controller& controller, Wire& wire, const Ledger& ledger,
                   const Offer& offer) {
  TraceOutcome out;
  std::int64_t next_frame = 0;
  int last_switches = 0;
  for (std::size_t s = 0; s < capacity.size(); ++s) {
    const util::SimTimeUs now = static_cast<util::SimTimeUs>(s) * kSlotUs;
    while (next_frame * kFramePeriodUs <= now) {
      const util::SimTimeUs render = next_frame * kFramePeriodUs;
      offer(wire, next_frame, render,
            controller.current_rate_gbps() * 1e9 / 90.0);
      ++next_frame;
    }
    controller.step(now, capacity[s]);
    if (controller.mode_switches() != last_switches) {
      last_switches = controller.mode_switches();
      out.switches.emplace_back(
          now, static_cast<int>(controller.current_rate_gbps() ==
                                20.0));  // 1 = raw, 0 = compressed
    }
    wire.step(now, kSlotUs, capacity[s]);
  }
  const auto& st = ledger.stats();
  out.frames_offered = st.frames_offered;
  out.frames_delivered = st.frames_delivered;
  out.frames_dropped = st.frames_dropped;
  out.freeze_events = st.freeze_events;
  out.longest_freeze_frames = st.longest_freeze_frames;
  out.last_delivered_id = st.last_delivered_id;
  out.avg_delivery_latency_ms = st.avg_delivery_latency_ms;
  out.max_delivery_latency_ms = st.max_delivery_latency_ms;
  return out;
}

TraceOutcome run_new(const std::vector<double>& capacity) {
  EncoderRateAdapter adapter{RatePolicy{}};
  FreezeLedger ledger;
  WireQueue wire{WireQueueConfig{}, ledger};
  return drive(capacity, adapter, wire, ledger,
               [](WireQueue& w, std::int64_t id, util::SimTimeUs render,
                  double bits) { w.offer(id, render, bits); });
}

TraceOutcome run_legacy(const std::vector<double>& capacity) {
  LegacyAdaptiveStreamController controller{LegacyAdaptiveConfig{}};
  LegacyFrameStreamer streamer{22000, 1.05};
  return drive(capacity, controller, streamer, streamer,
               [](LegacyFrameStreamer& s, std::int64_t id,
                  util::SimTimeUs render, double bits) {
                 s.offer(LegacyFrame{id, render, bits});
               });
}

TEST(StreamAbrTest, BitExactWithLegacyOnFullTraceLibrary) {
  const auto traces = make_dataset(500);
  const link::SlotEvalConfig slot_config;  // §5.4 constants (25G)

  std::int64_t total_switches = 0;
  std::int64_t total_freezes = 0;
  std::int64_t total_drops = 0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto capacity = capacity_per_slot(traces[i], slot_config);
    const TraceOutcome legacy = run_legacy(capacity);
    const TraceOutcome fresh = run_new(capacity);
    // EXPECT_EQ per acceptance: the mode-switch sequence (times AND
    // directions) and every freeze/QoE number, bit-exact.
    ASSERT_EQ(fresh.switches, legacy.switches) << "trace " << i;
    ASSERT_TRUE(fresh == legacy) << "trace " << i;
    total_switches += legacy.switches.size();
    total_freezes += legacy.freeze_events;
    total_drops += legacy.frames_dropped;
  }
  // The library must actually exercise the machinery, or bit-exactness
  // is vacuous: some traces flap hard enough to switch modes and freeze.
  EXPECT_GT(total_switches, 0);
  EXPECT_GT(total_freezes, 0);
  EXPECT_GT(total_drops, 0);
}

// Synthetic flap: pin the exact switch times on a hand-built capacity
// square wave, independent of the trace generator, so a regression in
// either implementation fails with readable numbers.
TEST(StreamAbrTest, SquareWaveSwitchTimesAreExact) {
  std::vector<double> capacity;
  for (int s = 0; s < 12000; ++s) {
    const bool up = (s / 3000) % 2 == 0;  // 3 s up, 3 s down, ...
    capacity.push_back(up ? kOnRateGbps : 0.0);
  }
  const TraceOutcome legacy = run_legacy(capacity);
  const TraceOutcome fresh = run_new(capacity);
  EXPECT_EQ(fresh.switches, legacy.switches);
  EXPECT_TRUE(fresh == legacy);
  ASSERT_GE(fresh.switches.size(), 2u);
  EXPECT_EQ(fresh.switches[0].second, 0);  // first switch: downgrade
  EXPECT_EQ(fresh.switches[1].second, 1);  // then recovery
  EXPECT_GT(fresh.freeze_events, 0);
}

}  // namespace
}  // namespace cyclops::stream
