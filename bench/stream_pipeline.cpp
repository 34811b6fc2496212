// Streaming data plane study (DESIGN.md §14): what the RTP-style
// transport + jitter-buffered playout deliver under the link the paper
// characterizes.
//
// Three phases:
//   1. ABR policy trade-off over the §5.4 trace library (the fig16
//      dataset): freeze rate vs encode quality for always-raw,
//      always-compressed, and the adaptive controller, at the wire
//      level (WireQueue + FreezeLedger — the rebased FrameStreamer).
//   2. The full packetized pipeline (arena -> transport -> jitter
//      playout) through synthetic link flaps: goodput sustained,
//      frames/sec and events/sec of the event core.
//   3. Spectator fan-out scaling: 1 / 4 / 16 receivers sharing the
//      headset's arena slabs refcount-only.
//
// Hard gates (scripts/check.sh runs the 50-trace smoke subset): zero
// torn frames and >= 1 Gbps goodput through flaps.
//
// Usage: stream_pipeline [n_traces]
//   n_traces < 500 is the smoke subset; it writes BENCH_stream_smoke.json
//   so the committed full-run BENCH_stream.json is never clobbered.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "bench_common.hpp"
#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "runtime/context.hpp"
#include "stream/pipeline.hpp"
#include "stream/rate_adapter.hpp"
#include "stream/wire_queue.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

using namespace cyclops;

namespace {

constexpr int kFullTraces = 500;
constexpr double kOnRateGbps = 23.5;  // 25G prototype effective rate
constexpr util::SimTimeUs kSlotUs = 1000;
constexpr util::SimTimeUs kFramePeriodUs = 11111;  // 90 fps

// The fig16 §5.4 dataset recipe (bench/fig16_trace_cdf.cpp), verbatim.
std::vector<motion::Trace> make_dataset(int n, util::ThreadPool& pool) {
  util::Rng rng(2022);
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig gen_config;
  gen_config.max_linear_mps = 0.19;
  gen_config.shift_peak_mps = 0.17;
  gen_config.shift_rate_hz = 0.22;
  return motion::generate_dataset(base, n, gen_config, rng, pool);
}

// Per-slot capacity from a head trace: the evaluate_trace_fixed_step
// interval walk, reduced to off -> 0 Gbps, on -> 23.5 Gbps.
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

// ---------------------------------------------------------------------
// Phase 1: ABR policy study at the wire level.

enum class Policy { kRaw, kCompressed, kAdaptive };

struct PolicyOutcome {
  double sim_seconds = 0.0;
  std::int64_t frames_offered = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t freeze_events = 0;
  double encoded_bits = 0.0;    ///< Sum of offered frame sizes.
  double delivered_bits = 0.0;  ///< Sum of delivered frame sizes.

  double freeze_per_min() const {
    return sim_seconds > 0.0 ? freeze_events / (sim_seconds / 60.0) : 0.0;
  }
  double delivery_rate() const {
    return frames_offered > 0
               ? static_cast<double>(frames_delivered) / frames_offered
               : 0.0;
  }
  double encode_gbps() const {
    return sim_seconds > 0.0 ? encoded_bits / sim_seconds / 1e9 : 0.0;
  }
  double goodput_gbps() const {
    return sim_seconds > 0.0 ? delivered_bits / sim_seconds / 1e9 : 0.0;
  }
};

// Drives one trace's capacity timeline through the wire queue under a
// policy.  The queue is FIFO and resolves frames strictly in id order
// (expiries from the front, then deliveries from the front), so the
// per-step delta of dropped/delivered counts identifies exactly which
// offered sizes were delivered — the goodput is exact, not estimated.
void drive_policy(const std::vector<double>& capacity, Policy policy,
                  PolicyOutcome& out) {
  stream::FreezeLedger ledger;
  stream::WireQueue wire({}, ledger);
  stream::EncoderRateAdapter adapter{stream::RatePolicy{}};
  std::deque<double> pending_bits;  // offered, not yet resolved
  std::int64_t next_frame = 0;
  std::int64_t seen_dropped = 0;
  std::int64_t seen_delivered = 0;
  for (std::size_t s = 0; s < capacity.size(); ++s) {
    const util::SimTimeUs now = static_cast<util::SimTimeUs>(s) * kSlotUs;
    const double rate_gbps =
        policy == Policy::kRaw          ? adapter.policy().raw_rate_gbps
        : policy == Policy::kCompressed ? adapter.policy().compressed_rate_gbps
                                        : adapter.current_rate_gbps();
    while (next_frame * kFramePeriodUs <= now) {
      const double bits = rate_gbps * 1e9 / 90.0;
      wire.offer(next_frame, next_frame * kFramePeriodUs, bits);
      pending_bits.push_back(bits);
      out.encoded_bits += bits;
      ++next_frame;
    }
    if (policy == Policy::kAdaptive) adapter.step(now, capacity[s]);
    wire.step(now, kSlotUs, capacity[s]);
    const auto& st = ledger.stats();
    for (; seen_dropped < st.frames_dropped; ++seen_dropped) {
      pending_bits.pop_front();
    }
    for (; seen_delivered < st.frames_delivered; ++seen_delivered) {
      out.delivered_bits += pending_bits.front();
      pending_bits.pop_front();
    }
  }
  out.sim_seconds += util::us_to_s(static_cast<util::SimTimeUs>(
      capacity.size() * kSlotUs));
  out.frames_offered += ledger.stats().frames_offered;
  out.frames_delivered += ledger.stats().frames_delivered;
  out.freeze_events += ledger.stats().freeze_events;
}

// ---------------------------------------------------------------------
// Phases 2/3: the full packetized pipeline.

stream::PipelineResult run_pipeline(int spectators, double duration_s,
                                    const stream::CapacityFn& capacity) {
  runtime::Context ctx = runtime::Context::isolated();
  stream::PipelineConfig config;
  config.duration = util::us_from_s(duration_s);
  config.spectators = spectators;
  config.spectator = {.loss = 0.002, .dup = 0.01, .reorder = 0.05};
  stream::StreamPipeline pipe(config, ctx);
  return pipe.run(capacity);
}

// 100 ms outage every 2 s: frequent enough to exercise expiry/eviction
// and jitter-buffer gaps, mild enough (5% off) that the adapter holds
// raw mode — the "sustained through flaps" number is the raw stream.
double flap_capacity(util::SimTimeUs t) {
  return t % util::us_from_s(2.0) < util::us_from_ms(100.0) ? 0.0
                                                            : kOnRateGbps;
}

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "GATE FAILED: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int n_traces =
      argc > 1 ? std::max(1, std::atoi(argv[1])) : kFullTraces;
  std::printf("== Streaming data plane: ABR policies, packetized "
              "pipeline, fan-out (%d traces) ==\n\n",
              n_traces);

  const auto traces = make_dataset(n_traces, util::ThreadPool::global());
  const link::SlotEvalConfig slot_config;  // §5.4 constants (25G)

  // Phase 1: freeze-rate vs quality per ABR policy over the library.
  PolicyOutcome raw, compressed, adaptive;
  for (const auto& trace : traces) {
    const auto capacity = capacity_per_slot(trace, slot_config);
    drive_policy(capacity, Policy::kRaw, raw);
    drive_policy(capacity, Policy::kCompressed, compressed);
    drive_policy(capacity, Policy::kAdaptive, adaptive);
  }
  std::printf("%-12s %14s %14s %12s %12s\n", "policy", "encode Gbps",
              "goodput Gbps", "delivery", "freezes/min");
  const auto policy_row = [](const char* name, const PolicyOutcome& o) {
    std::printf("%-12s %14s %14s %12s %12s\n", name,
                bench::fmt(o.encode_gbps()).c_str(),
                bench::fmt(o.goodput_gbps()).c_str(),
                bench::fmt(o.delivery_rate(), 4).c_str(),
                bench::fmt(o.freeze_per_min()).c_str());
  };
  policy_row("raw", raw);
  policy_row("compressed", compressed);
  policy_row("adaptive", adaptive);

  // Phase 2: the packetized pipeline through link flaps (best-of-2 wall
  // time; the pipeline is a pure function of its config + capacity).
  stream::PipelineResult flap;
  const double flap_ms = [&] {
    bench::Timer timer;
    flap = run_pipeline(0, 10.0, flap_capacity);
    double best = timer.elapsed_ms();
    timer.reset();
    flap = run_pipeline(0, 10.0, flap_capacity);
    return std::min(best, timer.elapsed_ms());
  }();
  const double frames_per_sec =
      flap_ms > 0.0 ? flap.frames_generated / (flap_ms / 1e3) : 0.0;
  const double events_per_sec =
      flap_ms > 0.0 ? flap.events_dispatched / (flap_ms / 1e3) : 0.0;
  std::printf("\nflapping link (100 ms off / 2 s): offered %s Gbps, "
              "goodput %s Gbps, %d mode switches\n",
              bench::fmt(flap.offered_gbps).c_str(),
              bench::fmt(flap.goodput_gbps).c_str(), flap.mode_switches);
  std::printf("  event core: %s frames/s, %s events/s (wall %s ms)\n",
              bench::fmt(frames_per_sec, 0).c_str(),
              bench::fmt(events_per_sec, 0).c_str(),
              bench::fmt(flap_ms).c_str());

  // Phase 3: fan-out scaling.
  const int fan_counts[3] = {1, 4, 16};
  stream::PipelineResult fan[3];
  double fan_ms[3];
  for (int i = 0; i < 3; ++i) {
    bench::Timer timer;
    fan[i] = run_pipeline(fan_counts[i], 5.0, flap_capacity);
    fan_ms[i] = timer.elapsed_ms();
  }
  std::printf("\n%-10s %12s %14s %16s\n", "spectators", "wall ms",
              "headset Gbps", "spectator dlvry");
  std::int64_t fan_torn = 0;
  double spectator_delivery[3];
  for (int i = 0; i < 3; ++i) {
    const auto& r = fan[i];
    double worst = 1.0;
    for (std::size_t j = 1; j < r.receivers.size(); ++j) {
      worst = std::min(worst, r.receivers[j].ledger.delivery_rate());
    }
    spectator_delivery[i] = worst;
    fan_torn += r.torn_frames;
    std::printf("%-10d %12s %14s %16s\n", fan_counts[i],
                bench::fmt(fan_ms[i]).c_str(),
                bench::fmt(r.goodput_gbps).c_str(),
                bench::fmt(worst, 4).c_str());
  }

  // Hard gates (the check.sh smoke stage runs these on the subset).
  bool ok = true;
  ok &= check(flap.torn_frames == 0 && fan_torn == 0, "zero torn frames");
  ok &= check(flap.goodput_gbps >= 1.0,
              "goodput >= 1 Gbps sustained through flaps");
  ok &= check(adaptive.freeze_per_min() <= raw.freeze_per_min(),
              "adaptive freeze rate <= always-raw freeze rate");
  if (!ok) return 1;

  bench::write_bench_json(
      n_traces == kFullTraces ? "stream" : "stream_smoke",
      {{"traces", static_cast<double>(n_traces)},
       {"timing_reps", 2.0},
       {"abr_raw_encode_gbps", raw.encode_gbps()},
       {"abr_raw_goodput_gbps", raw.goodput_gbps()},
       {"abr_raw_delivery_rate", raw.delivery_rate()},
       {"abr_raw_freeze_per_min", raw.freeze_per_min()},
       {"abr_compressed_encode_gbps", compressed.encode_gbps()},
       {"abr_compressed_goodput_gbps", compressed.goodput_gbps()},
       {"abr_compressed_delivery_rate", compressed.delivery_rate()},
       {"abr_compressed_freeze_per_min", compressed.freeze_per_min()},
       {"abr_adaptive_encode_gbps", adaptive.encode_gbps()},
       {"abr_adaptive_goodput_gbps", adaptive.goodput_gbps()},
       {"abr_adaptive_delivery_rate", adaptive.delivery_rate()},
       {"abr_adaptive_freeze_per_min", adaptive.freeze_per_min()},
       {"flap_offered_gbps", flap.offered_gbps},
       {"flap_goodput_gbps", flap.goodput_gbps},
       {"flap_mode_switches", static_cast<double>(flap.mode_switches)},
       {"flap_wall_ms", flap_ms},
       {"frames_per_sec", frames_per_sec},
       {"events_per_sec", events_per_sec},
       {"fanout_1_wall_ms", fan_ms[0]},
       {"fanout_4_wall_ms", fan_ms[1]},
       {"fanout_16_wall_ms", fan_ms[2]},
       {"fanout_1_goodput_gbps", fan[0].goodput_gbps},
       {"fanout_4_goodput_gbps", fan[1].goodput_gbps},
       {"fanout_16_goodput_gbps", fan[2].goodput_gbps},
       {"fanout_16_spectator_delivery", spectator_delivery[2]},
       {"torn_frames", 0.0}});
  return 0;
}
