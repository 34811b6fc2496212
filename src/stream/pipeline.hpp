// The assembled streaming data plane: frame source -> encoder rate
// adaptation -> zero-copy arena -> sequenced transport -> per-receiver
// jitter-buffered playout, all driven event-first by one
// event::Scheduler.
//
// Three event streams interleave on the scheduler timeline:
//   * kFrameEvent  — at the frame period: the source renders a frame at
//     the EncoderRateAdapter's current mode rate, stamps a deterministic
//     payload digest into an arena slab, and offers it to the transport
//     (refcount-only from here on);
//   * kSlotEvent   — at the 1 ms slot: sample the capacity function
//     (any phy::Channel rate, a trace replay, or a synthetic flap),
//     step the rate adapter, and drain the transport against the slot
//     budget;
//   * kVsyncEvent  — per receiver at the display refresh: the jitter
//     buffer shows the next in-order frame or re-shows the last.
//
// Fan-out: receiver 0 is the headset; N spectators attach with their own
// impairments, reassemblers, and jitter buffers, all sharing the
// headset's arena slabs refcount-only — PipelineResult carries the arena
// copy counter so callers can assert it stayed zero.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "event/process.hpp"
#include "event/scheduler.hpp"
#include "runtime/context.hpp"
#include "stream/frame_arena.hpp"
#include "stream/jitter_buffer.hpp"
#include "stream/rate_adapter.hpp"
#include "stream/transport.hpp"

namespace cyclops::stream {

/// Link capacity (Gbps) available during the slot starting at `t`.
using CapacityFn = std::function<double(util::SimTimeUs)>;

struct PipelineConfig {
  double fps = 90.0;
  util::SimTimeUs slot = 1000;
  util::SimTimeUs duration = 10'000'000;  ///< 10 s.
  /// Spectator receivers beyond the headset (receiver 0).
  int spectators = 0;
  /// Every gop-th frame is intra-coded (tier kIntra).
  int gop = 8;
  /// Stored payload digest per frame (logical size is FrameDesc::bits).
  std::size_t stored_payload_bytes = 4096;
  /// Fractional frame-size jitter (Gaussian), 0 for exact-size frames.
  double size_jitter = 0.0;
  RatePolicy policy;
  TransportConfig transport;
  JitterConfig jitter;
  ArenaConfig arena;
  Impairments headset;    ///< Receiver 0.
  Impairments spectator;  ///< Each spectator receiver.
};

struct ReceiverReport {
  LedgerStats ledger;
  JitterStats jitter;
  ReceiverStats transport;
  ReassemblyStats reassembly;
};

struct PipelineResult {
  std::vector<ReceiverReport> receivers;  ///< [0] = headset.
  std::int64_t frames_generated = 0;
  int mode_switches = 0;
  std::uint64_t events_dispatched = 0;
  ArenaStats arena;          ///< The one arena every receiver shares.
  TransportStats transport;
  double duration_s = 0.0;
  double offered_gbps = 0.0;  ///< Rendered logical bits / duration.
  double goodput_gbps = 0.0;  ///< Headset displayed bits / duration.
  std::int64_t torn_frames = 0;  ///< Sum over receivers; must be 0.
};

class StreamPipeline final : public event::Process {
 public:
  /// RNG key for the pipeline's keyed split of the context generator.
  static constexpr std::uint64_t kRngKey = 0x73747265616dULL;  // "stream"

  /// Builds the full plane from a context: obs lands in ctx.registry()
  /// (headset ledger unlabelled — the WireQueue ledger's names — and
  /// spectators labelled {"receiver", i}), randomness from
  /// ctx.rng(kRngKey).  Throws std::invalid_argument for config.slot <= 0.
  StreamPipeline(PipelineConfig config, const runtime::Context& ctx);

  /// Runs the plane over [0, duration] against the capacity function and
  /// returns the end-of-run report (jitter buffers finalized: undisplayed
  /// tail frames are accounted as drops).  One run per pipeline.
  PipelineResult run(const CapacityFn& capacity);

  void handle(event::Scheduler& sched, const event::Event& ev) override;

  const FrameArena& arena() const noexcept { return arena_; }
  const SequencedTransport& transport() const noexcept { return transport_; }
  const EncoderRateAdapter& adapter() const noexcept { return adapter_; }

 private:
  static constexpr event::EventType kFrameEvent = 0;
  static constexpr event::EventType kSlotEvent = 1;
  static constexpr event::EventType kVsyncEvent = 2;  ///< i64 = receiver.

  void render_frame(event::Scheduler& sched);

  PipelineConfig config_;
  util::SimTimeUs frame_period_;
  util::Rng rng_;
  FrameArena arena_;
  EncoderRateAdapter adapter_;
  SequencedTransport transport_;
  std::vector<std::unique_ptr<FreezeLedger>> ledgers_;
  std::vector<std::unique_ptr<JitterBuffer>> jitters_;
  event::Scheduler sched_;  ///< Self-clocked: the timeline starts at 0.
  event::ProcessId pid_ = event::kNoProcess;
  const CapacityFn* capacity_ = nullptr;
  std::int64_t next_frame_id_ = 0;
  double offered_bits_ = 0.0;
};

}  // namespace cyclops::stream
