#include "stream/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace cyclops::stream {

CapacityFn channel_capacity(
    phy::Channel& channel,
    std::function<geom::Pose(util::SimTimeUs)> pose_at) {
  return [&channel, pose_at = std::move(pose_at)](util::SimTimeUs t) {
    const double power = channel.power_at(pose_at(t), t);
    const bool up = channel.step(t, power);
    return up ? channel.rate_for(power) : 0.0;
  };
}

StreamPipeline::StreamPipeline(PipelineConfig config,
                               const runtime::Context& ctx)
    : config_(config),
      frame_period_(static_cast<util::SimTimeUs>(
          std::llround(1e6 / config.fps))),
      rng_(ctx.rng(kRngKey)),
      arena_(config.arena),
      adapter_(config.policy, ctx),
      transport_(config.transport, arena_, ctx.rng(kRngKey + 1)) {
  obs::Registry* registry = &ctx.registry();
  arena_.set_obs(registry);
  transport_.set_obs(registry);
  const int receivers = 1 + std::max(0, config_.spectators);
  for (int i = 0; i < receivers; ++i) {
    ledgers_.push_back(std::make_unique<FreezeLedger>());
    // Receiver 0 keeps the unlabelled stream_frames_* metric names;
    // spectators get their own label set.
    if (i == 0) {
      ledgers_.back()->set_obs(registry);
    } else {
      ledgers_.back()->set_obs(registry,
                               {{"receiver", std::to_string(i)}});
    }
    jitters_.push_back(std::make_unique<JitterBuffer>(
        config_.jitter, arena_, *ledgers_.back()));
    const Impairments imp = i == 0 ? config_.headset : config_.spectator;
    JitterBuffer* jb = jitters_.back().get();
    transport_.add_receiver(
        imp, [jb](util::SimTimeUs, const FrameDesc& frame) {
          jb->push(frame);
        });
  }
  pid_ = sched_.add_process(this);
}

void StreamPipeline::render_frame(event::Scheduler& sched) {
  const std::int64_t id = next_frame_id_++;
  const util::SimTimeUs now = sched.now();
  for (auto& ledger : ledgers_) ledger->on_offered();

  double bits = adapter_.current_rate_gbps() * 1e9 / config_.fps;
  if (config_.size_jitter > 0.0) {
    bits *= std::max(0.1, 1.0 + config_.size_jitter * rng_.normal());
  }
  offered_bits_ += bits;

  FrameDesc frame;
  frame.id = id;
  frame.render_time = now;
  frame.bits = bits;
  frame.tier = (config_.gop > 0 && id % config_.gop == 0)
                   ? Tier::kIntra
                   : Tier::kPeripheral;
  frame.payload = arena_.acquire(config_.stored_payload_bytes);
  if (!frame.payload.valid()) {
    // Arena exhausted (max_slabs backpressure): the frame renders but
    // never reaches the wire; jitter-buffer gap accounting records the
    // drop per receiver when the playhead passes this id.
    return;
  }
  std::byte* p = arena_.data(frame.payload);
  for (std::size_t j = 0; j < config_.stored_payload_bytes; ++j) {
    p[j] = static_cast<std::byte>(
        static_cast<std::uint64_t>(id) * 131 + j * 31);
  }
  transport_.offer(frame);
  arena_.release(frame.payload);  // transport fragments hold their own refs
}

void StreamPipeline::handle(event::Scheduler& sched,
                            const event::Event& ev) {
  switch (ev.type) {
    case kFrameEvent: {
      render_frame(sched);
      const util::SimTimeUs next = ev.time + frame_period_;
      if (next < config_.duration) {
        sched.schedule({next, kFrameEvent, pid_, 0, 0.0});
      }
      break;
    }
    case kSlotEvent: {
      const double capacity = (*capacity_)(ev.time);
      adapter_.step(ev.time, capacity);
      transport_.step(ev.time, config_.slot, capacity);
      const util::SimTimeUs next = ev.time + config_.slot;
      if (next < config_.duration) {
        sched.schedule({next, kSlotEvent, pid_, 0, 0.0});
      }
      break;
    }
    case kVsyncEvent: {
      jitters_[static_cast<std::size_t>(ev.i64)]->on_vsync(ev.time);
      const util::SimTimeUs next = ev.time + frame_period_;
      if (next <= config_.duration) {
        sched.schedule({next, kVsyncEvent, pid_, ev.i64, 0.0});
      }
      break;
    }
    default:
      break;
  }
}

PipelineResult StreamPipeline::run(const CapacityFn& capacity) {
  capacity_ = &capacity;
  // FIFO tie-break puts same-time events in schedule order: render, then
  // transmit the slot, then display.
  sched_.schedule({0, kFrameEvent, pid_, 0, 0.0});
  sched_.schedule({0, kSlotEvent, pid_, 0, 0.0});
  for (std::size_t i = 0; i < jitters_.size(); ++i) {
    sched_.schedule({frame_period_, kVsyncEvent, pid_,
                         static_cast<std::int64_t>(i), 0.0});
  }
  const std::uint64_t dispatched = sched_.run_single(*this);
  for (auto& jb : jitters_) jb->finalize(next_frame_id_ - 1);
  capacity_ = nullptr;

  PipelineResult result;
  result.frames_generated = next_frame_id_;
  result.mode_switches = adapter_.mode_switches();
  result.events_dispatched = dispatched;
  result.arena = arena_.stats();
  result.transport = transport_.stats();
  result.duration_s = util::us_to_s(config_.duration);
  result.offered_gbps = offered_bits_ / result.duration_s / 1e9;
  for (std::size_t i = 0; i < jitters_.size(); ++i) {
    ReceiverReport report;
    report.ledger = ledgers_[i]->stats();
    report.jitter = jitters_[i]->stats();
    report.transport = transport_.receiver_stats(static_cast<int>(i));
    report.reassembly = transport_.reassembly_stats(static_cast<int>(i));
    result.torn_frames += report.reassembly.frames_torn;
    result.receivers.push_back(report);
  }
  result.goodput_gbps =
      result.receivers[0].jitter.displayed_bits / result.duration_s / 1e9;
  return result;
}

}  // namespace cyclops::stream
