#include "stream/transport.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>


namespace cyclops::stream {

// ---------------------------------------------------------------------------
// Reassembler

Reassembler::~Reassembler() {
  for (auto& [id, p] : partials_) arena_->release(p.payload);
  FrameDesc f;
  while (pop(f)) arena_->release(f.payload);
}

void Reassembler::on_packet(util::SimTimeUs now, const Packet& pkt) {
  ++stats_.packets_accepted;
  const auto& h = pkt.header;
  if (resolved_.count(h.frame_id) != 0) {
    // Straggler duplicate for a frame already completed (or torn): a
    // frame surfaces at most once, so this must not seed a new partial.
    ++stats_.duplicate_fragments;
    arena_->release(pkt.payload);
    return;
  }
  auto [it, inserted] = partials_.try_emplace(h.frame_id);
  Partial& p = it->second;
  if (inserted) {
    p.first_arrival = now;
    p.timestamp = h.timestamp;
    p.frag_count = h.frag_count;
    p.tier = h.tier;
    p.got.assign(h.frag_count, false);
    p.payload = pkt.payload;  // keeps the caller's reference
  } else {
    // The partial already pins the slab; this packet's reference is
    // surplus.
    arena_->release(pkt.payload);
  }
  if (h.frag_index >= p.frag_count || p.got[h.frag_index]) {
    ++stats_.duplicate_fragments;
    return;
  }
  p.got[h.frag_index] = true;
  ++p.received;
  p.bits += h.bits;
  p.spans.emplace_back(h.offset, h.length);
  if (static_cast<std::uint8_t>(h.tier) < static_cast<std::uint8_t>(p.tier)) {
    p.tier = h.tier;
  }
  if (p.received == p.frag_count) {
    finish(now, h.frame_id, p);
    partials_.erase(it);
  }
}

void Reassembler::finish(util::SimTimeUs now, std::int64_t frame_id,
                         Partial& p) {
  resolved_.insert(frame_id);
  resolved_log_.emplace_back(now, frame_id);
  // A frame surfaces only when its fragment spans tile the stored
  // payload exactly — [0, size) with no gap or overlap.  Anything else
  // is a torn frame: counted, dropped, never shown.
  std::sort(p.spans.begin(), p.spans.end());
  std::uint32_t cursor = 0;
  bool tiled = true;
  for (const auto& [off, len] : p.spans) {
    if (off != cursor) { tiled = false; break; }
    cursor += len;
  }
  tiled = tiled && cursor == arena_->size(p.payload);
  if (!tiled) {
    ++stats_.frames_torn;
    arena_->release(p.payload);
    return;
  }
  ++stats_.frames_completed;
  FrameDesc out;
  out.id = frame_id;
  out.render_time = p.timestamp;
  out.bits = p.bits;
  out.payload = p.payload;  // the partial's reference transfers
  out.tier = p.tier;
  ready_.push_back(out);
}

void Reassembler::expire(util::SimTimeUs now) {
  while (!resolved_log_.empty() &&
         now - resolved_log_.front().first > timeout_) {
    resolved_.erase(resolved_log_.front().second);
    resolved_log_.pop_front();
  }
  for (auto it = partials_.begin(); it != partials_.end();) {
    if (now - it->second.first_arrival > timeout_) {
      arena_->release(it->second.payload);
      ++stats_.frames_expired;
      it = partials_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Reassembler::pop(FrameDesc& out) {
  if (ready_.empty()) return false;
  out = ready_.front();
  ready_.pop_front();
  return true;
}

// ---------------------------------------------------------------------------
// SequencedTransport

SequencedTransport::SequencedTransport(TransportConfig config,
                                       FrameArena& arena, util::Rng rng)
    : config_(config), arena_(&arena), rng_(rng) {}

SequencedTransport::~SequencedTransport() {
  for (auto& q : queues_) {
    for (const Packet& pkt : q) arena_->release(pkt.payload);
  }
  for (auto& r : receivers_) {
    for (const Packet& pkt : r->held) arena_->release(pkt.payload);
  }
}

void SequencedTransport::set_obs(obs::Registry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    m_sent_ = m_evicted_ = nullptr;
    for (auto& r : receivers_) {
      r->m_delivered = r->m_lost = r->m_frames = nullptr;
    }
    return;
  }
  m_sent_ = &registry->counter("stream_packets_sent_total");
  m_evicted_ = &registry->counter("stream_packets_evicted_total");
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    obs::Labels labels{{"receiver", std::to_string(i)}};
    receivers_[i]->m_delivered =
        &registry->counter("stream_packets_delivered_total", labels);
    receivers_[i]->m_lost =
        &registry->counter("stream_packets_lost_total", labels);
    receivers_[i]->m_frames =
        &registry->counter("stream_frames_reassembled_total", labels);
  }
}

int SequencedTransport::add_receiver(Impairments impairments,
                                     FrameSink sink) {
  const int index = static_cast<int>(receivers_.size());
  receivers_.push_back(std::make_unique<Receiver>(
      *arena_, config_.reassembly_timeout, impairments,
      rng_.split(static_cast<std::uint64_t>(index)), std::move(sink)));
  if (registry_ != nullptr) {
    Receiver& r = *receivers_.back();
    obs::Labels labels{{"receiver", std::to_string(index)}};
    r.m_delivered =
        &registry_->counter("stream_packets_delivered_total", labels);
    r.m_lost = &registry_->counter("stream_packets_lost_total", labels);
    r.m_frames =
        &registry_->counter("stream_frames_reassembled_total", labels);
  }
  return index;
}

int SequencedTransport::offer(const FrameDesc& frame) {
  ++stats_.frames_offered;
  const double mtu_bits =
      static_cast<double>(config_.max_fragment_bytes) * 8.0;
  const std::uint32_t frag_count = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::ceil(frame.bits / mtu_bits)));
  const std::uint32_t foveal_cut =
      frame.tier == Tier::kIntra
          ? frag_count
          : static_cast<std::uint32_t>(
                std::ceil(config_.foveal_fraction * frag_count));
  const std::size_t stored = arena_->size(frame.payload);
  int queued = 0;
  for (std::uint32_t i = 0; i < frag_count; ++i) {
    if (!arena_->add_ref(frame.payload)) break;  // stale handle: stop
    Packet pkt;
    pkt.header.seq = next_seq_++;
    pkt.header.frame_id = frame.id;
    pkt.header.timestamp = frame.render_time;
    pkt.header.frag_index = i;
    pkt.header.frag_count = frag_count;
    pkt.header.offset = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(stored) * i / frag_count);
    pkt.header.length =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(stored) *
                                   (i + 1) / frag_count) -
        pkt.header.offset;
    pkt.header.bits = frame.bits / frag_count;
    pkt.header.tier = frame.tier == Tier::kIntra ? Tier::kIntra
                      : i < foveal_cut           ? Tier::kFoveal
                                                 : frame.tier;
    pkt.header.marker = i + 1 == frag_count;
    pkt.payload = frame.payload;
    backlog_bits_ += pkt.header.bits;
    queues_[static_cast<int>(pkt.header.tier)].push_back(pkt);
    ++stats_.packets_queued;
    ++queued;
  }
  evict_over_backlog();
  return queued;
}

void SequencedTransport::evict_over_backlog() {
  if (config_.max_backlog_bits <= 0.0) return;
  while (backlog_bits_ > config_.max_backlog_bits) {
    // Peripheral first, foveal next, intra only when nothing else is
    // left — loss degrades the periphery before it stalls the GOP.
    int tier = -1;
    for (int t = kTierCount - 1; t >= 0; --t) {
      if (!queues_[t].empty()) { tier = t; break; }
    }
    if (tier < 0) break;
    const Packet pkt = queues_[tier].front();  // oldest: closest to deadline
    queues_[tier].pop_front();
    backlog_bits_ -= pkt.header.bits;
    arena_->release(pkt.payload);
    ++stats_.packets_evicted[tier];
    if (m_evicted_ != nullptr) m_evicted_->inc();
  }
}

void SequencedTransport::deliver(Receiver& r, util::SimTimeUs arrive,
                                 const Packet& pkt) {
  if (!arena_->add_ref(pkt.payload)) return;
  if (r.impairments.reorder > 0.0 &&
      r.rng.uniform() < r.impairments.reorder) {
    ++r.stats.packets_reordered;
    r.held.push_back(pkt);  // jumps behind the next delivered packet
    return;
  }
  r.reassembler.on_packet(arrive, pkt);
  ++r.stats.packets_delivered;
  if (r.m_delivered != nullptr) r.m_delivered->inc();
  // Anything held back is now "later" than a delivered packet — flush.
  for (const Packet& held : r.held) {
    r.reassembler.on_packet(arrive, held);
    ++r.stats.packets_delivered;
    if (r.m_delivered != nullptr) r.m_delivered->inc();
  }
  r.held.clear();
}

void SequencedTransport::fan_out(util::SimTimeUs arrive, const Packet& pkt) {
  for (auto& rp : receivers_) {
    Receiver& r = *rp;
    if (r.rng.uniform() < r.impairments.loss) {
      ++r.stats.packets_lost;
      if (r.m_lost != nullptr) r.m_lost->inc();
      continue;
    }
    deliver(r, arrive, pkt);
    if (r.impairments.dup > 0.0 && r.rng.uniform() < r.impairments.dup) {
      ++r.stats.packets_duped;
      deliver(r, arrive, pkt);
    }
  }
}

void SequencedTransport::step(util::SimTimeUs now,
                              util::SimTimeUs slot_duration,
                              double capacity_gbps) {
  const util::SimTimeUs arrive = now + slot_duration;
  double budget_bits = budget_carry_bits_ +
                       capacity_gbps * 1e9 * util::us_to_s(slot_duration);
  bool drained = false;
  while (budget_bits > 0.0) {
    int tier = -1;
    for (int t = 0; t < kTierCount; ++t) {
      if (!queues_[t].empty()) { tier = t; break; }
    }
    if (tier < 0) { drained = true; break; }
    const Packet pkt = queues_[tier].front();
    queues_[tier].pop_front();
    budget_bits -= pkt.header.bits * config_.overhead;
    backlog_bits_ -= pkt.header.bits;
    ++stats_.packets_sent;
    if (m_sent_ != nullptr) m_sent_->inc();
    fan_out(arrive, pkt);
    arena_->release(pkt.payload);  // the queue's reference
  }
  // Overdraw (a packet larger than the remaining budget still went out
  // whole) carries as serialization debt; idle budget is not banked.
  budget_carry_bits_ = drained ? 0.0 : std::min(budget_bits, 0.0);

  for (auto& rp : receivers_) {
    Receiver& r = *rp;
    // Reorder stashes whose "later" packet never came this slot flush at
    // slot end — a hold is a delay, never a loss.
    for (const Packet& held : r.held) {
      r.reassembler.on_packet(arrive, held);
      ++r.stats.packets_delivered;
      if (r.m_delivered != nullptr) r.m_delivered->inc();
    }
    r.held.clear();
    r.reassembler.expire(arrive);
    FrameDesc frame;
    while (r.reassembler.pop(frame)) {
      if (r.m_frames != nullptr) r.m_frames->inc();
      if (r.sink) r.sink(arrive, frame);
      arena_->release(frame.payload);
    }
  }
}

}  // namespace cyclops::stream
