// RTP-style sequenced transport: packetizer, tiered send queues, lossy
// fan-out, and per-receiver reassembly.
//
// The ka9q-radio shape — independent stages meeting at a sequenced-
// datagram boundary — applied to the VR stream:
//
//   offer(FrameDesc)                 step(now, slot, capacity_gbps)
//        │                                    │
//   packetize ──> tier queues ──> budgeted drain ──> per-receiver
//   (arena refs)  (peripheral-first   (capacity model  impairments ──>
//                  eviction under      from any         Reassembler ──>
//                  backlog)            phy::Channel     frame sink
//                                      rate)
//
// Zero-copy discipline: a packet carries an arena handle + (offset,
// length), never bytes.  The tier queue holds one reference per queued
// packet; fan-out to N receivers pins N more references on the same
// slab; reassembly holds one per partial frame.  The arena's copy
// counter stays zero through all of it.
//
// Delivery contract (pinned by tests/stream_transport_test.cpp): a
// receiver surfaces a frame only when every fragment arrived and the
// fragment spans tile the stored payload exactly — otherwise the frame
// is cleanly dropped (reassembly timeout).  Torn frames — surfaced with
// gapped coverage — are counted and must never occur.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "stream/frame_arena.hpp"
#include "stream/packet.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

struct TransportConfig {
  /// Wire MTU of one fragment (bytes of *logical* frame, pre-overhead).
  std::uint32_t max_fragment_bytes = 256 * 1024;
  /// Transmission overhead factor (protocol framing, FEC).
  double overhead = 1.05;
  /// Send-queue backlog cap in wire bits (pre-overhead); past it the
  /// lowest tier is evicted first (peripheral, then foveal, then — only
  /// when nothing else remains — intra).  0 disables eviction.
  double max_backlog_bits = 1e9;
  /// Leading fraction of a non-intra frame's fragments marked kFoveal
  /// (the gaze region packs first); the rest are kPeripheral.
  double foveal_fraction = 0.2;
  /// A partial frame older than this (since first fragment arrival) is
  /// dropped by the reassembler.
  util::SimTimeUs reassembly_timeout = 22000;
};

/// Per-receiver channel impairments, applied at fan-out with a keyed
/// per-receiver Rng stream (deterministic regardless of receiver count).
struct Impairments {
  double loss = 0.0;     ///< P(drop) per packet.
  double dup = 0.0;      ///< P(deliver twice) per packet.
  double reorder = 0.0;  ///< P(held back past the next packet) per packet.
};

struct ReassemblyStats {
  std::int64_t packets_accepted = 0;
  std::int64_t duplicate_fragments = 0;
  std::int64_t frames_completed = 0;
  std::int64_t frames_expired = 0;  ///< Timed out incomplete — clean drops.
  std::int64_t frames_torn = 0;     ///< Complete but mis-tiled — must be 0.
};

/// Per-receiver fragment collector.  Feeds on packets (taking ownership
/// of one arena reference each), surfaces frames complete-or-never.
class Reassembler {
 public:
  Reassembler(FrameArena& arena, util::SimTimeUs timeout)
      : arena_(&arena), timeout_(timeout) {}
  ~Reassembler();
  Reassembler(const Reassembler&) = delete;
  Reassembler& operator=(const Reassembler&) = delete;

  /// Ingests one packet; the caller's reference on pkt.payload passes to
  /// the reassembler (released on duplicate / completion / expiry).
  void on_packet(util::SimTimeUs now, const Packet& pkt);

  /// Drops partial frames whose first fragment is older than the timeout.
  void expire(util::SimTimeUs now);

  /// Pops the next completed frame (completion order).  The returned
  /// descriptor carries one arena reference the caller must release or
  /// hand off.  Returns false when none is ready.
  bool pop(FrameDesc& out);

  const ReassemblyStats& stats() const noexcept { return stats_; }

 private:
  struct Partial {
    util::SimTimeUs first_arrival = 0;
    util::SimTimeUs timestamp = 0;
    std::uint32_t frag_count = 0;
    std::uint32_t received = 0;
    double bits = 0.0;           ///< Sum of received fragment wire bits.
    Tier tier = Tier::kPeripheral;  ///< Most-protected tier seen.
    FrameHandle payload;         ///< One reference held while partial.
    std::vector<bool> got;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  };

  void finish(util::SimTimeUs now, std::int64_t frame_id, Partial& p);

  FrameArena* arena_;
  util::SimTimeUs timeout_;
  std::unordered_map<std::int64_t, Partial> partials_;
  std::deque<FrameDesc> ready_;
  // Recently-resolved frame ids (completed or torn): straggler duplicate
  // fragments for these must not seed a second partial — a frame
  // surfaces at most once.  Pruned on the same timeout as partials.
  std::unordered_set<std::int64_t> resolved_;
  std::deque<std::pair<util::SimTimeUs, std::int64_t>> resolved_log_;
  ReassemblyStats stats_;
};

struct TransportStats {
  std::int64_t frames_offered = 0;
  std::int64_t packets_queued = 0;
  std::int64_t packets_sent = 0;
  /// Eviction counts by tier index (peripheral-first policy).
  std::int64_t packets_evicted[kTierCount] = {0, 0, 0};
};

struct ReceiverStats {
  std::int64_t packets_delivered = 0;
  std::int64_t packets_lost = 0;
  std::int64_t packets_duped = 0;
  std::int64_t packets_reordered = 0;
};

/// The sender: packetizes frames into tiered queues and drains them
/// against the per-slot capacity budget, fanning each sent packet out to
/// every attached receiver refcount-only.
class SequencedTransport {
 public:
  /// Frames surfaced to a receiver.  The descriptor's payload reference
  /// is owned by the transport for the duration of the call — add_ref to
  /// keep it (the jitter buffer does).
  using FrameSink = std::function<void(util::SimTimeUs, const FrameDesc&)>;

  SequencedTransport(TransportConfig config, FrameArena& arena,
                     util::Rng rng);
  ~SequencedTransport();
  SequencedTransport(const SequencedTransport&) = delete;
  SequencedTransport& operator=(const SequencedTransport&) = delete;

  /// Attaches transport metrics (stream_packets_*, stream_frames_*
  /// reassembly counters, per-receiver labels).  Call before
  /// add_receiver; pass nullptr to detach.
  void set_obs(obs::Registry* registry);

  /// Attaches a receiver; returns its index.  Impairments draw from a
  /// keyed split of the transport Rng, so receiver i's loss pattern is
  /// independent of how many other receivers exist.
  int add_receiver(Impairments impairments, FrameSink sink);

  /// Packetizes one frame into the send queues.  Takes one arena
  /// reference per fragment (the caller keeps its own reference on
  /// frame.payload).  Returns the number of fragments queued.
  int offer(const FrameDesc& frame);

  /// Drains one slot of `capacity_gbps * slot_duration` wire bits from
  /// the queues (strict tier priority, FIFO within a tier; overdrawn budget
  /// carries to the next slot as serialization debt), fans sent packets out
  /// through each receiver's impairments into its reassembler, then
  /// expires stale partials and surfaces completed frames to the sinks.
  /// Packets land at `now + slot_duration` (end-of-slot, matching the
  /// WireQueue discipline).
  void step(util::SimTimeUs now, util::SimTimeUs slot_duration,
            double capacity_gbps);

  const TransportStats& stats() const noexcept { return stats_; }
  const ReceiverStats& receiver_stats(int i) const {
    return receivers_[static_cast<std::size_t>(i)]->stats;
  }
  const ReassemblyStats& reassembly_stats(int i) const {
    return receivers_[static_cast<std::size_t>(i)]->reassembler.stats();
  }
  const TransportConfig& config() const noexcept { return config_; }

 private:
  struct Receiver {
    Receiver(FrameArena& arena, util::SimTimeUs timeout, Impairments imp,
             util::Rng r, FrameSink s)
        : impairments(imp), rng(r), reassembler(arena, timeout),
          sink(std::move(s)) {}
    Impairments impairments;
    util::Rng rng;
    Reassembler reassembler;
    FrameSink sink;
    ReceiverStats stats;
    std::vector<Packet> held;  ///< Reorder stash (flushed within the slot).
    // Hoisted metric handles (null when detached).
    obs::Counter* m_delivered = nullptr;
    obs::Counter* m_lost = nullptr;
    obs::Counter* m_frames = nullptr;
  };

  void evict_over_backlog();
  /// Hands one reference on pkt.payload into the receiver path.
  void deliver(Receiver& r, util::SimTimeUs arrive, const Packet& pkt);
  void fan_out(util::SimTimeUs arrive, const Packet& pkt);

  TransportConfig config_;
  FrameArena* arena_;
  util::Rng rng_;
  std::deque<Packet> queues_[kTierCount];
  double backlog_bits_ = 0.0;      ///< Queued wire bits (pre-overhead).
  double budget_carry_bits_ = 0.0; ///< Serialization spillover (<= 0).
  std::uint64_t next_seq_ = 0;
  std::vector<std::unique_ptr<Receiver>> receivers_;
  TransportStats stats_;
  obs::Registry* registry_ = nullptr;

  // Hoisted metric handles (null when detached).
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_evicted_ = nullptr;
};

}  // namespace cyclops::stream
