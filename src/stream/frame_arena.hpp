// Zero-copy frame arena: refcounted fixed-slab frame buffers with
// generation-guarded handles.
//
// The streaming data plane moves rendered frames through packetization,
// per-receiver reassembly, and jitter-buffered playout without ever
// copying payload bytes: a frame's bytes live in exactly one slab, and
// every stage — each in-flight packet, each spectator's reassembler,
// each jitter buffer — holds a refcount on that slab instead of a copy.
// Slabs recycle through a free list when the last reference drops, so a
// steady-state pipeline does zero heap traffic and the arena footprint
// is bounded by the peak number of frames simultaneously in flight.
//
// Handles follow the same lifetime discipline as the event slab
// (event::EventQueue, DESIGN.md §13): a FrameHandle encodes
// (generation << 32) | (slot + 1), recycling a slot bumps its
// generation, and every accessor validates the generation — a stale
// handle (released, recycled) can never read, pin, or free the slot's
// next occupant.  The arena is single-threaded like a Scheduler; fan-out
// parallelism runs one arena per pipeline.
//
// No arena API duplicates payload bytes: N receivers share one slab
// refcount-only.  stats().copies and stream_arena_copies_total stay 0,
// and bench/stream_pipeline still reports and gates them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/registry.hpp"

namespace cyclops::stream {

/// Handle to one arena slab; 0 is never issued (reserved for invalid).
/// Value type: copying the handle does NOT take a reference — use
/// FrameArena::add_ref / release to manage the slab's refcount.
class FrameHandle {
 public:
  FrameHandle() = default;
  bool valid() const noexcept { return bits_ != 0; }
  bool operator==(const FrameHandle&) const = default;

 private:
  friend class FrameArena;
  explicit FrameHandle(std::uint64_t bits) : bits_(bits) {}
  std::uint64_t bits_ = 0;
};

struct ArenaConfig {
  /// Payload capacity of one slab (bytes).  One slab holds one frame's
  /// stored payload; acquire() fails for larger requests.
  std::size_t slab_bytes = 1 << 16;
  /// Hard cap on allocated slabs (0 = unbounded).  When every slab is
  /// referenced, acquire() fails instead of allocating past the cap —
  /// the arena-level backpressure signal.
  std::size_t max_slabs = 0;
};

struct ArenaStats {
  std::size_t slabs_allocated = 0;  ///< Slabs ever allocated (== peak pool).
  std::size_t in_use = 0;           ///< Slabs currently referenced.
  std::size_t peak_in_use = 0;
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;  ///< Slab recycles (refcount reached zero).
  std::uint64_t copies = 0;    ///< Payload byte copies (always 0).
  std::uint64_t failures = 0;  ///< acquire() rejections (size / cap).
  std::uint64_t stale_ops = 0; ///< Operations rejected on stale handles.
};

class FrameArena {
 public:
  explicit FrameArena(ArenaConfig config = {});
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Attaches arena metrics (stream_arena_* counters/gauge).  Handles are
  /// hoisted here; pass nullptr to detach.  No-op in CYCLOPS_OBS=OFF.
  void set_obs(obs::Registry* registry);

  /// Allocates a slab for `bytes` of payload with refcount 1.  Returns an
  /// invalid handle when `bytes` exceeds slab_bytes or the pool is at
  /// max_slabs with every slab referenced.
  FrameHandle acquire(std::size_t bytes);

  /// Pins the slab for another holder (a packet, a receiver).  False (and
  /// no-op) when the handle is stale.
  bool add_ref(FrameHandle h);

  /// Drops one reference; recycles the slab (generation bump, free list)
  /// when the count reaches zero.  False when the handle is stale —
  /// double-release of a recycled slab is rejected, never corrupting the
  /// next occupant.
  bool release(FrameHandle h);

  /// Payload bytes, or nullptr when the handle is stale.
  std::byte* data(FrameHandle h) noexcept;

  /// Stored payload size of the frame in the slab (0 when stale).
  std::size_t size(FrameHandle h) const noexcept;

  /// True while the handle names a live (referenced) slab.
  bool valid(FrameHandle h) const noexcept;

  /// Current refcount (0 when stale) — used by tests to pin the
  /// refcount-only fan-out contract.
  std::uint32_t ref_count(FrameHandle h) const noexcept;

  const ArenaStats& stats() const noexcept { return stats_; }
  const ArenaConfig& config() const noexcept { return config_; }

 private:
  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t refs = 0;
    std::size_t bytes = 0;          ///< Stored payload size.
    std::uint32_t free_next = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static std::uint32_t slot_of(FrameHandle h) noexcept {
    return static_cast<std::uint32_t>(h.bits_ & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(FrameHandle h) noexcept {
    return static_cast<std::uint32_t>(h.bits_ >> 32);
  }
  static FrameHandle make_handle(std::uint32_t slot,
                                 std::uint32_t generation) noexcept {
    return FrameHandle((static_cast<std::uint64_t>(generation) << 32) |
                       (static_cast<std::uint64_t>(slot) + 1));
  }

  /// Slot index when `h` is live, kNoSlot otherwise.
  std::uint32_t live_slot(FrameHandle h) const noexcept;

  ArenaConfig config_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;  ///< Stable addresses.
  std::uint32_t free_head_ = kNoSlot;
  ArenaStats stats_;

  // Hoisted metric handles (null when detached / OBS=OFF).
  obs::Counter* m_acquires_ = nullptr;
  obs::Counter* m_releases_ = nullptr;
  obs::Counter* m_failures_ = nullptr;
  obs::Gauge* m_slabs_ = nullptr;
};

}  // namespace cyclops::stream
