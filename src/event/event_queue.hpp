// Pending-event set: a binary min-heap keyed on (time, sequence).  Ties
// pop in push order (FIFO), which tests/event_queue_test.cpp checks
// against a linear-scan reference model on randomized push / cancel /
// pop workloads.
//
// Entry bookkeeping lives in a slab pool: every pushed event borrows a
// fixed-size slot carrying a generation counter, and the slot returns to a
// free list when the event pops or cancels.  Steady-state scheduling
// therefore does zero heap traffic and the pool footprint is bounded by
// the peak number of concurrently pending events.  Ids encode
// (generation, slot): a recycled slot bumps its generation, so a stale id
// can never cancel or resurrect the slot's new occupant.  Cancellation is
// lazy — the bumped generation marks the buried heap entry stale and pops
// skip it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "event/event.hpp"

namespace cyclops::event {

class EventQueue {
 public:
  /// Handle of a pushed event; 0 is never issued (reserved for "invalid").
  /// Encodes (generation << 32) | (pool slot + 1); ids are NOT monotonic
  /// (slots recycle) — FIFO tie-breaking uses an internal sequence number.
  using Id = std::uint64_t;

  /// O(log n).  Equal-time events pop FIFO in push order.
  Id push(const Event& ev);

  /// Cancels a pending event and recycles its slot.  Returns false when
  /// `id` already popped, already cancelled, or never issued — cancelling
  /// a fired timer is a harmless no-op.
  bool cancel(Id id);

  /// Next live event, or nullptr when empty.  Prunes cancelled entries.
  const Event* peek();

  /// Pops the next live event into `out`; false when the queue is empty.
  bool pop_next(Event& out);

  /// Pops the next live event.  Precondition: !empty().
  Event pop();

  bool empty() const noexcept { return live_ == 0; }

  /// True while `id` names a live (not popped / cancelled) event.  A
  /// recycled slot bumps its generation, so ids issued for previous
  /// occupants report false here forever.
  bool pending(Id id) const noexcept { return pending_slot(id) != kNoSlot; }

  /// Live (non-cancelled) entries.
  std::size_t size() const noexcept { return live_; }

  /// Pool slots ever allocated — bounded by peak concurrency, not by the
  /// total number of events pushed (what the recycling tests pin down).
  std::size_t pool_slots() const noexcept { return slots_.size(); }

 private:
  struct Entry {
    Event event;
    Id id = 0;
    std::uint64_t seq = 0;  ///< monotonic push sequence; breaks time ties.
  };

  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;  ///< free-list link while the slot is free
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Min-heap order: earliest time first, lowest sequence (push order) on
  /// ties.
  static bool later(const Entry& a, const Entry& b) noexcept {
    return a.event.time != b.event.time ? a.event.time > b.event.time
                                        : a.seq > b.seq;
  }

  static std::uint32_t slot_of(Id id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t generation_of(Id id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static Id make_id(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<Id>(generation) << 32) |
           (static_cast<Id>(slot) + 1);
  }

  bool stale(const Entry& e) const noexcept {
    return slots_[slot_of(e.id)].generation != generation_of(e.id);
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot) noexcept;

  /// Validates `id` against the pool; kNoSlot when not pending.
  std::uint32_t pending_slot(Id id) const noexcept;

  /// Drops stale entries off the top of heap_; false when it empties.
  bool settle();
  /// Removes heap_'s min entry (size-1 heaps skip the sift entirely).
  void pop_top() noexcept;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace cyclops::event
