// Pending-event set: a binary min-heap keyed on (time, sequence).  Ties
// pop in push order (FIFO), which tests/event_queue_test.cpp checks
// against a linear-scan reference model on randomized push / pop
// workloads.  The heap is one vector, so once it has grown to the peak
// number of pending events, scheduling does no heap traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "event/event.hpp"

namespace cyclops::event {

class EventQueue {
 public:
  /// O(log n).  Equal-time events pop FIFO in push order.
  void push(const Event& ev);

  /// Pops the next event into `out`; false when the queue is empty.
  bool pop_next(Event& out);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    Event event;
    std::uint64_t seq = 0;  ///< monotonic push sequence; breaks time ties.
  };

  /// Min-heap order: earliest time first, lowest sequence (push order) on
  /// ties.
  static bool later(const Entry& a, const Entry& b) noexcept {
    return a.event.time != b.event.time ? a.event.time > b.event.time
                                        : a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cyclops::event
