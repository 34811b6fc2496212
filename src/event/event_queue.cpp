#include "event/event_queue.hpp"

#include <algorithm>

namespace cyclops::event {

void EventQueue::push(const Event& ev) {
  heap_.push_back(Entry{ev, next_seq_++});
  if (heap_.size() > 1) std::push_heap(heap_.begin(), heap_.end(), later);
}

bool EventQueue::pop_next(Event& out) {
  if (heap_.empty()) return false;
  out = heap_.front().event;
  // A one-entry heap skips the sift entirely.
  if (heap_.size() > 1) std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  return true;
}

}  // namespace cyclops::event
