#include "event/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace cyclops::event {

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t s = free_head_;
    free_head_ = slots_[s].next_free;
    return s;
  }
  slots_.push_back(Slot{});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) noexcept {
  Slot& sl = slots_[slot];
  // The generation bump is what invalidates every outstanding id for this
  // slot — including a cancelled entry still buried in the heap.
  ++sl.generation;
  sl.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t EventQueue::pending_slot(Id id) const noexcept {
  if (id == 0) return kNoSlot;
  const std::uint32_t s = slot_of(id);
  if (s >= slots_.size()) return kNoSlot;
  // Free slots always carry a generation past every id issued for them.
  if (slots_[s].generation != generation_of(id)) return kNoSlot;
  return s;
}

EventQueue::Id EventQueue::push(const Event& ev) {
  const std::uint32_t s = alloc_slot();
  const Id id = make_id(s, slots_[s].generation);
  heap_.push_back(Entry{ev, id, next_seq_++});
  if (heap_.size() > 1) std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_;
  return id;
}

bool EventQueue::cancel(Id id) {
  const std::uint32_t s = pending_slot(id);
  if (s == kNoSlot) return false;
  free_slot(s);
  --live_;
  return true;
}

void EventQueue::pop_top() noexcept {
  if (heap_.size() > 1) std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

bool EventQueue::settle() {
  while (!heap_.empty()) {
    if (!stale(heap_.front())) return true;
    pop_top();
  }
  return false;
}

const Event* EventQueue::peek() {
  if (live_ == 0) {
    heap_.clear();  // drop any stale residue in one shot
    return nullptr;
  }
  settle();
  return &heap_.front().event;
}

bool EventQueue::pop_next(Event& out) {
  if (live_ == 0) {
    heap_.clear();
    return false;
  }
  settle();
  const Entry& top = heap_.front();
  out = top.event;
  free_slot(slot_of(top.id));
  --live_;
  pop_top();
  return true;
}

Event EventQueue::pop() {
  Event ev;
  const bool ok = pop_next(ev);
  assert(ok && "pop() on an empty EventQueue");
  (void)ok;
  return ev;
}

}  // namespace cyclops::event
