#include "stream/frame_arena.hpp"

#include <algorithm>

#include "obs/config.hpp"

namespace cyclops::stream {

FrameArena::FrameArena(ArenaConfig config) : config_(config) {}

void FrameArena::set_obs(obs::Registry* registry) {
  if constexpr (!obs::kEnabled) registry = nullptr;
  if (registry == nullptr) {
    m_acquires_ = m_releases_ = m_failures_ = nullptr;
    m_slabs_ = nullptr;
    return;
  }
  m_acquires_ = &registry->counter("stream_arena_acquires_total");
  m_releases_ = &registry->counter("stream_arena_releases_total");
  registry->counter("stream_arena_copies_total");  // stays 0
  m_failures_ = &registry->counter("stream_arena_failures_total");
  m_slabs_ = &registry->gauge("stream_arena_slabs");
}

std::uint32_t FrameArena::live_slot(FrameHandle h) const noexcept {
  if (!h.valid()) return kNoSlot;
  const std::uint32_t slot = slot_of(h);
  if (slot >= slots_.size()) return kNoSlot;
  const Slot& s = slots_[slot];
  if (s.refs == 0 || s.generation != generation_of(h)) return kNoSlot;
  return slot;
}

FrameHandle FrameArena::acquire(std::size_t bytes) {
  if (bytes > config_.slab_bytes) {
    ++stats_.failures;
    if (m_failures_ != nullptr) m_failures_->inc();
    return FrameHandle();
  }
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].free_next;
  } else {
    if (config_.max_slabs != 0 && slots_.size() >= config_.max_slabs) {
      ++stats_.failures;
      if (m_failures_ != nullptr) m_failures_->inc();
      return FrameHandle();
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slabs_.push_back(std::make_unique<std::byte[]>(config_.slab_bytes));
    stats_.slabs_allocated = slots_.size();
    if (m_slabs_ != nullptr) m_slabs_->set(static_cast<double>(slots_.size()));
  }
  Slot& s = slots_[slot];
  s.refs = 1;
  s.bytes = bytes;
  s.free_next = kNoSlot;
  ++stats_.acquires;
  ++stats_.in_use;
  stats_.peak_in_use = std::max(stats_.peak_in_use, stats_.in_use);
  if (m_acquires_ != nullptr) m_acquires_->inc();
  return make_handle(slot, s.generation);
}

bool FrameArena::add_ref(FrameHandle h) {
  const std::uint32_t slot = live_slot(h);
  if (slot == kNoSlot) {
    ++stats_.stale_ops;
    return false;
  }
  ++slots_[slot].refs;
  return true;
}

bool FrameArena::release(FrameHandle h) {
  const std::uint32_t slot = live_slot(h);
  if (slot == kNoSlot) {
    ++stats_.stale_ops;
    return false;
  }
  Slot& s = slots_[slot];
  if (--s.refs == 0) {
    // Recycle: bump the generation so every outstanding handle for this
    // occupancy reports stale forever, then chain onto the free list.
    ++s.generation;
    s.bytes = 0;
    s.free_next = free_head_;
    free_head_ = slot;
    ++stats_.releases;
    --stats_.in_use;
    if (m_releases_ != nullptr) m_releases_->inc();
  }
  return true;
}

std::byte* FrameArena::data(FrameHandle h) noexcept {
  const std::uint32_t slot = live_slot(h);
  return slot == kNoSlot ? nullptr : slabs_[slot].get();
}

std::size_t FrameArena::size(FrameHandle h) const noexcept {
  const std::uint32_t slot = live_slot(h);
  return slot == kNoSlot ? 0 : slots_[slot].bytes;
}

bool FrameArena::valid(FrameHandle h) const noexcept {
  return live_slot(h) != kNoSlot;
}

std::uint32_t FrameArena::ref_count(FrameHandle h) const noexcept {
  const std::uint32_t slot = live_slot(h);
  return slot == kNoSlot ? 0 : slots_[slot].refs;
}

}  // namespace cyclops::stream
