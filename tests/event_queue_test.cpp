// EventQueue against a reference model + slab-pool recycling.
//
// The reference is the plainest possible pending-event set: a vector of
// live (time, sequence, tag) entries, popped by a linear min-scan over
// (time, sequence).  Randomized push / cancel / reschedule / pop scripts
// drive the heap and the model side by side and demand identical event
// streams; the pool-slot recycling rules (bounded slab, generation-
// guarded ids) are then pinned directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "event/event_queue.hpp"
#include "event/scheduler.hpp"
#include "util/rng.hpp"

namespace cyclops {
namespace {

using event::Event;
using event::EventQueue;
using Id = EventQueue::Id;

Event make_event(util::SimTimeUs time, std::int64_t tag) {
  Event ev;
  ev.time = time;
  ev.type = 7;
  ev.i64 = tag;
  return ev;
}

/// One live entry of the reference model, with the heap's id for the
/// same logical event.
struct ModelEntry {
  util::SimTimeUs time = 0;
  std::uint64_t seq = 0;
  std::int64_t tag = 0;
  Id id = 0;
};

/// Index of the model's next event: earliest time, then lowest sequence.
std::size_t model_min(const std::vector<ModelEntry>& model) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < model.size(); ++i) {
    const ModelEntry& a = model[i];
    const ModelEntry& b = model[best];
    if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = i;
  }
  return best;
}

/// Runs one randomized op script against the heap and the reference
/// model and checks the popped streams match exactly.  A reschedule is a
/// cancel followed by a push (what Scheduler::reschedule does): the event
/// re-enters FIFO order at the back of its new timestamp.
void run_equivalence_script(std::uint64_t seed, double cancel_bias) {
  util::Rng rng(seed);
  EventQueue q;
  std::vector<ModelEntry> model;
  std::uint64_t next_seq = 0;
  util::SimTimeUs now = 0;
  std::int64_t next_tag = 0;

  const auto push = [&](util::SimTimeUs t) {
    const std::int64_t tag = next_tag++;
    return ModelEntry{t, next_seq++, tag, q.push(make_event(t, tag))};
  };

  for (int op = 0; op < 4000; ++op) {
    const double r = rng.uniform();
    if (r < 0.45 || model.empty()) {
      // Push: mixed near/far offsets; duplicate times are common (the
      // FIFO tie-break is the property most worth hammering).
      model.push_back(
          push(now + static_cast<util::SimTimeUs>(rng.uniform_index(48))));
    } else if (r < 0.45 + cancel_bias) {
      const std::size_t pick = rng.uniform_index(model.size());
      ASSERT_TRUE(q.cancel(model[pick].id));
      EXPECT_FALSE(q.pending(model[pick].id));
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (r < 0.45 + cancel_bias + 0.15) {
      // Reschedule a random pending event to a fresh future time.
      const std::size_t pick = rng.uniform_index(model.size());
      ASSERT_TRUE(q.cancel(model[pick].id));
      model[pick] =
          push(now + static_cast<util::SimTimeUs>(rng.uniform_index(96)));
    } else {
      const std::size_t want = model_min(model);
      Event ev;
      ASSERT_TRUE(q.pop_next(ev));
      ASSERT_EQ(ev.time, model[want].time);
      ASSERT_EQ(ev.i64, model[want].tag);
      ASSERT_GE(ev.time, now);  // pops are monotone
      now = ev.time;
      // A popped id is no longer cancellable.
      EXPECT_FALSE(q.pending(model[want].id));
      EXPECT_FALSE(q.cancel(model[want].id));
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(want));
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    for (const ModelEntry& e : model) ASSERT_TRUE(q.pending(e.id));
  }

  // Drain both and compare the full remaining stream.
  Event ev;
  while (!model.empty()) {
    const std::size_t want = model_min(model);
    ASSERT_TRUE(q.pop_next(ev));
    ASSERT_EQ(ev.time, model[want].time);
    ASSERT_EQ(ev.i64, model[want].tag);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(want));
  }
  EXPECT_FALSE(q.pop_next(ev));
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(EventQueueEquivalence, RandomizedScriptsMatchHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_equivalence_script(seed, /*cancel_bias=*/0.10);
  }
}

TEST(EventQueueEquivalence, CancelHeavyScriptsMatchHeap) {
  for (std::uint64_t seed = 100; seed <= 104; ++seed) {
    run_equivalence_script(seed, /*cancel_bias=*/0.30);
  }
}

TEST(EventQueueEquivalence, FifoOrderPreservedForEqualTimes) {
  EventQueue q;
  for (std::int64_t i = 0; i < 64; ++i) q.push(make_event(10, i));
  Event ev;
  for (std::int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(q.pop_next(ev));
    EXPECT_EQ(ev.i64, i) << "heap broke FIFO among equal times";
  }
}

TEST(EventQueuePool, SlabStaysBoundedUnderChurn) {
  EventQueue q;
  Event ev;
  util::SimTimeUs t = 0;
  for (int i = 0; i < 64; ++i) q.push(make_event(t + i, i));
  // Steady-state churn recycles freed slots; the slab must not grow past
  // the high-water mark of concurrently-live events.
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(q.pop_next(ev));
    q.push(make_event(ev.time + 64, ev.i64));
  }
  EXPECT_LE(q.pool_slots(), 64u) << "pool leaked slots under churn";
}

TEST(EventQueuePool, StaleIdNeverResurrectsRecycledSlot) {
  EventQueue q;
  const Id dead = q.push(make_event(5, 1));
  ASSERT_TRUE(q.cancel(dead));
  // The freed slot is recycled by the next push; the old id's generation
  // no longer matches.
  const Id heir = q.push(make_event(6, 2));
  ASSERT_NE(dead, heir);
  EXPECT_FALSE(q.pending(dead));
  EXPECT_FALSE(q.cancel(dead)) << "stale id cancelled the new occupant";
  EXPECT_TRUE(q.pending(heir));
  Event ev;
  ASSERT_TRUE(q.pop_next(ev));
  EXPECT_EQ(ev.i64, 2);
  // Popped ids go stale the same way cancelled ones do.
  EXPECT_FALSE(q.cancel(heir));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueuePool, GenerationSurvivesManyRecycles) {
  EventQueue q;
  std::vector<Id> history;
  for (int i = 0; i < 256; ++i) {
    const Id id = q.push(make_event(i, i));
    history.push_back(id);
    ASSERT_TRUE(q.cancel(id));
  }
  // One slot, recycled 256 times: every historical id must now be dead.
  EXPECT_EQ(q.pool_slots(), 1u);
  for (const Id id : history) EXPECT_FALSE(q.pending(id));
}

TEST(SchedulerReschedule, MutatesTimerInPlaceOrSchedulesFresh) {
  event::Scheduler sched;
  event::Timer timer;
  Event ev = make_event(10, 1);
  // Invalid timer: reschedule degrades to a fresh schedule.
  EXPECT_FALSE(sched.reschedule(timer, ev));
  EXPECT_TRUE(timer.valid());
  EXPECT_EQ(sched.scheduled(), 1u);
  // Live timer: superseded — still exactly one pending event.
  ev = make_event(4, 2);
  EXPECT_TRUE(sched.reschedule(timer, ev));
  EXPECT_TRUE(timer.valid());
  EXPECT_EQ(sched.scheduled(), 2u);
  EXPECT_FALSE(sched.empty());
  EXPECT_TRUE(sched.cancel(timer));
  EXPECT_TRUE(sched.empty());
}

}  // namespace
}  // namespace cyclops
