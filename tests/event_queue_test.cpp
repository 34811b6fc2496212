// EventQueue against a reference model.
//
// The reference is the plainest possible pending-event set: a vector of
// (time, sequence, tag) entries, popped by a linear min-scan over
// (time, sequence).  Randomized push / pop scripts drive the heap and the
// model side by side and demand identical event streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "event/event_queue.hpp"
#include "util/rng.hpp"

namespace cyclops {
namespace {

using event::Event;
using event::EventQueue;

Event make_event(util::SimTimeUs time, std::int64_t tag) {
  Event ev;
  ev.time = time;
  ev.type = 7;
  ev.i64 = tag;
  return ev;
}

/// One pending entry of the reference model.
struct ModelEntry {
  util::SimTimeUs time = 0;
  std::uint64_t seq = 0;
  std::int64_t tag = 0;
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

/// Pops the model's next event and checks the heap pops the same one.
void pop_both(EventQueue& q, std::vector<ModelEntry>& model,
              util::SimTimeUs& now) {
  const std::size_t want = model_min(model);
  Event ev;
  ASSERT_TRUE(q.pop_next(ev));
  ASSERT_EQ(ev.time, model[want].time);
  ASSERT_EQ(ev.i64, model[want].tag);
  ASSERT_GE(ev.time, now);  // pops are monotone
  now = ev.time;
  model.erase(model.begin() + static_cast<std::ptrdiff_t>(want));
}

/// Runs one randomized push / pop script against the heap and the
/// reference model and checks the popped streams match exactly.
void run_equivalence_script(std::uint64_t seed) {
  util::Rng rng(seed);
  EventQueue q;
  std::vector<ModelEntry> model;
  std::uint64_t next_seq = 0;
  util::SimTimeUs now = 0;

  for (int op = 0; op < 4000; ++op) {
    if (rng.uniform() < 0.55 || model.empty()) {
      // Push: duplicate times are common (the FIFO tie-break is the
      // property most worth hammering).
      const util::SimTimeUs t =
          now + static_cast<util::SimTimeUs>(rng.uniform_index(48));
      const auto tag = static_cast<std::int64_t>(next_seq);
      model.push_back(ModelEntry{t, next_seq++, tag});
      q.push(make_event(t, tag));
    } else {
      pop_both(q, model, now);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }

  // Drain both and compare the full remaining stream.
  while (!model.empty()) pop_both(q, model, now);
  Event ev;
  EXPECT_FALSE(q.pop_next(ev));
}

TEST(EventQueueEquivalence, RandomizedScriptsMatchHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_equivalence_script(seed);
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

}  // namespace
}  // namespace cyclops
