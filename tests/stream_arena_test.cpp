// FrameArena: refcounted slab lifetimes, generation-guarded handles,
// recycling under churn, and the bounded-pool backpressure contract
// (DESIGN.md §14; mirrors the event-slab tests in event_queue_test.cpp).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "obs/registry.hpp"
#include "stream/frame_arena.hpp"
#include "util/rng.hpp"

namespace cyclops::stream {
namespace {

TEST(StreamArenaTest, AcquireGivesWritableSlabWithRefcountOne) {
  FrameArena arena;
  FrameHandle h = arena.acquire(128);
  ASSERT_TRUE(h.valid());
  ASSERT_TRUE(arena.valid(h));
  EXPECT_EQ(arena.ref_count(h), 1u);
  EXPECT_EQ(arena.size(h), 128u);
  std::byte* p = arena.data(h);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 128);
  EXPECT_EQ(static_cast<unsigned char>(arena.data(h)[127]), 0xabu);
}

TEST(StreamArenaTest, ReleaseRecyclesAndStaleHandleIsRejected) {
  FrameArena arena;
  FrameHandle h = arena.acquire(64);
  ASSERT_TRUE(arena.release(h));
  // The slab is free: every operation through the stale handle is
  // rejected, never touching the slot's next occupant.
  EXPECT_FALSE(arena.valid(h));
  EXPECT_EQ(arena.data(h), nullptr);
  EXPECT_EQ(arena.size(h), 0u);
  EXPECT_EQ(arena.ref_count(h), 0u);
  EXPECT_FALSE(arena.add_ref(h));
  EXPECT_FALSE(arena.release(h));  // double release rejected

  // The recycled slot goes to a new frame under a new generation; the
  // old handle still does not alias it.
  FrameHandle h2 = arena.acquire(64);
  ASSERT_TRUE(h2.valid());
  EXPECT_FALSE(h2 == h);
  EXPECT_FALSE(arena.valid(h));
  EXPECT_TRUE(arena.valid(h2));
  EXPECT_GE(arena.stats().stale_ops, 2u);  // add_ref + release rejections
  EXPECT_EQ(arena.stats().slabs_allocated, 1u);  // recycled, not grown
}

TEST(StreamArenaTest, RefcountPinsSlabAcrossHolders) {
  FrameArena arena;
  FrameHandle h = arena.acquire(32);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(arena.add_ref(h));
  EXPECT_EQ(arena.ref_count(h), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(arena.release(h));
    EXPECT_TRUE(arena.valid(h));  // still pinned by remaining holders
  }
  EXPECT_TRUE(arena.release(h));
  EXPECT_FALSE(arena.valid(h));
}

TEST(StreamArenaTest, OversizeAcquireFailsAndIsCounted) {
  FrameArena arena({.slab_bytes = 256});
  EXPECT_FALSE(arena.acquire(257).valid());
  EXPECT_EQ(arena.stats().failures, 1u);
  EXPECT_TRUE(arena.acquire(256).valid());
}

TEST(StreamArenaTest, MaxSlabsCapIsBackpressureNotGrowth) {
  FrameArena arena({.slab_bytes = 64, .max_slabs = 3});
  std::vector<FrameHandle> held;
  for (int i = 0; i < 3; ++i) {
    FrameHandle h = arena.acquire(64);
    ASSERT_TRUE(h.valid());
    held.push_back(h);
  }
  // Pool exhausted: acquire fails instead of allocating past the cap.
  EXPECT_FALSE(arena.acquire(64).valid());
  EXPECT_EQ(arena.stats().failures, 1u);
  EXPECT_EQ(arena.stats().slabs_allocated, 3u);
  // Freeing one slab un-jams the pool.
  EXPECT_TRUE(arena.release(held.back()));
  held.pop_back();
  EXPECT_TRUE(arena.acquire(64).valid());
  EXPECT_EQ(arena.stats().slabs_allocated, 3u);
}

// Churn property test (the event-slab recycling pattern): a bounded
// pool under randomized acquire/add_ref/release traffic never grows past
// its peak concurrency, never hands out an aliasing handle, and every
// stale-handle operation is rejected.
TEST(StreamArenaTest, RandomizedChurnRecyclesWithoutAliasing) {
  FrameArena arena({.slab_bytes = 128});
  util::Rng rng(2022);
  struct Live {
    FrameHandle h;
    std::uint32_t refs;
    unsigned char tag;
  };
  std::vector<Live> live;
  std::vector<FrameHandle> stale;
  std::size_t peak_live = 0;

  for (int op = 0; op < 20000; ++op) {
    const double r = rng.uniform();
    if (r < 0.40 || live.empty()) {
      FrameHandle h = arena.acquire(128);
      ASSERT_TRUE(h.valid());
      const auto tag = static_cast<unsigned char>(op & 0xff);
      std::memset(arena.data(h), tag, 128);
      live.push_back({h, 1, tag});
      peak_live = std::max(peak_live, live.size());
    } else if (r < 0.55) {
      Live& pick = live[rng.uniform_index(live.size())];
      ASSERT_TRUE(arena.add_ref(pick.h));
      ++pick.refs;
    } else if (r < 0.90) {
      const std::size_t i = rng.uniform_index(live.size());
      ASSERT_TRUE(arena.release(live[i].h));
      if (--live[i].refs == 0) {
        stale.push_back(live[i].h);
        live[i] = live.back();
        live.pop_back();
      }
    } else if (!stale.empty()) {
      // Stale handles stay dead forever, even as their slots recycle.
      const FrameHandle h = stale[rng.uniform_index(stale.size())];
      EXPECT_FALSE(arena.add_ref(h));
      EXPECT_FALSE(arena.release(h));
      EXPECT_EQ(arena.data(h), nullptr);
    }
    if (op % 1000 == 0) {
      for (const Live& l : live) {
        ASSERT_EQ(arena.ref_count(l.h), l.refs);
        ASSERT_EQ(static_cast<unsigned char>(arena.data(l.h)[0]), l.tag);
        ASSERT_EQ(static_cast<unsigned char>(arena.data(l.h)[127]), l.tag);
      }
    }
  }
  // The pool is bounded by peak concurrency, not total traffic.
  EXPECT_LE(arena.stats().slabs_allocated, peak_live);
  EXPECT_EQ(arena.stats().in_use, live.size());
  EXPECT_GT(arena.stats().releases, 0u);
}

TEST(StreamArenaTest, ObsCountersMatchStats) {
  obs::Registry registry;
  FrameArena arena;
  arena.set_obs(&registry);
  FrameHandle a = arena.acquire(8);
  FrameHandle b = arena.acquire(8);
  arena.release(a);
  arena.add_ref(b);
  arena.acquire(1 << 20);  // oversize: failure
  EXPECT_EQ(registry.counter("stream_arena_acquires_total").value(),
            arena.stats().acquires);
  EXPECT_EQ(registry.counter("stream_arena_releases_total").value(),
            arena.stats().releases);
  EXPECT_EQ(registry.counter("stream_arena_failures_total").value(),
            arena.stats().failures);
}

}  // namespace
}  // namespace cyclops::stream
