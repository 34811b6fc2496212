// SequencedTransport: packetization math, tier-priority draining with
// peripheral-first eviction, refcount-only fan-out, and the randomized
// packetize -> lossy-reorder-dup wire -> reassemble property test — a
// frame surfaces byte-exact or is cleanly dropped, never torn
// (mirrors the equivalence-script pattern of event_queue_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "stream/frame_arena.hpp"
#include "stream/packet.hpp"
#include "stream/transport.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cyclops::stream {
namespace {

constexpr util::SimTimeUs kSlot = 1000;

FrameDesc make_frame(FrameArena& arena, std::int64_t id,
                     util::SimTimeUs render_time, double bits,
                     std::size_t stored_bytes,
                     Tier tier = Tier::kPeripheral) {
  FrameDesc frame;
  frame.id = id;
  frame.render_time = render_time;
  frame.bits = bits;
  frame.tier = tier;
  frame.payload = arena.acquire(stored_bytes);
  EXPECT_TRUE(frame.payload.valid());
  std::byte* p = arena.data(frame.payload);
  for (std::size_t j = 0; j < stored_bytes; ++j) {
    p[j] = static_cast<std::byte>(static_cast<std::uint64_t>(id) * 131 +
                                  j * 31);
  }
  return frame;
}

TEST(StreamTransportTest, PacketizeSplitsByMtuAndTilesStoredBytes) {
  FrameArena arena;
  util::Rng rng(1);
  TransportConfig config;
  config.max_fragment_bytes = 1000;  // 8000-bit MTU
  SequencedTransport transport(config, arena, rng);

  std::vector<Packet> seen;
  transport.add_receiver({}, nullptr);
  // 33 kbit frame over an 8 kbit MTU -> ceil = 5 fragments.
  FrameDesc frame = make_frame(arena, 7, 0, 33000.0, 512);
  EXPECT_EQ(transport.offer(frame), 5);
  // Queue holds one arena reference per fragment plus the caller's.
  EXPECT_EQ(arena.ref_count(frame.payload), 6u);
  arena.release(frame.payload);
  // Drain everything in one fat slot; the lossless receiver reassembles.
  transport.step(0, kSlot, 1.0);
  EXPECT_EQ(transport.stats().packets_sent, 5);
  EXPECT_EQ(transport.reassembly_stats(0).frames_completed, 1);
  EXPECT_EQ(transport.reassembly_stats(0).frames_torn, 0);
}

TEST(StreamTransportTest, ReassembledFrameIsByteExactAndRefcountOnly) {
  FrameArena arena;
  util::Rng rng(2);
  TransportConfig config;
  config.max_fragment_bytes = 100;
  SequencedTransport transport(config, arena, rng);

  std::vector<std::byte> received;
  transport.add_receiver(
      {}, [&](util::SimTimeUs, const FrameDesc& f) {
        const std::byte* p = arena.data(f.payload);
        received.assign(p, p + arena.size(f.payload));
      });
  FrameDesc frame = make_frame(arena, 42, 0, 5000.0, 333);
  transport.offer(frame);
  std::vector<std::byte> original(arena.data(frame.payload),
                                  arena.data(frame.payload) + 333);
  arena.release(frame.payload);
  transport.step(0, kSlot, 1.0);
  ASSERT_EQ(received.size(), original.size());
  EXPECT_EQ(std::memcmp(received.data(), original.data(), original.size()),
            0);
  EXPECT_EQ(arena.stats().in_use, 0u);   // every reference returned
}

TEST(StreamTransportTest, BacklogEvictsPeripheralBeforeFovealBeforeIntra) {
  FrameArena arena;
  util::Rng rng(3);
  TransportConfig config;
  config.max_fragment_bytes = 1000;
  config.max_backlog_bits = 24000.0;  // room for 3 x 8000-bit fragments
  config.foveal_fraction = 0.0;
  SequencedTransport transport(config, arena, rng);

  auto offer_one = [&](std::int64_t id, Tier tier) {
    FrameDesc f = make_frame(arena, id, 0, 8000.0, 16, tier);
    transport.offer(f);
    arena.release(f.payload);
  };
  offer_one(0, Tier::kIntra);
  offer_one(1, Tier::kPeripheral);
  offer_one(2, Tier::kPeripheral);
  EXPECT_EQ(transport.stats().packets_evicted[2], 0);
  // Fourth fragment pushes past the cap: the OLDEST PERIPHERAL packet
  // goes first, never the intra packet.
  offer_one(3, Tier::kIntra);
  EXPECT_EQ(transport.stats().packets_evicted[2], 1);
  EXPECT_EQ(transport.stats().packets_evicted[0], 0);
  offer_one(4, Tier::kIntra);
  EXPECT_EQ(transport.stats().packets_evicted[2], 2);
  // Only intra packets remain; now the cap has to evict intra.
  offer_one(5, Tier::kIntra);
  EXPECT_EQ(transport.stats().packets_evicted[0], 1);
  EXPECT_EQ(arena.stats().in_use, 3u);  // evicted packets released slabs
}

TEST(StreamTransportTest, StrictTierPriorityOnTheWire) {
  FrameArena arena;
  util::Rng rng(4);
  TransportConfig config;
  config.max_fragment_bytes = 1000;
  config.foveal_fraction = 0.0;
  SequencedTransport transport(config, arena, rng);

  std::vector<std::int64_t> order;
  transport.add_receiver(
      {}, [&](util::SimTimeUs, const FrameDesc& f) {
        order.push_back(f.id);
      });
  auto offer_one = [&](std::int64_t id, Tier tier) {
    FrameDesc f = make_frame(arena, id, 0, 8000.0, 16, tier);
    transport.offer(f);
    arena.release(f.payload);
  };
  offer_one(10, Tier::kPeripheral);
  offer_one(11, Tier::kFoveal);
  offer_one(12, Tier::kIntra);
  // One slot with budget for exactly one packet (8000 bits * 1.05
  // overhead = 8400; 0.0084 Gbps * 1 ms = 8400 bits): the intra frame
  // jumps the whole queue.
  transport.step(0, kSlot, 0.0084);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 12);
  transport.step(kSlot, kSlot, 0.0084);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 11);
  transport.step(2 * kSlot, kSlot, 0.0084);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 10);
}

TEST(StreamTransportTest, FanOutSharesOneSlabAcrossReceivers) {
  FrameArena arena;
  util::Rng rng(5);
  TransportConfig config;
  config.max_fragment_bytes = 1000;
  SequencedTransport transport(config, arena, rng);

  const std::byte* slab = nullptr;
  int surfaced = 0;
  for (int i = 0; i < 16; ++i) {
    transport.add_receiver(
        {}, [&](util::SimTimeUs, const FrameDesc& f) {
          ++surfaced;
          if (slab == nullptr) slab = arena.data(f.payload);
          // Every receiver reads the SAME slab bytes — no copies.
          EXPECT_EQ(arena.data(f.payload), slab);
        });
  }
  FrameDesc frame = make_frame(arena, 1, 0, 4000.0, 64);
  transport.offer(frame);
  arena.release(frame.payload);
  transport.step(0, kSlot, 1.0);
  EXPECT_EQ(surfaced, 16);
  EXPECT_EQ(arena.stats().in_use, 0u);
}

TEST(StreamTransportTest, IncompletePartialExpiresCleanly) {
  FrameArena arena;
  util::Rng rng(6);
  TransportConfig config;
  config.max_fragment_bytes = 1000;
  config.reassembly_timeout = 5000;
  SequencedTransport transport(config, arena, rng);

  int surfaced = 0;
  transport.add_receiver({.loss = 1.0},
                         [&](util::SimTimeUs, const FrameDesc&) {
                           ++surfaced;
                         });
  int delivered_one = transport.add_receiver(
      {}, [&](util::SimTimeUs, const FrameDesc&) { ++surfaced; });
  (void)delivered_one;
  FrameDesc frame = make_frame(arena, 9, 0, 24000.0, 96);
  transport.offer(frame);
  arena.release(frame.payload);
  transport.step(0, kSlot, 1.0);
  EXPECT_EQ(surfaced, 1);  // the lossless receiver only
  // The all-loss receiver never accumulates partials; run empty slots
  // past the timeout to prove nothing lingers or leaks.
  for (int s = 1; s <= 10; ++s) transport.step(s * kSlot, kSlot, 1.0);
  EXPECT_EQ(arena.stats().in_use, 0u);
  EXPECT_EQ(transport.reassembly_stats(0).frames_completed, 0);
  EXPECT_EQ(transport.reassembly_stats(0).frames_torn, 0);
}

// The property test: randomized frame sizes through a lossy, reordering,
// duplicating wire, across three receivers with different impairments.
// Invariant: every frame a receiver surfaces is byte-exact; every other
// frame is cleanly dropped; no frame is ever torn; all arena references
// return when the transport drains.
TEST(StreamTransportTest, RandomizedLossyWireNeverTearsFrames) {
  FrameArena arena({.slab_bytes = 1 << 12});
  util::Rng rng(2022);
  TransportConfig config;
  config.max_fragment_bytes = 500;
  config.reassembly_timeout = 8000;
  SequencedTransport transport(config, arena, rng.split());

  const Impairments imps[3] = {
      {},                                          // clean
      {.loss = 0.3, .dup = 0.1, .reorder = 0.2},   // rough
      {.loss = 0.05, .dup = 0.3, .reorder = 0.4},  // jittery
  };
  struct Seen {
    std::vector<std::int64_t> ids;
    bool all_exact = true;
  };
  Seen seen[3];
  std::map<std::int64_t, std::vector<std::byte>> originals;
  for (int i = 0; i < 3; ++i) {
    transport.add_receiver(
        imps[i], [&, i](util::SimTimeUs, const FrameDesc& f) {
          seen[i].ids.push_back(f.id);
          const std::byte* p = arena.data(f.payload);
          const auto& want = originals.at(f.id);
          seen[i].all_exact =
              seen[i].all_exact && arena.size(f.payload) == want.size() &&
              std::memcmp(p, want.data(), want.size()) == 0;
        });
  }

  util::SimTimeUs now = 0;
  std::int64_t next_id = 0;
  for (int round = 0; round < 400; ++round) {
    const int frames = static_cast<int>(rng.uniform_index(3));
    for (int k = 0; k < frames; ++k) {
      const auto stored = static_cast<std::size_t>(
          64 + rng.uniform_index(3000));
      const double bits = 2000.0 + rng.uniform() * 30000.0;
      const Tier tier = next_id % 8 == 0 ? Tier::kIntra : Tier::kPeripheral;
      FrameDesc f = make_frame(arena, next_id, now, bits, stored, tier);
      originals[next_id] =
          std::vector<std::byte>(arena.data(f.payload),
                                 arena.data(f.payload) + stored);
      ++next_id;
      transport.offer(f);
      arena.release(f.payload);
    }
    transport.step(now, kSlot, 0.02 + rng.uniform() * 0.05);
    now += kSlot;
  }
  // Drain: generous capacity plus quiet slots past the reassembly timeout.
  for (int s = 0; s < 20; ++s) {
    transport.step(now, kSlot, 1.0);
    now += kSlot;
  }

  ASSERT_GT(next_id, 100);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(seen[i].all_exact) << "receiver " << i;
    EXPECT_EQ(transport.reassembly_stats(i).frames_torn, 0)
        << "receiver " << i;
    // Surfaced ids are unique (dups collapse in reassembly).
    std::vector<std::int64_t> ids = seen[i].ids;
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
  // The clean receiver got every frame the wire actually carried.
  EXPECT_EQ(seen[0].ids.size(),
            static_cast<std::size_t>(
                transport.reassembly_stats(0).frames_completed));
  // The rough receivers lost some frames but surfaced plenty.
  EXPECT_GT(seen[1].ids.size(), originals.size() / 8);
  EXPECT_LT(seen[1].ids.size(), seen[0].ids.size());
  // Refcount hygiene: with queues drained, every slab came back.
  EXPECT_EQ(arena.stats().in_use, 0u);
}

}  // namespace
}  // namespace cyclops::stream
