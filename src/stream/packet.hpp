// The RTP-flavored wire format of the streaming data plane.
//
// Like ka9q-radio's modules, the pipeline stages are independent and
// meet only at this sequenced-datagram boundary: every packet carries a
// transport-wide sequence number, its frame's id and render timestamp,
// fragment coordinates, and a payload *reference* — a refcounted arena
// handle plus (offset, length) into the slab, never a byte copy.
//
// Tiers implement the GazeProphetV2 observation that not all pixels are
// equally worth delivering: when the send queue exceeds its backlog
// budget, peripheral packets are evicted first, foveal next, and
// intra-coded frames last — so loss degrades the periphery before it
// tears the stream state.
#pragma once

#include <cstdint>

#include "stream/frame_arena.hpp"
#include "util/sim_clock.hpp"

namespace cyclops::stream {

/// Packet priority tier, ordered most- to least-protected.
enum class Tier : std::uint8_t {
  kIntra = 0,       ///< I-frame fragments: loss stalls every later P frame.
  kFoveal = 1,      ///< Gaze-region fragments of a predicted frame.
  kPeripheral = 2,  ///< Out-of-gaze fragments: cheapest to sacrifice.
};

inline constexpr int kTierCount = 3;

/// One frame as the data plane sees it: wire size in bits (drives the
/// capacity model) plus the stored payload in the arena.  The stored
/// payload may be a digest of the logical frame (simulations don't
/// materialize 27 MB of pixels per frame); its bytes are what the
/// reassembly property test checks end to end.
struct FrameDesc {
  std::int64_t id = 0;
  util::SimTimeUs render_time = 0;
  double bits = 0.0;        ///< Logical wire size (pre-overhead).
  FrameHandle payload;      ///< Stored payload slab (refcounted).
  Tier tier = Tier::kPeripheral;  ///< Dominant tier (I frames: kIntra).
};

struct PacketHeader {
  std::uint64_t seq = 0;    ///< Transport-wide monotonic sequence.
  std::int64_t frame_id = 0;
  util::SimTimeUs timestamp = 0;  ///< Frame render time.
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  std::uint32_t offset = 0;  ///< Byte offset into the stored payload.
  std::uint32_t length = 0;  ///< Stored payload bytes in this packet.
  double bits = 0.0;         ///< Wire bits of this fragment (pre-overhead).
  Tier tier = Tier::kPeripheral;
  bool marker = false;       ///< Last fragment of its frame.
};

/// A sequenced datagram: header + payload reference.  The transport
/// add_refs the slab once per in-flight packet and the receive side
/// releases it — packets never own bytes.
struct Packet {
  PacketHeader header;
  FrameHandle payload;
};

}  // namespace cyclops::stream
