// Per-session runtime context: the four cross-cutting resources every
// plane used to reach through process-wide singletons for, bundled into
// one dependency-injected value.
//
//   * execution   — a util::ThreadPool (owned or borrowed)
//   * telemetry   — an obs::Registry
//   * randomness  — a base util::Rng; consumers derive keyed split()
//                   children so their streams are order-independent
//   * time        — a util::SimClock the session's schedulers ride
//
// There is no process-wide context: every solver, aligner and session
// plane takes its caller's context (or pool) with no default, so the
// caller is the only source of pools and registries.  The borrowing
// constructor wires resources the caller owns; Context::isolated() owns
// fresh copies of everything, which is what lets N sessions run
// concurrently in one process without sharing (or corrupting) each
// other's metrics, RNG streams, pool, or clock: give each session its own
// isolated context and its outputs and exported metrics are bit-identical
// to running it alone (session::run_fleet relies on this; the fleet and
// concurrent-session tests prove it; see DESIGN.md §11).
#pragma once

#include <cstdint>
#include <memory>

#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace cyclops::runtime {

class Context {
 public:
  /// Base seed when the caller names none: "cyclops" in ASCII.
  static constexpr std::uint64_t kDefaultSeed = 0x6379636c6f7073ULL;

  struct Options {
    std::uint64_t seed = kDefaultSeed;
    /// Worker threads of the owned pool.  1 (the default) is a purely
    /// inline pool — the right choice when sessions themselves are fanned
    /// out in parallel; 0 resolves CYCLOPS_THREADS / hardware concurrency.
    std::size_t threads = 1;
  };

  /// Borrowing context: wires existing resources (all must outlive it).
  Context(util::ThreadPool& pool, obs::Registry& registry,
          std::uint64_t seed = kDefaultSeed);

  /// Fully isolated context: builds its own pool (`options.threads`
  /// wide), registry, and clock up front.
  static Context isolated(const Options& options);
  static Context isolated() { return isolated(Options()); }

  Context(Context&&) noexcept = default;
  Context& operator=(Context&&) noexcept = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Stable references: owned resources sit behind unique_ptrs, so
  /// Context moves keep handed-out references valid.
  util::ThreadPool& pool() const noexcept { return *pool_; }
  obs::Registry& registry() const noexcept { return *registry_; }

  /// The session's simulation clock.  Session drivers run their scheduler
  /// on it (a context represents one session timeline; drivers reset it
  /// at session start).  Stable address across Context moves.
  util::SimClock& clock() const noexcept { return *clock_; }

  std::uint64_t seed() const noexcept { return seed_; }
  /// Keyed child generator: a pure function of (seed, key), independent
  /// of call order — consumer i should take rng(i) (or a documented
  /// per-plane key) so streams never alias across consumers.
  util::Rng rng(std::uint64_t key) const noexcept { return base_.split(key); }

 private:
  explicit Context(const Options& options);

  // Owned resources first (null when borrowed), so the pointers below
  // never outlive what they point at.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  std::unique_ptr<obs::Registry> owned_registry_;
  util::ThreadPool* pool_;
  obs::Registry* registry_;
  std::unique_ptr<util::SimClock> clock_;
  util::Rng base_;
  std::uint64_t seed_;
};

}  // namespace cyclops::runtime
