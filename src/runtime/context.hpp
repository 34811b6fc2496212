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
// Context::default_ctx() borrows the process-wide pool and registry, so a
// call site migrated from ThreadPool::global() / Registry::global() to a
// defaulted Context parameter behaves exactly as before — migration is
// incremental, one signature at a time.  Context::isolated() instead owns
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
  /// Base seed of default_ctx(): "cyclops" in ASCII.  Any consumer keyed
  /// off the default context draws from this documented stream.
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

  /// Fully isolated context: owns its own pool, registry, and clock.
  static Context isolated(const Options& options);
  static Context isolated() { return isolated(Options()); }

  /// The shared process-wide context: borrows ThreadPool::global() and
  /// obs::Registry::global().  Call sites with a defaulted Context
  /// parameter reproduce the pre-Context global behavior through it.
  static Context& default_ctx();

  Context(Context&&) noexcept = default;
  Context& operator=(Context&&) noexcept = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Isolated contexts materialize their owned pool/registry lazily on
  /// first access (LP-scale slimming: a fleet session that never fans out
  /// or records a metric allocates neither).  First access must happen on
  /// one thread — in practice the session thread, before any fan-out —
  /// which every current call site satisfies; after that the reference is
  /// stable (unique_ptr target, so Context moves keep it valid too).
  util::ThreadPool& pool() const noexcept {
    return pool_ != nullptr ? *pool_ : materialize_pool();
  }
  obs::Registry& registry() const noexcept {
    return registry_ != nullptr ? *registry_ : materialize_registry();
  }

  /// The session's simulation clock.  Session drivers run their scheduler
  /// on it (a context represents one session timeline; drivers reset it
  /// at session start).  Stable address across Context moves.
  util::SimClock& clock() const noexcept { return *clock_; }

  std::uint64_t seed() const noexcept { return seed_; }
  /// Keyed child generator: a pure function of (seed, key), independent
  /// of call order — consumer i should take rng(i) (or a documented
  /// per-plane key) so streams never alias across consumers.
  util::Rng rng(std::uint64_t key) const noexcept { return base_.split(key); }

  /// True for isolated contexts even before their lazily-created pool /
  /// registry materializes: ownership is a property of the context's
  /// mode, not of whether the resource has been touched yet.
  bool owns_pool() const noexcept { return lazy_ || owned_pool_ != nullptr; }
  bool owns_registry() const noexcept {
    return lazy_ || owned_registry_ != nullptr;
  }

 private:
  /// Lazy (isolated) mode: resources materialize on first access.
  explicit Context(const Options& options);

  util::ThreadPool& materialize_pool() const noexcept;
  obs::Registry& materialize_registry() const noexcept;

  // Owned resources first so borrowed-or-owned pointers below always
  // outlive nothing they point at; unique_ptrs keep addresses stable
  // across Context moves (handed-out references stay valid).  The owned
  // slots are mutable because isolated contexts fill them lazily behind
  // the const accessors.
  mutable std::unique_ptr<util::ThreadPool> owned_pool_;
  mutable std::unique_ptr<obs::Registry> owned_registry_;
  mutable util::ThreadPool* pool_;
  mutable obs::Registry* registry_;
  bool lazy_ = false;              ///< isolated mode (owns everything)
  std::size_t lazy_threads_ = 1;   ///< owned-pool width when it appears
  std::unique_ptr<util::SimClock> clock_;
  util::Rng base_;
  std::uint64_t seed_;
};

}  // namespace cyclops::runtime
