// Deterministic parallel runtime.
//
// A fixed pool of workers plus chunked *static* partitioning (no work
// stealing): `parallel_for(n, fn, pool)` splits [0, n) into at most
// `thread_count()` contiguous chunks, chunk c always covers the same index
// range for a given (n, thread_count), and every index runs exactly the
// same arithmetic it would run serially.  As long as iteration i only
// writes state owned by i (its output slot, its child RNG), results are
// bit-identical to the serial path and independent of the thread count.
//
// Thread count resolution: explicit constructor argument, else the
// CYCLOPS_THREADS environment variable, else std::thread::hardware
// concurrency.  Escape hatches: ThreadPool::serial() is a pool that runs
// everything inline, and SerialScope forces *all* dispatch from the
// current thread inline for its lifetime (how benches time the serial
// baseline without re-plumbing every call site).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cyclops::util {

class ThreadPool {
 public:
  /// Chunk body: half-open index range [begin, end) plus the chunk's index
  /// (stable across runs — use it to pick per-chunk scratch buffers).
  using ChunkBody =
      std::function<void(std::size_t chunk, std::size_t begin, std::size_t end)>;

  /// `threads` == 0 resolves CYCLOPS_THREADS / hardware concurrency;
  /// `threads` == 1 is a purely inline (serial) pool.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (worker threads + the calling thread).
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Runs `body` over [0, n) split into min(n, thread_count()) contiguous
  /// chunks; blocks until all chunks finish.  Runs inline when the pool is
  /// serial, when called from inside another pool job (nesting), or under
  /// an active SerialScope.
  void run_chunked(std::size_t n, const ChunkBody& body);

  /// Same, but with an explicit chunk count (clamped to [1, n]).  More
  /// chunks than executors are handed out through an atomic dispenser, so
  /// a straggler chunk no longer idles every other worker — the
  /// load-balancing fix for datasets whose items vary in cost.  Chunk
  /// index -> range stays the static chunk_range geometry and each chunk
  /// may write only state owned by its index, so results remain
  /// bit-identical at any thread count (which executor RUNS a chunk is
  /// nondeterministic; what the chunk computes is not).
  void run_chunked(std::size_t n, std::size_t chunks, const ChunkBody& body);

  /// Static chunk geometry: the index range of chunk c when [0, n) is
  /// split into `chunks` near-equal contiguous pieces.
  static std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                         std::size_t chunks,
                                                         std::size_t c);

  /// Shared process-wide pool (CYCLOPS_THREADS / hardware concurrency).
  /// Nothing defaults to it: a caller that wants it names it.
  static ThreadPool& global();
  /// Shared always-inline pool — the `.serial()` escape hatch for call
  /// sites that take a pool parameter.
  static ThreadPool& serial();
  /// Thread count the environment requests: CYCLOPS_THREADS, else
  /// hardware concurrency, clamped to >= 1.  Resolved ONCE (first call)
  /// and cached — the single source of truth for every
  /// default-constructed pool; later changes to the environment variable
  /// have no effect on this process.
  static std::size_t requested_threads();
  /// Largest thread count parse_thread_count accepts; anything above it
  /// is treated as malformed (a pool that size would exhaust memory
  /// reserving its workers, not run faster).
  static constexpr long kMaxThreads = 1024;

  /// Parses a CYCLOPS_THREADS-style string: the parsed value when
  /// `value` is a whole decimal integer in [1, kMaxThreads], else
  /// `fallback` (out-of-range input, including values strtol clamps,
  /// falls back like any other malformed input).  (Pure; exposed so the
  /// parsing contract is unit-testable without mutating process state.)
  static std::size_t parse_thread_count(const char* value,
                                        std::size_t fallback) noexcept;

  /// Lifetime dispatch tallies (relaxed atomics; a handful of updates per
  /// run_chunked call, not per index).  util cannot depend on obs, so the
  /// pool keeps raw counters and obs::record_thread_pool() snapshots them
  /// into a Registry.
  struct Stats {
    std::uint64_t jobs = 0;           ///< run_chunked calls with n > 0
    std::uint64_t inline_jobs = 0;    ///< ran entirely on the caller
    std::uint64_t parallel_jobs = 0;  ///< fanned out to workers
    std::uint64_t chunks = 0;         ///< chunks dispatched across all jobs
    std::uint64_t wait_us = 0;  ///< submitter wall time blocked on cv_done_
  };
  Stats stats() const noexcept;

  /// While alive, every run_chunked() issued from this thread executes
  /// inline regardless of the pool it targets.
  class SerialScope {
   public:
    SerialScope();
    ~SerialScope();
    SerialScope(const SerialScope&) = delete;
    SerialScope& operator=(const SerialScope&) = delete;
  };

 private:
  void worker_main(std::size_t worker_index);
  /// Pulls chunks off next_chunk_ and runs them until the job drains.
  void drain_chunks(std::size_t n, std::size_t chunks, const ChunkBody& body);

  std::vector<std::thread> workers_;

  // Job hand-off state, all guarded by mu_.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const ChunkBody* body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_chunks_ = 0;
  std::size_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  /// Next undispatched chunk of the in-flight job (the dispenser).
  std::atomic<std::size_t> next_chunk_{0};

  // Serializes concurrent submitters so one job is in flight at a time.
  std::mutex submit_mu_;

  // Stats (relaxed; see Stats).
  std::atomic<std::uint64_t> stat_jobs_{0};
  std::atomic<std::uint64_t> stat_inline_jobs_{0};
  std::atomic<std::uint64_t> stat_parallel_jobs_{0};
  std::atomic<std::uint64_t> stat_chunks_{0};
  std::atomic<std::uint64_t> stat_wait_us_{0};
};

/// `fn(i)` for every i in [0, n), statically chunked over `pool`.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, ThreadPool& pool) {
  pool.run_chunked(n, [&fn](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// `out[i] = fn(i)` for every i in [0, n); each iteration writes only its
/// own slot, so the result is identical at any thread count.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t n, Fn&& fn, ThreadPool& pool) {
  std::vector<T> out(n);
  pool.run_chunked(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace cyclops::util
