#include "util/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

namespace cyclops::util {
namespace {

// True while the current thread is executing a pool chunk (nested
// dispatch must run inline to avoid deadlocking the fixed worker set) or
// holds an active SerialScope.
thread_local int tl_inline_depth = 0;

/// Raises the inline depth for its lifetime, so a chunk that throws
/// cannot leave later dispatch from this thread stuck inline.
struct InlineDepth {
  InlineDepth() { ++tl_inline_depth; }
  ~InlineDepth() { --tl_inline_depth; }
  InlineDepth(const InlineDepth&) = delete;
  InlineDepth& operator=(const InlineDepth&) = delete;
};

/// How long an idle worker polls for the next job, and the submitter for
/// the last chunk, before parking.
constexpr std::chrono::microseconds kPollWindow{1000};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until `ready()` holds or the poll window closes; returns ready().
template <typename Ready>
bool poll(const Ready& ready) {
  if (ready()) return true;
  const auto deadline = std::chrono::steady_clock::now() + kPollWindow;
  for (;;) {
    for (int spin = 0; spin < 64; ++spin) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::SerialScope::SerialScope() { ++tl_inline_depth; }
ThreadPool::SerialScope::~SerialScope() { --tl_inline_depth; }

std::size_t ThreadPool::parse_thread_count(const char* value,
                                           std::size_t fallback) noexcept {
  if (value != nullptr) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(value, &end, 10);
    if (end != value && *end == '\0' && errno != ERANGE && parsed >= 1 &&
        parsed <= kMaxThreads) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return fallback;
}

std::size_t ThreadPool::requested_threads() {
  // Resolved exactly once; a getenv per pool construction was both wasted
  // work and a thread-safety hazard (getenv concurrent with setenv in
  // tests is a data race).
  static const std::size_t cached = parse_thread_count(
      std::getenv("CYCLOPS_THREADS"),
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return cached;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = requested_threads();
  // An oversubscribed pool parks at once: a polling worker would take a
  // core from the executor it waits for.  (Read once: each read is a
  // system call, and a fleet builds a serial pool per session.)
  static const unsigned hardware = std::thread::hardware_concurrency();
  polls_ = threads <= hardware;
  workers_.reserve(threads - 1);
  for (std::size_t w = 0; w + 1 < threads; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_start_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(std::size_t n,
                                                            std::size_t chunks,
                                                            std::size_t c) {
  const std::size_t q = n / chunks;
  const std::size_t r = n % chunks;
  const std::size_t begin = c * q + std::min(c, r);
  return {begin, begin + q + (c < r ? 1 : 0)};
}

bool ThreadPool::runs_inline() const noexcept {
  return workers_.empty() || tl_inline_depth > 0;
}

void ThreadPool::run_chunked(std::size_t n, const ChunkBody& body) {
  run_chunked(n, thread_count(), body);
}

void ThreadPool::run_chunked(std::size_t n, std::size_t chunks,
                             const ChunkBody& body) {
  if (n == 0) return;
  chunks = std::max<std::size_t>(1, std::min(n, chunks));
  stat_jobs_.fetch_add(1, std::memory_order_relaxed);
  if (chunks == 1 || runs_inline()) {
    stat_inline_jobs_.fetch_add(1, std::memory_order_relaxed);
    stat_chunks_.fetch_add(chunks, std::memory_order_relaxed);
    InlineDepth depth;
    // Inline execution still honors the chunk geometry: per-chunk scratch
    // (registry shards, output slots) must see the same chunk indices the
    // parallel path would use.
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunk_range(n, chunks, c);
      body(c, begin, end);
    }
    return;
  }
  stat_parallel_jobs_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_.fetch_add(chunks, std::memory_order_relaxed);

  std::lock_guard<std::mutex> submit(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    job_n_ = n;
    job_chunks_ = chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    pending_.store(workers_.size(), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_start_.notify_all();

  // The caller is executor 0; every executor pulls chunk indices from the
  // dispenser until it runs dry.
  {
    InlineDepth depth;
    drain_chunks(n, chunks, body);
  }

  // Every worker finishes before this frame (and `body`) may unwind.
  const auto wait_start = std::chrono::steady_clock::now();
  const auto finished = [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (!polls_ || !poll(finished)) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, finished);
  }
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - wait_start);
  stat_wait_us_.fetch_add(static_cast<std::uint64_t>(waited.count()),
                          std::memory_order_relaxed);
  if (failed_.load(std::memory_order_relaxed)) {
    failed_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void ThreadPool::drain_chunks(std::size_t n, std::size_t chunks,
                              const ChunkBody& body) {
  try {
    for (;;) {
      const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const auto [begin, end] = chunk_range(n, chunks, c);
      body(c, begin, end);
    }
  } catch (...) {
    next_chunk_.store(chunks, std::memory_order_relaxed);
    if (!failed_.exchange(true, std::memory_order_relaxed)) {
      error_ = std::current_exception();
    }
  }
}

ThreadPool::Stats ThreadPool::stats() const noexcept {
  Stats s;
  s.jobs = stat_jobs_.load(std::memory_order_relaxed);
  s.inline_jobs = stat_inline_jobs_.load(std::memory_order_relaxed);
  s.parallel_jobs = stat_parallel_jobs_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.wait_us = stat_wait_us_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  const auto posted = [&] {
    return stop_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!polls_ || !poll(posted)) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, posted);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = generation_.load(std::memory_order_acquire);
    {
      InlineDepth depth;
      drain_chunks(job_n_, job_chunks_, *body_);
    }
    // The last worker out wakes a parked submitter; taking mu_ orders the
    // notify after the submitter's predicate check.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

ThreadPool& ThreadPool::serial() {
  static ThreadPool pool(1);
  return pool;
}

}  // namespace cyclops::util
