#include "util/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>

namespace cyclops::util {
namespace {

// True while the current thread is executing a pool chunk (nested
// dispatch must run inline to avoid deadlocking the fixed worker set) or
// holds an active SerialScope.
thread_local int tl_inline_depth = 0;

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
  workers_.reserve(threads - 1);
  for (std::size_t w = 0; w + 1 < threads; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
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

void ThreadPool::run_chunked(std::size_t n, const ChunkBody& body) {
  run_chunked(n, thread_count(), body);
}

void ThreadPool::run_chunked(std::size_t n, std::size_t chunks,
                             const ChunkBody& body) {
  if (n == 0) return;
  chunks = std::max<std::size_t>(1, std::min(n, chunks));
  stat_jobs_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty() || chunks == 1 || tl_inline_depth > 0) {
    stat_inline_jobs_.fetch_add(1, std::memory_order_relaxed);
    stat_chunks_.fetch_add(chunks, std::memory_order_relaxed);
    ++tl_inline_depth;
    // Inline execution still honors the chunk geometry: per-chunk scratch
    // (registry shards, output slots) must see the same chunk indices the
    // parallel path would use.
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunk_range(n, chunks, c);
      body(c, begin, end);
    }
    --tl_inline_depth;
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
    remaining_ = workers_.size();
    next_chunk_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_start_.notify_all();

  // The caller is executor 0; every executor pulls chunk indices from the
  // dispenser until it runs dry.
  ++tl_inline_depth;
  drain_chunks(n, chunks, body);
  --tl_inline_depth;

  const auto wait_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return remaining_ == 0; });
  body_ = nullptr;
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - wait_start);
  stat_wait_us_.fetch_add(static_cast<std::uint64_t>(waited.count()),
                          std::memory_order_relaxed);
}

void ThreadPool::drain_chunks(std::size_t n, std::size_t chunks,
                              const ChunkBody& body) {
  for (;;) {
    const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) return;
    const auto [begin, end] = chunk_range(n, chunks, c);
    body(c, begin, end);
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

void ThreadPool::worker_main(std::size_t) {
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkBody* body = nullptr;
    std::size_t n = 0;
    std::size_t chunks = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      n = job_n_;
      chunks = job_chunks_;
    }
    ++tl_inline_depth;
    drain_chunks(n, chunks, *body);
    --tl_inline_depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_one();
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
