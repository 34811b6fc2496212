// The deterministic parallel runtime: ThreadPool/parallel_for semantics
// plus the bit-identical-at-any-thread-count contract for the hot paths
// that dispatch to it (dataset eval, trace generation, LM Jacobians).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "link/slot_eval.hpp"
#include "motion/trace_generator.hpp"
#include "opt/levmar.hpp"
#include "opt/linalg.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cyclops {
namespace {

// ---- ThreadPool / parallel_for semantics ----

TEST(ThreadPoolTest, ChunkRangesPartitionExactly) {
  for (std::size_t n : {1u, 2u, 7u, 30u, 101u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 7u}) {
      if (chunks > n) continue;
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = util::ThreadPool::chunk_range(n, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_GE(end, begin);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (std::size_t threads : {1u, 2u, 5u}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroAndOneItemRanges) {
  util::ThreadPool pool(4);
  int calls = 0;
  util::parallel_for(0, [&](std::size_t) { ++calls; }, pool);
  EXPECT_EQ(calls, 0);
  util::parallel_for(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; },
                     pool);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for(
      8,
      [&](std::size_t outer) {
        // Nested dispatch on the same pool must not deadlock the fixed
        // worker set; it runs inline on the executing thread.
        util::parallel_for(
            8,
            [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); },
            pool);
      },
      pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapOrdersResults) {
  util::ThreadPool pool(4);
  const std::vector<int> out = util::parallel_map<int>(
      257, [](std::size_t i) { return static_cast<int>(i * i); }, pool);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPoolTest, SerialScopeForcesInline) {
  util::ThreadPool pool(4);
  util::ThreadPool::SerialScope scope;
  // Under the scope everything runs on this thread: a plain (unsynchronized)
  // counter is safe, and under TSan this would flag any stray worker.
  int count = 0;
  util::parallel_for(100, [&](std::size_t) { ++count; }, pool);
  EXPECT_EQ(count, 100);
}

TEST(ThreadPoolTest, ParseThreadCount) {
  // The pure parser behind CYCLOPS_THREADS resolution.
  EXPECT_EQ(util::ThreadPool::parse_thread_count("3", 8), 3u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("1", 8), 1u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count(nullptr, 8), 8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("garbage", 8), 8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("", 8), 8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("0", 8), 8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("-2", 8), 8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("3x", 8), 8u);
  // Hostile sizes fall back instead of sizing a pool from them: strtol's
  // ERANGE clamp to LONG_MAX, and in-range values above the ceiling.
  EXPECT_EQ(util::ThreadPool::parse_thread_count("99999999999999999999", 8),
            8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("-99999999999999999999", 8),
            8u);
  EXPECT_EQ(util::ThreadPool::parse_thread_count("1000000", 8), 8u);
  const std::string ceiling = std::to_string(util::ThreadPool::kMaxThreads);
  const std::string above =
      std::to_string(util::ThreadPool::kMaxThreads + 1);
  EXPECT_EQ(util::ThreadPool::parse_thread_count(ceiling.c_str(), 8),
            static_cast<std::size_t>(util::ThreadPool::kMaxThreads));
  EXPECT_EQ(util::ThreadPool::parse_thread_count(above.c_str(), 8), 8u);
}

TEST(ThreadPoolTest, RequestedThreadsIsResolvedOnce) {
  // The env var is read exactly once per process; later changes must not
  // move the cached value (single source of truth for every default pool).
  const std::size_t resolved = util::ThreadPool::requested_threads();
  EXPECT_GE(resolved, 1u);
  setenv("CYCLOPS_THREADS", "1234", 1);
  EXPECT_EQ(util::ThreadPool::requested_threads(), resolved);
  unsetenv("CYCLOPS_THREADS");
  util::ThreadPool pool;  // default construction uses the cached value
  EXPECT_EQ(pool.thread_count(), resolved);
}

// ---- exceptions and the polling hand-off ----

/// After a job threw, the pool still fans out: a plain job runs every
/// index once, on the parallel path.
void expect_still_fans_out(util::ThreadPool& pool) {
  const std::uint64_t before = pool.stats().parallel_jobs;
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.stats().parallel_jobs, before + 1);
}

TEST(ThreadPoolTest, ThrowFromCallerChunkRethrowsAndPoolStillFansOut) {
  util::ThreadPool pool(3);
  // Workers hold their first chunk until the caller has run one, so the
  // caller gets a chunk (six chunks, two workers); its first one throws.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<int> caller_chunks{0};
  EXPECT_THROW(
      pool.run_chunked(6, 6,
                       [&](std::size_t, std::size_t, std::size_t) {
                         if (std::this_thread::get_id() != caller) {
                           while (!caller_ran.load()) std::this_thread::yield();
                           return;
                         }
                         caller_chunks.fetch_add(1);
                         caller_ran.store(true);
                         throw std::runtime_error("caller chunk");
                       }),
      std::runtime_error);
  EXPECT_EQ(caller_chunks.load(), 1);
  expect_still_fans_out(pool);
  // The inline path restores the depth too: a throw from an inline job
  // leaves later dispatch from this thread parallel.
  EXPECT_THROW(pool.run_chunked(1,
                                [](std::size_t, std::size_t, std::size_t) {
                                  throw std::runtime_error("inline chunk");
                                }),
               std::runtime_error);
  expect_still_fans_out(pool);
}

TEST(ThreadPoolTest, ThrowFromWorkerChunkRethrowsOnCaller) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 2; ++round) {
    // The caller holds its chunk until a worker's has thrown (three
    // chunks, so a worker always gets one); the job rethrows it here.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_threw{false};
    try {
      pool.run_chunked(3, 3, [&](std::size_t, std::size_t, std::size_t) {
        if (std::this_thread::get_id() == caller) {
          while (!worker_threw.load()) std::this_thread::yield();
          return;
        }
        worker_threw.store(true);
        throw std::runtime_error("worker chunk");
      });
      ADD_FAILURE() << "the worker's exception did not reach the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker chunk");
    }
    expect_still_fans_out(pool);
  }
}

TEST(ThreadPoolTest, HandOffRunsEveryIndexOnceUnderStress) {
  // Back-to-back jobs of 1-3 chunks (workers stay in their polling
  // window), jobs after sleeps longer than the window (workers park and
  // must be woken), and pools destroyed while their workers still poll.
  for (const std::size_t threads : {2u, 3u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    util::ThreadPool pool(threads);
    std::vector<int> hits(3);
    std::atomic<std::size_t> executed{0};
    std::size_t ran = 0;
    for (int job = 0; job < 10000; ++job) {
      const std::size_t n = 1 + static_cast<std::size_t>(job) % 3;
      pool.run_chunked(n, n, [&](std::size_t c, std::size_t begin,
                                 std::size_t end) {
        EXPECT_EQ(begin, c);
        EXPECT_EQ(end, c + 1);
        ++hits[c];
        executed.fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i], 1) << "job " << job << " index " << i;
        hits[i] = 0;
      }
      ran += n;
    }
    EXPECT_EQ(executed.load(), ran);
    for (int job = 0; job < 4; ++job) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      std::vector<std::atomic<int>> woke(threads * 4);
      util::parallel_for(
          woke.size(), [&](std::size_t i) { woke[i].fetch_add(1); }, pool);
      for (const auto& w : woke) ASSERT_EQ(w.load(), 1);
    }
  }
  for (int round = 0; round < 50; ++round) {
    auto pool = std::make_unique<util::ThreadPool>(2 + round % 2);
    std::vector<std::atomic<int>> hits(8);
    util::parallel_for(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, *pool);
    pool.reset();  // its workers are inside their polling window
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

// ---- keyed RNG split ----

TEST(RngSplitTest, KeyedSplitIsPureAndOrderIndependent) {
  util::Rng parent(99);
  const util::Rng snapshot = parent;
  util::Rng a0 = snapshot.split(0);
  util::Rng a7 = snapshot.split(7);
  util::Rng b7 = snapshot.split(7);  // same key, any order -> same stream
  util::Rng b0 = snapshot.split(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a0.next_u64(), b0.next_u64());
    EXPECT_EQ(a7.next_u64(), b7.next_u64());
  }
  // Different keys give different streams; keyed split leaves the parent
  // untouched.
  EXPECT_NE(util::Rng(99).split(0).next_u64(),
            util::Rng(99).split(1).next_u64());
  util::Rng untouched(99);
  EXPECT_EQ(parent.next_u64(), untouched.next_u64());
}

// ---- bit-identical hot paths at 1, 2, N threads ----

motion::Trace off_axis_trace(double mps) {
  // Constant-rate translation fast enough to produce off-slots.
  motion::Trace trace;
  for (int i = 0; i <= 300; ++i) {
    const double t_s = i * 0.01;
    trace.samples.push_back(
        {static_cast<util::SimTimeUs>(t_s * 1e6),
         geom::Pose{geom::Mat3::identity(), {mps * t_s, 0.0, 0.0}}});
  }
  return trace;
}

TEST(ParallelEquivalenceTest, EvaluateDatasetMatchesSerial) {
  std::vector<motion::Trace> traces;
  for (int i = 0; i < 7; ++i) traces.push_back(off_axis_trace(0.05 * i));

  const link::SlotEvalConfig config;
  const link::DatasetEvalResult serial =
      link::evaluate_dataset(traces, config, util::ThreadPool::serial());
  EXPECT_GT(serial.pooled.off_slots, 0);

  for (std::size_t threads : {2u, 5u, 16u}) {
    util::ThreadPool pool(threads);
    const link::DatasetEvalResult parallel =
        link::evaluate_dataset(traces, config, pool);
    EXPECT_EQ(parallel.per_trace_off_fraction, serial.per_trace_off_fraction);
    EXPECT_EQ(parallel.pooled.total_slots, serial.pooled.total_slots);
    EXPECT_EQ(parallel.pooled.off_slots, serial.pooled.off_slots);
    EXPECT_EQ(parallel.pooled.off_per_dirty_frame,
              serial.pooled.off_per_dirty_frame);
  }
}

TEST(ParallelEquivalenceTest, GenerateDatasetMatchesSerial) {
  const geom::Pose base{geom::Mat3::identity(), {0.0, 0.8, 1.2}};
  motion::TraceGeneratorConfig config;
  config.duration_s = 5.0;

  util::Rng serial_rng(2022);
  const auto serial = motion::generate_dataset(base, 9, config, serial_rng,
                                               util::ThreadPool::serial());
  ASSERT_EQ(serial.size(), 9u);
  const std::uint64_t expected_next_draw = serial_rng.next_u64();

  for (std::size_t threads : {2u, 4u, 16u}) {
    util::ThreadPool pool(threads);
    util::Rng rng(2022);
    const auto parallel = motion::generate_dataset(base, 9, config, rng, pool);
    // The caller's stream must advance identically too.
    EXPECT_EQ(rng.next_u64(), expected_next_draw);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t t = 0; t < serial.size(); ++t) {
      ASSERT_EQ(parallel[t].samples.size(), serial[t].samples.size());
      for (std::size_t s = 0; s < serial[t].samples.size(); ++s) {
        const auto& ps = parallel[t].samples[s];
        const auto& ss = serial[t].samples[s];
        ASSERT_EQ(ps.time, ss.time);
        const geom::Vec3 dp = ps.pose.translation() - ss.pose.translation();
        ASSERT_EQ(dp.norm(), 0.0);
        for (int r = 0; r < 3; ++r) {
          for (int c = 0; c < 3; ++c) {
            ASSERT_EQ(ps.pose.rotation().m[r][c], ss.pose.rotation().m[r][c]);
          }
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, NumericJacobianMatchesSerial) {
  // A dense nonlinear residual with enough parameters to chunk.
  constexpr std::size_t kParams = 11;
  constexpr std::size_t kResiduals = 23;
  const opt::ResidualFn fn = [](std::span<const double> p,
                                std::vector<double>& r) {
    r.resize(kResiduals);
    for (std::size_t i = 0; i < kResiduals; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < p.size(); ++j) {
        acc += std::sin(p[j] * (i + 1)) + p[j] * p[j] * (j + 1);
      }
      r[i] = acc;
    }
  };
  std::vector<double> at(kParams);
  for (std::size_t j = 0; j < kParams; ++j) at[j] = 0.1 * (j + 1);

  opt::Matrix serial;
  opt::JacobianScratch serial_scratch;
  opt::numeric_jacobian(fn, at, 1e-7, kResiduals, serial,
                        serial_scratch, util::ThreadPool::serial());

  // J^T: one row per parameter, one column per residual.
  ASSERT_EQ(serial.rows(), kParams);
  ASSERT_EQ(serial.cols(), kResiduals);

  for (std::size_t threads : {2u, 3u, 16u}) {
    util::ThreadPool pool(threads);
    opt::Matrix parallel;
    opt::JacobianScratch scratch;
    // Two evaluations through the same scratch: reuse must not leak state.
    for (int pass = 0; pass < 2; ++pass) {
      opt::numeric_jacobian(fn, at, 1e-7, kResiduals, parallel, scratch, pool);
      ASSERT_EQ(parallel.rows(), kParams);
      ASSERT_EQ(parallel.cols(), kResiduals);
      for (std::size_t j = 0; j < kParams; ++j) {
        for (std::size_t i = 0; i < kResiduals; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(parallel(j, i)),
                    std::bit_cast<std::uint64_t>(serial(j, i)))
              << "d r_" << i << " / d p_" << j;
        }
      }
    }
  }
}

TEST(ParallelEquivalenceTest, NumericJacobianDealsLastColumnFirstBitExact) {
  // numeric_jacobian deals its columns last first.  At every pool width
  // the Jacobian must equal a central-difference loop over the columns in
  // index order to the bit, with one buffer set per column when the pool
  // fans out and one shared set when it runs inline.
  constexpr std::size_t kParams = 11;
  constexpr std::size_t kResiduals = 23;
  constexpr double kEpsilon = 1e-7;
  const opt::ResidualFn fn = [](std::span<const double> p,
                                std::vector<double>& r) {
    r.resize(kResiduals);
    for (std::size_t i = 0; i < kResiduals; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < p.size(); ++j) {
        acc += std::cos(p[j] * (i + 2)) * (j + 1) + p[j] * p[j] * p[j];
      }
      r[i] = acc;
    }
  };
  std::vector<double> at(kParams);
  for (std::size_t j = 0; j < kParams; ++j) at[j] = 0.3 * (j + 1) - 1.0;
  opt::Matrix want(kParams, kResiduals);
  for (std::size_t j = 0; j < kParams; ++j) {
    std::vector<double> p = at, r_plus, r_minus;
    const double h = kEpsilon * std::max(1.0, std::abs(p[j]));
    p[j] = at[j] + h;
    fn(p, r_plus);
    p[j] = at[j] - h;
    fn(p, r_minus);
    for (std::size_t i = 0; i < kResiduals; ++i) {
      want(j, i) = (r_plus[i] - r_minus[i]) / (2.0 * h);
    }
  }

  const auto expect_equal = [&](const opt::Matrix& got) {
    ASSERT_EQ(got.rows(), kParams);
    ASSERT_EQ(got.cols(), kResiduals);
    for (std::size_t j = 0; j < kParams; ++j) {
      for (std::size_t i = 0; i < kResiduals; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got(j, i)),
                  std::bit_cast<std::uint64_t>(want(j, i)))
            << "d r_" << i << " / d p_" << j;
      }
    }
  };
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    util::ThreadPool pool(threads);
    opt::Matrix got;
    opt::JacobianScratch scratch;
    opt::numeric_jacobian(fn, at, kEpsilon, kResiduals, got, scratch, pool);
    expect_equal(got);
    EXPECT_EQ(scratch.buffers.size(), threads == 1 ? 1u : kParams);
    opt::numeric_jacobian(fn, at, kEpsilon, kResiduals, got, scratch, pool);
    expect_equal(got);
  }

  // Inline, the columns run in the dealing order itself.
  std::vector<std::size_t> probed;
  const opt::ProbeFn record = [&](std::size_t column,
                                  std::span<const double> p,
                                  std::vector<double>& r) {
    probed.push_back(column);
    fn(p, r);
  };
  opt::Matrix got;
  opt::JacobianScratch scratch;
  opt::numeric_jacobian(record, at, kEpsilon, kResiduals, got, scratch,
                        util::ThreadPool::serial());
  expect_equal(got);
  ASSERT_EQ(probed.size(), 2 * kParams);
  for (std::size_t c = 0; c < kParams; ++c) {
    EXPECT_EQ(probed[2 * c], kParams - 1 - c);
    EXPECT_EQ(probed[2 * c + 1], kParams - 1 - c);
  }
}

}  // namespace
}  // namespace cyclops
