#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace memfp {
namespace {

TEST(ThreadPool, StartStopIsClean) {
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
  }  // destructor joins without deadlock even when idle
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("task 37");
                        }),
      std::runtime_error);
  // The pool is still usable after a failed section.
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReduceIsIdenticalAcrossThreadCounts) {
  // Same chunking (grain fixed) => one partial per chunk, folded serially in
  // chunk order => bit-identical floating-point sums at any width.
  ThreadPool pool(4);
  const std::size_t n = 4096;
  const std::size_t grain = 64;
  const auto run = [&](int limit) {
    ThreadPool::ScopedLimit cap(limit);
    std::vector<double> partials((n + grain - 1) / grain);
    pool.parallel_for_chunks(
        n,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i));
          }
          partials[begin / grain] = s;
        },
        grain);
    double sum = 0.0;
    for (const double p : partials) sum += p;
    return sum;
  };
  const double serial = run(1);
  const double wide = run(4);
  EXPECT_EQ(serial, wide);  // EXPECT_EQ, not NEAR: bit-identical
}

TEST(ThreadPool, ScopedLimitOneForcesCallerThread) {
  ThreadPool pool(4);
  ThreadPool::ScopedLimit cap(1);
  std::set<std::thread::id> ids;
  std::mutex mutex;
  pool.parallel_for(100, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, ScopedLimitCapsDistinctThreads) {
  // Each chunk sleeps briefly so idle workers have every chance to join:
  // a cap of 2 must still keep the section on at most 2 threads.
  ThreadPool pool(4);
  ThreadPool::ScopedLimit cap(2);
  for (int round = 0; round < 5; ++round) {
    std::set<std::thread::id> ids;
    std::mutex mutex;
    pool.parallel_for(
        32,
        [&](std::size_t) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        },
        /*grain=*/1);
    EXPECT_LE(ids.size(), 2u) << "round " << round;
  }
}

TEST(ThreadPool, ScopedLimitRestoresOnExit) {
  EXPECT_EQ(ThreadPool::current_limit(), 0);
  {
    ThreadPool::ScopedLimit outer(2);
    EXPECT_EQ(ThreadPool::current_limit(), 2);
    {
      ThreadPool::ScopedLimit inner(1);
      EXPECT_EQ(ThreadPool::current_limit(), 1);
      ThreadPool::ScopedLimit noop(0);  // <= 0 leaves the cap unchanged
      EXPECT_EQ(ThreadPool::current_limit(), 1);
    }
    EXPECT_EQ(ThreadPool::current_limit(), 2);
  }
  EXPECT_EQ(ThreadPool::current_limit(), 0);
}

TEST(ThreadPool, NestedParallelSectionsDoNotDeadlock) {
  // Stress: every outer chunk opens an inner parallel section, so workers
  // that joined the outer section open sections of their own while the
  // outer one is still draining.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(
        8,
        [&](std::size_t) {
          pool.parallel_for(
              64, [&](std::size_t) { count.fetch_add(1); }, /*grain=*/4);
        },
        /*grain=*/1);
  }
  EXPECT_EQ(count.load(), 10 * 8 * 64);
}

TEST(ThreadPool, NestedExceptionReachesOuterCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          8,
          [&](std::size_t outer) {
            pool.parallel_for(
                64,
                [&](std::size_t inner) {
                  if (outer == 5 && inner == 17) {
                    throw std::runtime_error("inner 5/17");
                  }
                },
                /*grain=*/4);
          },
          /*grain=*/1),
      std::runtime_error);
  // Both levels still work after the failure.
  std::atomic<int> count{0};
  pool.parallel_for(
      8,
      [&](std::size_t) {
        pool.parallel_for(
            16, [&](std::size_t) { count.fetch_add(1); }, /*grain=*/2);
      },
      /*grain=*/1);
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1);
  EXPECT_GE(ThreadPool::global().size(), 1);
}

TEST(ThreadPoolRng, IndexedForkDoesNotAdvanceParent) {
  Rng parent(42);
  Rng copy = parent;
  (void)parent.fork(0);
  (void)parent.fork(123456);
  // Parent stream untouched by const forks.
  EXPECT_EQ(parent.next(), copy.next());
}

TEST(ThreadPoolRng, IndexedForkIsOrderIndependent) {
  Rng a(7), b(7);
  Rng a0 = a.fork(0);
  Rng a1 = a.fork(1);
  Rng b1 = b.fork(1);  // forked before index 0
  Rng b0 = b.fork(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a0.next(), b0.next());
    EXPECT_EQ(a1.next(), b1.next());
  }
}

TEST(ThreadPoolRng, IndexedForkStreamsAreDistinct) {
  Rng parent(99);
  Rng c0 = parent.fork(0);
  Rng c1 = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += c0.next() == c1.next();
  EXPECT_LT(equal, 4);  // adjacent indices decorrelated
  // Different parents give different children for the same index.
  Rng other(100);
  Rng d0 = other.fork(0);
  Rng e0 = Rng(99).fork(0);
  EXPECT_NE(d0.next(), e0.next());
}

}  // namespace
}  // namespace memfp
