#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace agrarsec::core {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool{threads};
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&hits](std::size_t index, std::size_t) {
        hits[index].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ShardCountIsFixedAndSmallJobsRunEveryIndexOnce) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.shard_count(), 4u);
  // Jobs with fewer indices than shards leave home ranges empty; the
  // shards with empty ranges must steal nothing twice and skip nothing.
  for (int repeat = 0; repeat < 20; ++repeat) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4}, std::size_t{5},
                                std::size_t{103}}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> calls{0};
      pool.parallel_for(n, [&](std::size_t index, std::size_t shard) {
        EXPECT_LT(shard, pool.shard_count());
        hits[index].fetch_add(1);
        calls.fetch_add(1);
      });
      EXPECT_EQ(calls.load(), static_cast<int>(n)) << "n=" << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ShardIndexIsUniquePerJob) {
  // A shard index names one participant: within a job every index a shard
  // runs runs on the same thread, and no two shards share a thread, so
  // per-shard scratch has one writer.
  ThreadPool pool{8};
  for (int job = 0; job < 20; ++job) {
    std::mutex m;
    std::map<std::size_t, std::set<std::thread::id>> threads_by_shard;
    pool.parallel_for(64, [&](std::size_t, std::size_t shard) {
      std::lock_guard<std::mutex> lock(m);
      threads_by_shard[shard].insert(std::this_thread::get_id());
    });
    std::set<std::thread::id> seen;
    for (const auto& [shard, threads] : threads_by_shard) {
      EXPECT_LT(shard, pool.shard_count());
      ASSERT_EQ(threads.size(), 1u) << "shard " << shard;
      EXPECT_TRUE(seen.insert(*threads.begin()).second) << "shard " << shard;
    }
  }
}

TEST(ThreadPoolTest, RepeatedJobsReuseWorkers) {
  ThreadPool pool{4};
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.parallel_for(100, [&total](std::size_t index, std::size_t) {
      total.fetch_add(index);
    });
  }
  EXPECT_EQ(total.load(), 200ull * (99ull * 100ull / 2));
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.shard_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t index, std::size_t shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(shard, 0u);
    order.push_back(index);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, LowestFailingIndexErrorIsRethrown) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool{threads};
    // Every seventh index fails, in every home range; the others record
    // that they ran.
    constexpr std::size_t kN = 100;
    std::vector<std::atomic<int>> hits(kN);
    try {
      pool.parallel_for(kN, [&hits](std::size_t index, std::size_t) {
        hits[index].fetch_add(1);
        if (index % 7 == 3) throw std::runtime_error("index " + std::to_string(index));
      });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      // Deterministic: always the lowest failing index.
      EXPECT_STREQ(e.what(), "index 3") << "threads=" << threads;
    }
    // A throw skips nothing: every index ran exactly once.
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
    // The pool must survive a throwing job and accept the next one.
    std::atomic<int> count{0};
    pool.parallel_for(10, [&count](std::size_t, std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, IdleShardsStealFromABlockedHomeRange) {
  // Four shards, eight indices: index 1 shares shard 0's home range
  // [0, 2) with index 0, and index 0 waits (at most 5 s) until every other
  // index has run. Only a steal by an idle shard can run index 1 in time.
  ThreadPool pool{4};
  constexpr std::size_t kN = 8;
  std::mutex m;
  std::condition_variable others_ran;
  std::size_t done = 0;
  bool timed_out = false;
  pool.parallel_for(kN, [&](std::size_t index, std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    if (index == 0) {
      timed_out = !others_ran.wait_for(lock, std::chrono::seconds(5),
                                       [&] { return done == kN - 1; });
    } else {
      ++done;
      others_ran.notify_all();
    }
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(done, kN - 1);
}

TEST(ThreadPoolTest, ObserverFiresOnceForEachShardThatRan) {
  ThreadPool pool{4};
  std::mutex m;
  std::multiset<std::size_t> observed;
  pool.set_shard_observer([&](std::size_t shard, std::uint64_t) {
    std::lock_guard<std::mutex> lock(m);
    observed.insert(shard);
  });
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    observed.clear();
    std::set<std::size_t> ran;
    pool.parallel_for(n, [&](std::size_t, std::size_t shard) {
      std::lock_guard<std::mutex> lock(m);
      ran.insert(shard);
    });
    // Observers fire on their shard's thread before parallel_for returns.
    EXPECT_EQ(observed, std::multiset<std::size_t>(ran.begin(), ran.end())) << "n=" << n;
  }
  pool.set_shard_observer(nullptr);
}

TEST(ThreadPoolTest, SlicesRunOnceInOrderWithoutOverlap) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool{threads};
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{7}, std::size_t{103}}) {
      for (const std::size_t slices : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " n=" + std::to_string(n) +
                     " slices=" + std::to_string(slices));
        std::vector<std::atomic<int>> in_flight(n);
        std::vector<std::atomic<std::size_t>> calls(n);
        std::atomic<int> overlaps{0};
        std::atomic<int> out_of_order{0};
        pool.parallel_for(n, slices, [&](std::size_t index, std::size_t slice,
                                         std::size_t shard) {
          EXPECT_LT(shard, pool.shard_count());
          if (in_flight[index].exchange(1) != 0) overlaps.fetch_add(1);
          if (calls[index].fetch_add(1) != slice) out_of_order.fetch_add(1);
          in_flight[index].store(0);
        });
        EXPECT_EQ(overlaps.load(), 0);
        EXPECT_EQ(out_of_order.load(), 0);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(calls[i].load(), slices) << "i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SliceHandoffOrdersPlainPerIndexState) {
  // Consecutive slices of an index may run on different shards; the claim
  // flag must order them, so plain per-index state needs no lock of its
  // own. Under TSan a missing happens-before between two slices of one
  // index is a reported race.
  constexpr std::size_t kSlices = 40;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool{threads};
    for (int job = 0; job < 10; ++job) {
      std::vector<std::size_t> plain(13, 0);
      pool.parallel_for(plain.size(), kSlices,
                        [&plain](std::size_t index, std::size_t, std::size_t) {
                          ++plain[index];
                        });
      for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i], kSlices) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, IdleShardsTakeTheSlicesOfABlockedHomeRange) {
  // Four shards, eight indices of five slices: index 1 shares shard 0's
  // home range [0, 2) with index 0, and index 0's first slice waits (at
  // most 5 s) until index 1's last slice has run. Whichever shard holds
  // index 0, only other shards taking index 1's slices can meet that.
  ThreadPool pool{4};
  constexpr std::size_t kN = 8;
  constexpr std::size_t kSlices = 5;
  std::mutex m;
  std::condition_variable index1_done;
  bool done = false;
  bool timed_out = false;
  pool.parallel_for(kN, kSlices, [&](std::size_t index, std::size_t slice, std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    if (index == 0 && slice == 0) {
      timed_out = !index1_done.wait_for(lock, std::chrono::seconds(5), [&] { return done; });
    } else if (index == 1 && slice == kSlices - 1) {
      done = true;
      index1_done.notify_all();
    }
  });
  EXPECT_FALSE(timed_out);
  EXPECT_TRUE(done);
}

TEST(ThreadPoolTest, AShardTakesTurnsOnItsHomeIndices) {
  // Two shards, four indices of three slices. The worker's home range is
  // [2, 4), and index 0's first slice waits (at most 5 s) until all six
  // slices of that range have run, so the worker runs every one of them.
  // Taking the free index with the most slices left, lowest first,
  // alternates between its two home indices.
  ThreadPool pool{2};
  std::mutex m;
  std::condition_variable ran;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  bool timed_out = false;
  pool.parallel_for(4, 3, [&](std::size_t index, std::size_t slice, std::size_t) {
    std::unique_lock<std::mutex> lock(m);
    if (index >= 2) {
      order.emplace_back(index, slice);
      ran.notify_all();
    } else if (index == 0 && slice == 0) {
      timed_out = !ran.wait_for(lock, std::chrono::seconds(5), [&] { return order.size() == 6; });
    }
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(order, (std::vector<std::pair<std::size_t, std::size_t>>{
                       {2, 0}, {3, 0}, {2, 1}, {3, 1}, {2, 2}, {3, 2}}));
}

TEST(ThreadPoolTest, ThrowingSliceSkipsOnlyTheRestOfItsIndex) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool{threads};
    // Every seventh index fails in its second slice, in every home range.
    constexpr std::size_t kN = 100;
    constexpr std::size_t kSlices = 4;
    std::vector<std::atomic<std::size_t>> calls(kN);
    try {
      pool.parallel_for(kN, kSlices, [&calls](std::size_t index, std::size_t slice,
                                              std::size_t) {
        calls[index].fetch_add(1);
        if (index % 7 == 3 && slice == 1) {
          throw std::runtime_error("index " + std::to_string(index));
        }
      });
      FAIL() << "expected an exception, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3") << "threads=" << threads;
    }
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(calls[i].load(), i % 7 == 3 ? 2u : kSlices)
          << "threads=" << threads << " i=" << i;
    }
    std::atomic<int> count{0};
    pool.parallel_for(10, 3, [&count](std::size_t, std::size_t, std::size_t) {
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 30) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, OneShardRunsSlicesBackToBackInIndexOrder) {
  ThreadPool pool{1};
  const auto caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> order;
  pool.parallel_for(3, 4, [&](std::size_t index, std::size_t slice, std::size_t shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(shard, 0u);
    order.emplace_back(index, slice);
  });
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t index = 0; index < 3; ++index) {
    for (std::size_t slice = 0; slice < 4; ++slice) expected.emplace_back(index, slice);
  }
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.shard_count(), 1u);
}

}  // namespace
}  // namespace agrarsec::core
