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

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.shard_count(), 1u);
}

}  // namespace
}  // namespace agrarsec::core
