#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
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
      pool.parallel_for(n, [&hits](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ShardCountAndSplitAreDeterministic) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.shard_count(), 4u);

  // The [begin, end) split must depend only on (n, shard_count): record it
  // twice and compare.
  auto record = [&pool] {
    std::mutex m;
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> ranges;
    pool.parallel_for(103, [&](std::size_t begin, std::size_t end, std::size_t shard) {
      std::lock_guard<std::mutex> lock(m);
      ranges.emplace_back(shard, begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  EXPECT_EQ(record(), record());
}

TEST(ThreadPoolTest, ShardIndexIsUniquePerJob) {
  ThreadPool pool{8};
  std::mutex m;
  std::set<std::size_t> shards;
  pool.parallel_for(64, [&](std::size_t, std::size_t, std::size_t shard) {
    std::lock_guard<std::mutex> lock(m);
    shards.insert(shard);
  });
  // Every shard that ran had a distinct index below shard_count().
  for (const std::size_t s : shards) EXPECT_LT(s, pool.shard_count());
}

TEST(ThreadPoolTest, RepeatedJobsReuseWorkers) {
  ThreadPool pool{4};
  std::atomic<std::uint64_t> total{0};
  for (int job = 0; job < 200; ++job) {
    pool.parallel_for(100, [&total](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) total.fetch_add(i);
    });
  }
  EXPECT_EQ(total.load(), 200ull * (99ull * 100ull / 2));
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.shard_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.parallel_for(5, [&](std::size_t, std::size_t, std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, FirstShardErrorIsRethrown) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(100, [](std::size_t begin, std::size_t, std::size_t shard) {
      if (shard >= 1) {
        throw std::runtime_error("shard " + std::to_string(shard) + " begin " +
                                 std::to_string(begin));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Deterministic: always the lowest-numbered failing shard.
    EXPECT_STREQ(e.what(), "shard 1 begin 25");
  }
  // The pool must survive a throwing job and accept the next one.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&count](std::size_t begin, std::size_t end, std::size_t) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareConcurrency) {
  ThreadPool pool{0};
  EXPECT_GE(pool.shard_count(), 1u);
}

}  // namespace
}  // namespace agrarsec::core
