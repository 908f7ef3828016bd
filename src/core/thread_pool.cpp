#include "core/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace {
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

namespace agrarsec::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shard_count_ = threads;
  ranges_ = std::make_unique<HomeRange[]>(shard_count_);
  shard_errors_.resize(shard_count_);
  workers_.reserve(shard_count_ - 1);
  for (std::size_t w = 1; w < shard_count_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::prepare_job(std::size_t n, const ShardFn& fn) {
  job_fn_ = &fn;
  const std::size_t s = shard_count_;
  for (std::size_t shard = 0; shard < s; ++shard) {
    ranges_[shard].next.store(shard * n / s, std::memory_order_relaxed);
    ranges_[shard].end = (shard + 1) * n / s;
  }
  std::fill(shard_errors_.begin(), shard_errors_.end(), ShardError{});
}

void ThreadPool::run_shard(std::size_t shard) {
  // Claims need only be atomic: the bodies' data is ordered by the mutex
  // handoff around the job, not by the cursors.
  std::uint64_t start_ns = 0;
  bool ran = false;
  ShardError& failed = shard_errors_[shard];
  for (std::size_t visited = 0; visited < shard_count_; ++visited) {
    HomeRange& range = ranges_[(shard + visited) % shard_count_];
    for (;;) {
      const std::size_t index = range.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= range.end) break;
      if (!ran) {
        ran = true;
        if (observer_) start_ns = steady_now_ns();
      }
      try {
        (*job_fn_)(index, shard);
      } catch (...) {
        if (!failed.error || index < failed.index) {
          failed = ShardError{index, std::current_exception()};
        }
      }
    }
  }
  if (ran && observer_) observer_(shard, steady_now_ns() - start_ns);
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [&] {
        return stopping_ || job_generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = job_generation_;
    }
    // job_fn_, the range ends and the cursors' starting values are written
    // before the generation bump under the mutex, and the ends stay frozen
    // until every shard reports done, so reading them outside the lock is
    // race-free.
    run_shard(worker_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--shards_remaining_ == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const ShardFn& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    // One shard: the whole job runs inline on the caller, no handoff.
    prepare_job(n, fn);
    run_shard(0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      prepare_job(n, fn);
      shards_remaining_ = shard_count_ - 1;  // workers; the caller runs shard 0
      ++job_generation_;
    }
    job_ready_.notify_all();

    run_shard(0);

    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] { return shards_remaining_ == 0; });
  }
  job_fn_ = nullptr;
  // Every index ran, so the lowest failing one does not depend on timing.
  const ShardError* lowest = nullptr;
  for (const ShardError& failed : shard_errors_) {
    if (failed.error && (lowest == nullptr || failed.index < lowest->index)) {
      lowest = &failed;
    }
  }
  if (lowest != nullptr) std::rethrow_exception(lowest->error);
}

}  // namespace agrarsec::core
