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

/// The busy flag of an index's state word; the rest is its slices left
/// times two.
constexpr std::size_t kBusy = 1;
}  // namespace

namespace agrarsec::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shard_count_ = threads;
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

void ThreadPool::prepare_job(std::size_t n, std::size_t slices, const SliceFn& fn) {
  job_fn_ = &fn;
  job_n_ = n;
  job_slices_ = slices;
  if (index_state_.size() < n) index_state_ = std::vector<std::atomic<std::size_t>>(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_state_[i].store(slices << 1, std::memory_order_relaxed);
  }
  std::fill(shard_errors_.begin(), shard_errors_.end(), ShardError{});
}

ThreadPool::Claim ThreadPool::claim(std::size_t shard) {
  const std::size_t n = job_n_;
  const std::size_t s = shard_count_;
  for (std::size_t visited = 0; visited < s;) {
    const std::size_t range = (shard + visited) % s;
    // The free index with the most slices left, the lowest on a tie. A
    // free word is its slices left times two, so the largest wins.
    std::size_t best = 0;
    std::size_t best_word = 0;
    for (std::size_t i = range * n / s, end = (range + 1) * n / s; i < end; ++i) {
      const std::size_t word = index_state_[i].load(std::memory_order_relaxed);
      if ((word & kBusy) == 0 && word > best_word) {
        best = i;
        best_word = word;
      }
    }
    if (best_word == 0) {
      ++visited;  // nothing free with slices left here: the next range
      continue;
    }
    // Acquire: the index's previous slice, on whichever shard it ran,
    // happens before this one. On failure another shard claimed it or
    // finished a slice of it first, so the same range is scanned again.
    if (index_state_[best].compare_exchange_strong(best_word, best_word | kBusy,
                                                   std::memory_order_acquire,
                                                   std::memory_order_relaxed)) {
      return Claim{best, best_word >> 1};
    }
  }
  return Claim{};
}

void ThreadPool::run_shard(std::size_t shard) {
  std::uint64_t start_ns = 0;
  bool ran = false;
  ShardError& failed = shard_errors_[shard];
  for (Claim c = claim(shard); c.left > 0; c = claim(shard)) {
    if (!ran) {
      ran = true;
      if (observer_) start_ns = steady_now_ns();
    }
    // A one-shard pool keeps the index until its slices are done: there
    // is no other shard to hand the next one to.
    do {
      try {
        (*job_fn_)(c.index, job_slices_ - c.left, shard);
        --c.left;
      } catch (...) {
        if (!failed.error || c.index < failed.index) {
          failed = ShardError{c.index, std::current_exception()};
        }
        c.left = 0;  // a throw ends the index
      }
    } while (c.left > 0 && shard_count_ == 1);
    // Release: clears the busy flag and publishes this slice's writes to
    // the shard that claims the index's next slice.
    index_state_[c.index].store(c.left << 1, std::memory_order_release);
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
    // job_fn_, the job's size and the index words' starting values are
    // written before the generation bump under the mutex, and the size
    // stays frozen until every shard reports done, so reading them
    // outside the lock is race-free.
    run_shard(worker_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--shards_remaining_ == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t slices, const SliceFn& fn) {
  if (n == 0 || slices == 0) return;
  if (workers_.empty()) {
    // One shard: the whole job runs inline on the caller, no handoff.
    prepare_job(n, slices, fn);
    run_shard(0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      prepare_job(n, slices, fn);
      shards_remaining_ = shard_count_ - 1;  // workers; the caller runs shard 0
      ++job_generation_;
    }
    job_ready_.notify_all();

    run_shard(0);

    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] { return shards_remaining_ == 0; });
  }
  job_fn_ = nullptr;
  // Every index ran until it finished or threw, so the lowest failing one
  // does not depend on timing.
  const ShardError* lowest = nullptr;
  for (const ShardError& failed : shard_errors_) {
    if (failed.error && (lowest == nullptr || failed.index < lowest->index)) {
      lowest = &failed;
    }
  }
  if (lowest != nullptr) std::rethrow_exception(lowest->error);
}

}  // namespace agrarsec::core
