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
  shard_errors_.assign(shard_count_, nullptr);
  workers_.reserve(shard_count_ > 0 ? shard_count_ - 1 : 0);
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

void ThreadPool::run_shard(std::size_t shard) {
  // Contiguous split: shard s covers [s*n/S, (s+1)*n/S). Depends only on
  // (n, S); empty when n < S for the high shards.
  const std::size_t n = job_n_;
  const std::size_t s = shard_count_;
  const std::size_t begin = shard * n / s;
  const std::size_t end = (shard + 1) * n / s;
  if (begin >= end) return;
  const std::uint64_t start_ns = steady_now_ns();
  try {
    (*job_fn_)(begin, end, shard);
  } catch (...) {
    shard_errors_[shard] = std::current_exception();
  }
  if (observer_) observer_(shard, steady_now_ns() - start_ns);
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
    // job_fn_/job_n_ are written before the generation bump under the
    // mutex and stay frozen until every shard reports done, so reading
    // them outside the lock is race-free.
    run_shard(worker_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--shards_remaining_ == 0) job_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n, const ShardFn& fn) {
  if (n == 0) return;
  if (shard_count_ <= 1 || workers_.empty()) {
    const std::uint64_t start_ns = observer_ ? steady_now_ns() : 0;
    fn(0, n, 0);
    if (observer_) observer_(0, steady_now_ns() - start_ns);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = &fn;
    job_n_ = n;
    std::fill(shard_errors_.begin(), shard_errors_.end(), nullptr);
    shards_remaining_ = shard_count_ - 1;  // workers; the caller runs shard 0
    ++job_generation_;
  }
  job_ready_.notify_all();

  run_shard(0);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] { return shards_remaining_ == 0; });
    job_fn_ = nullptr;
  }
  // First error in shard order (deterministic regardless of timing).
  for (const std::exception_ptr& err : shard_errors_) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace agrarsec::core
