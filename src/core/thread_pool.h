// Fixed-size thread pool for data-parallel batches. service::FleetService
// is its one user: it steps whole worksite sessions across a small set of
// persistent workers (std::thread + condition_variable, no external
// dependencies), one session per index, so no simulation state is ever
// shared between workers (DESIGN.md §12, §17).
//
// Design notes:
//  - Workers are started once and parked on a condition variable between
//    jobs; a job is published by bumping a generation counter, so a
//    parallel_for costs two notify/wait handshakes, not thread spawns.
//  - The calling thread participates as shard 0, so a pool of size N uses
//    N-1 background workers and never idles the caller.
//  - [0, n) is split into at most shard_count() contiguous ranges; the
//    split depends only on (n, shard_count()), never on timing. Callers
//    must still not depend on the index->shard mapping: work items must
//    be independent for the result to be thread-count-invariant.
//  - Exceptions thrown by shard bodies are captured; the first one in
//    shard order is rethrown on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace agrarsec::core {

class ThreadPool {
 public:
  /// A pool executing across `threads` shards in total (the caller counts
  /// as one). `threads <= 1` creates no background workers; parallel_for
  /// then runs inline. `threads = 0` resolves to
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total shards (caller + workers), >= 1.
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// Shard body: the contiguous [begin, end) index range plus the shard
  /// index (stable scratch-buffer key: shard s only ever runs on one
  /// thread per job).
  using ShardFn = std::function<void(std::size_t begin, std::size_t end,
                                     std::size_t shard)>;

  /// Runs `fn` over [0, n) and blocks until every shard finished. Safe to
  /// call repeatedly; not reentrant from within a shard body.
  void parallel_for(std::size_t n, const ShardFn& fn);

  /// Observation hook: called once per participating shard per job with
  /// the wall-clock nanoseconds the shard spent in the job. Invoked on the
  /// thread that ran the shard, so it fires concurrently for different
  /// shards — observers must be safe for that (per-shard accumulator
  /// lanes are enough, see obs::Tracer). Must not be swapped while a job
  /// is in flight. Pass nullptr to disable. Observation-only: the timings
  /// must never feed back into simulation state.
  using ShardObserver = std::function<void(std::size_t shard, std::uint64_t busy_ns)>;
  void set_shard_observer(ShardObserver observer) { observer_ = std::move(observer); }

 private:
  void worker_loop(std::size_t worker_index);
  /// Runs one participant's contiguous range of the current job,
  /// capturing any exception.
  void run_shard(std::size_t shard);

  std::size_t shard_count_ = 1;
  std::vector<std::thread> workers_;
  ShardObserver observer_;  ///< optional per-shard busy-time tap

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  const ShardFn* job_fn_ = nullptr;  ///< valid while a job is in flight
  std::size_t job_n_ = 0;
  std::uint64_t job_generation_ = 0;  ///< bumped to publish a job
  std::size_t shards_remaining_ = 0;
  bool stopping_ = false;
  std::vector<std::exception_ptr> shard_errors_;  ///< one slot per shard
};

}  // namespace agrarsec::core
