// Fixed-size thread pool for data-parallel batches. service::FleetService
// is its one user: it steps whole worksite sessions across a small set of
// persistent workers (std::thread + condition_variable, no external
// dependencies), one session per index, so no simulation state is ever
// shared between workers (DESIGN.md §12, §17, §27).
//
// Design notes:
//  - Workers are started once and parked on a condition variable between
//    jobs; a job is published by bumping a generation counter, so a
//    parallel_for costs two notify/wait handshakes, not thread spawns.
//  - The calling thread participates as shard 0, so a pool of size N uses
//    N-1 background workers and never idles the caller.
//  - Home ranges with stealing: shard s owns the home range
//    [s*n/S, (s+1)*n/S) of [0, n). It claims its own indices one at a
//    time from the range's atomic cursor, then visits shards s+1, s+2, ...
//    (mod S) and claims what is left of their ranges the same way. Every
//    index runs exactly once; which shard runs it depends on timing, but
//    an index stays with its home shard unless that shard falls behind,
//    so only the tail of a job moves between threads. Work items must be
//    independent for the result to be thread-count-invariant.
//  - Each index's exception is caught on its own, so every other index
//    still runs; the caller rethrows the error of the lowest failing
//    index, which does not depend on timing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace agrarsec::core {

class ThreadPool {
 public:
  /// A pool executing across `threads` shards in total (the caller counts
  /// as one). `threads <= 1` creates no background workers; parallel_for
  /// then runs inline on the caller. `threads = 0` resolves to
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total shards (caller + workers), >= 1.
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// Body: one claimed index plus the executing shard (stable
  /// scratch-buffer key: shard s only ever runs on one thread per job).
  using ShardFn = std::function<void(std::size_t index, std::size_t shard)>;

  /// Runs `fn` once for every index of [0, n) and blocks until all have
  /// finished. Safe to call repeatedly; not reentrant from within a body.
  void parallel_for(std::size_t n, const ShardFn& fn);

  /// Observation hook: called once per job for each shard that ran at
  /// least one index, with the wall-clock nanoseconds from that shard's
  /// first claim to its last finish. Invoked on the thread that ran the
  /// shard, so it fires concurrently for different shards — observers
  /// must be safe for that (per-shard accumulator lanes are enough, see
  /// obs::Tracer). Must not be swapped while a job is in flight. Pass
  /// nullptr to disable. Observation-only: the timings must never feed
  /// back into simulation state.
  using ShardObserver = std::function<void(std::size_t shard, std::uint64_t busy_ns)>;
  void set_shard_observer(ShardObserver observer) { observer_ = std::move(observer); }

 private:
  /// One shard's home range of the current job. Each sits on its own
  /// cache line: its owner claims from it on every index.
  struct alignas(64) HomeRange {
    std::atomic<std::size_t> next{0};  ///< next unclaimed index
    std::size_t end = 0;               ///< one past the range's last index
  };
  /// The error of the lowest index that failed on one shard.
  struct ShardError {
    std::size_t index = 0;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_index);
  /// Sets the home ranges and clears the errors; the caller publishes
  /// them to the workers under the mutex.
  void prepare_job(std::size_t n, const ShardFn& fn);
  /// Drains this shard's home range, then steals from the others.
  void run_shard(std::size_t shard);

  std::size_t shard_count_ = 1;
  std::vector<std::thread> workers_;
  ShardObserver observer_;  ///< optional per-shard busy-time tap

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  const ShardFn* job_fn_ = nullptr;  ///< valid while a job is in flight
  std::unique_ptr<HomeRange[]> ranges_;  ///< one per shard
  std::uint64_t job_generation_ = 0;  ///< bumped to publish a job
  std::size_t shards_remaining_ = 0;
  bool stopping_ = false;
  std::vector<ShardError> shard_errors_;  ///< one slot per shard
};

}  // namespace agrarsec::core
