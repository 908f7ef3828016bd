// Fixed-size thread pool for data-parallel batches. service::FleetService
// is its one user: it steps worksite sessions across a small set of
// persistent workers (std::thread + condition_variable, no external
// dependencies), one session per index in slices of a few steps, so no
// simulation state is ever shared between workers (DESIGN.md §12, §17,
// §27, §32).
//
// Design notes:
//  - Workers are started once and parked on a condition variable between
//    jobs; a job is published by bumping a generation counter, so a
//    parallel_for costs two notify/wait handshakes, not thread spawns.
//  - The calling thread participates as shard 0, so a pool of size N uses
//    N-1 background workers and never idles the caller.
//  - Slices: a job runs `slices` calls for each index of [0, n). The calls
//    for one index run one at a time and in order, slice 0 first, but
//    consecutive slices may run on different shards.
//  - Claim rule: shard s owns the home range [s*n/S, (s+1)*n/S). It claims
//    from its home range first, then from the ranges of shards s+1, s+2,
//    ... (mod S). From each range it takes the free index (one no shard
//    is running) with the most slices left, the lowest index on a tie,
//    and it leaves the job when no free index has slices left. So a
//    shard's home indices advance in turn, an index stays on its home
//    shard until that shard falls behind, and an idle shard always finds
//    the next slice of an index that is not running. At one slice per
//    index the free indices with a slice left are the unclaimed ones, so
//    the rule drains each range in index order: home first, then steals.
//  - Handoff: each index has one atomic word, its slices left and a busy
//    flag. A claim sets the flag by compare-exchange (acquire), and the
//    end of a slice stores the count left with the flag clear (release),
//    so whatever a slice wrote happens before the index's next slice, on
//    whichever shard that runs. Work items must be independent of each
//    other for the result to be thread-count-invariant.
//  - Claim cost: a claim scans the home range, then the other ranges, so
//    it is O(n) per claim. For the fleets in use (tens of sessions, a
//    slice of hundreds of microseconds) that is negligible.
//  - One shard: a one-shard pool has no other shard to hand a slice to,
//    so it runs each index's slices back to back, in index order, inline
//    on the caller.
//  - Errors: a slice that throws ends its index, whose remaining slices
//    are skipped; every other index still runs all its slices. The caller
//    rethrows the error of the lowest failing index, which does not
//    depend on timing.
#pragma once

#include <atomic>
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
  /// then runs inline on the caller. `threads = 0` resolves to
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total shards (caller + workers), >= 1.
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }

  /// Body of a sliced job: one claimed index, which of its slices this
  /// call runs (0, 1, ... in order), and the executing shard (stable
  /// scratch-buffer key: shard s only ever runs on one thread per job).
  using SliceFn =
      std::function<void(std::size_t index, std::size_t slice, std::size_t shard)>;
  /// Body of a job of one slice per index.
  using ShardFn = std::function<void(std::size_t index, std::size_t shard)>;

  /// Runs `fn` for every slice of every index of [0, n) and blocks until
  /// all have finished (see the design notes for the order and the error
  /// rule). Safe to call repeatedly; not reentrant from within a body.
  void parallel_for(std::size_t n, std::size_t slices, const SliceFn& fn);
  /// Runs `fn` once for every index of [0, n): one slice per index.
  void parallel_for(std::size_t n, const ShardFn& fn) {
    parallel_for(n, 1, [&fn](std::size_t index, std::size_t, std::size_t shard) {
      fn(index, shard);
    });
  }

  /// Observation hook: called once per job for each shard that ran at
  /// least one slice, with the wall-clock nanoseconds from that shard's
  /// first claim to its last finish. Invoked on the thread that ran the
  /// shard, so it fires concurrently for different shards — observers
  /// must be safe for that (per-shard accumulator lanes are enough, see
  /// obs::Tracer). Must not be swapped while a job is in flight. Pass
  /// nullptr to disable. Observation-only: the timings must never feed
  /// back into simulation state.
  using ShardObserver = std::function<void(std::size_t shard, std::uint64_t busy_ns)>;
  void set_shard_observer(ShardObserver observer) { observer_ = std::move(observer); }

 private:
  /// The error of the lowest index that failed on one shard.
  struct ShardError {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  /// A claimed index and the slices it had left when claimed (0: none).
  struct Claim {
    std::size_t index = 0;
    std::size_t left = 0;
  };

  void worker_loop(std::size_t worker_index);
  /// Sets every index's slice count and clears the errors; the caller
  /// publishes them to the workers under the mutex.
  void prepare_job(std::size_t n, std::size_t slices, const SliceFn& fn);
  /// The claim rule of the design notes, for `shard`.
  Claim claim(std::size_t shard);
  /// Claims and runs slices until no free index has slices left.
  void run_shard(std::size_t shard);

  std::size_t shard_count_ = 1;
  std::vector<std::thread> workers_;
  ShardObserver observer_;  ///< optional per-shard busy-time tap

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  const SliceFn* job_fn_ = nullptr;  ///< valid while a job is in flight
  std::size_t job_n_ = 0;
  std::size_t job_slices_ = 0;
  /// Per index of the current job: its slices left times two, plus the
  /// busy flag (1) while a shard runs one of them. Grown, never shrunk.
  std::vector<std::atomic<std::size_t>> index_state_;
  std::uint64_t job_generation_ = 0;  ///< bumped to publish a job
  std::size_t shards_remaining_ = 0;
  bool stopping_ = false;
  std::vector<ShardError> shard_errors_;  ///< one slot per shard
};

}  // namespace agrarsec::core
