// Shard scheduling for the scaled simulators.
//
// A shard is an independent slice of a simulated system (its own servers,
// balancers, RNG streams, and counters) that never touches another shard's
// state while running. That independence is what makes the parallel engines
// deterministic: results depend only on (master seed, shard count), never on
// thread scheduling, because each shard's work is a pure function of its
// shard index and the merge happens in shard order after the barrier.
//
// ShardPool is the reusable worker pool behind them: persistent threads, a
// broadcast/claim/barrier cycle per parallel_shards() call, and an inline
// fallback so a single-threaded pool (or a 1-shard job) runs entirely on
// the caller with zero synchronisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace ftl::sim {

/// Contiguous half-open slice [begin, end) of a sharded index space.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Even contiguous partition of `total` items into `num_shards` slices; the
/// first `total % num_shards` shards absorb one extra item each. Every item
/// belongs to exactly one shard and slices are ordered by shard index, so
/// shard-ordered merges visit items in their original order.
[[nodiscard]] ShardRange shard_range(std::size_t total, std::size_t num_shards,
                                     std::size_t shard);

/// Deterministic per-shard seed stream, decorrelated across shard indices
/// with the same splitmix64 mixing proptest uses for per-case seeds. Shard 0
/// keeps the master seed unchanged so a 1-shard run consumes exactly the
/// stream of the unsharded run with the same seed.
[[nodiscard]] inline std::uint64_t shard_seed(std::uint64_t master,
                                              std::size_t shard) {
  if (shard == 0) return master;
  std::uint64_t s =
      master ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(shard) + 1));
  return util::splitmix64(s);
}

/// A fixed pool of worker threads executing shard jobs with a barrier.
///
/// parallel_shards(n, fn) runs fn(0) .. fn(n-1) exactly once each —
/// distributed over the workers plus the calling thread — and returns only
/// after every call completed. Shards are claimed from an atomic counter, so
/// which thread runs which shard is scheduling-dependent; callers must keep
/// shard work disjoint (write only shard-indexed slots) for results to stay
/// deterministic.
class ShardPool {
 public:
  /// `num_threads` counts workers *including* the calling thread; 0 picks
  /// the hardware concurrency. A pool of 1 runs everything inline.
  explicit ShardPool(std::size_t num_threads = 0);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Total execution streams (workers + caller).
  [[nodiscard]] std::size_t num_threads() const { return threads_.size() + 1; }

  /// Blocking barrier fan-out of fn over [0, num_shards). Must not be
  /// called re-entrantly from inside a shard job. `fn` must not throw.
  void parallel_shards(std::size_t num_shards,
                       const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void claim_shards(const std::function<void(std::size_t)>& fn,
                    std::size_t num_shards);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  // bumped per job; workers wake on change
  std::size_t busy_workers_ = 0;
  bool stopping_ = false;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_shards_ = 0;
  std::atomic<std::size_t> next_shard_{0};
};

}  // namespace ftl::sim
