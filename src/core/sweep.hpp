// Parallel design-space sweep engine.
//
// SweepRunner fans the (config point, seed) grid of an experiment across a
// persistent pool of worker threads.  Every sweep point is an independent
// computation whose result lands in a caller-indexed slot, so the aggregate
// is bitwise-identical for any thread count given the same base seed: the
// schedule decides only *when* a point runs, never *what* it computes.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pimsim::core {

/// One shard of a sweep grid: this process owns shard `index` of `count`
/// (`pimsim sweep ... shard=i/N`).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses "i/N" with integers 0 <= i < N.  Anything else — missing
/// slash, non-digits, i >= N, N == 0 — throws InvalidArgument naming the
/// valid form, so a typo'd shard= never silently runs the full grid.
[[nodiscard]] ShardSpec parse_shard(const std::string& text);

/// Deterministic heaviest-first (LPT) partition: points sorted by
/// (weight descending, index ascending) are greedily placed on the
/// currently lightest shard (ties -> lowest shard id).  Returns the
/// shard id of every point.  A pure function of (weights, shards): the
/// same grid always shards the same way, on any host, at any jobs=N —
/// which is what makes a chunk recomputable anywhere and comparable by
/// fingerprint.  Equal weights degrade to round-robin in grid order.
[[nodiscard]] std::vector<std::size_t> plan_shards(
    const std::vector<double>& weights, std::size_t shards);

class SweepRunner {
 public:
  /// Spawns a pool of `threads` - 1 workers (the calling thread participates
  /// in every batch).  `threads` == 0 means std::thread::hardware_concurrency.
  explicit SweepRunner(std::size_t threads = 0);
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Number of threads a batch runs on, including the calling thread.
  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, count), in unspecified order, possibly
  /// concurrently.  Returns once all indices have completed.  The first
  /// exception a body throws is rethrown here (remaining bodies are skipped).
  void for_each(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  struct Batch;
  static void run_batch(Batch& batch);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace pimsim::core
