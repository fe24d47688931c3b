// A small std::thread-based pool for the deterministic fan-out loops in the
// placement search and the figure sweeps. No external dependencies.
//
// Design constraints, in priority order:
//   1. Determinism — parallel_for only schedules which thread computes each
//      index; callers write results into index-addressed slots and reduce
//      serially afterwards, so results are bit-identical to a serial run for
//      any thread count (including 1 and the single-core CI machines).
//   2. Nesting safety — a parallel_for issued from inside a worker of the
//      same pool runs serially inline instead of deadlocking, so library
//      layers can parallelize without coordinating (e.g. a figure sweep over
//      points whose per-point work itself calls the parallel placement
//      search).
//   3. Simplicity — one blocking primitive (parallel_for), the calling
//      thread participates in the work, and exceptions from the body are
//      rethrown on the caller.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace qp::common {

class ThreadPool {
 public:
  /// Total parallelism (worker threads + the participating caller).
  /// 0 means std::thread::hardware_concurrency() (at least 1). A pool of
  /// size 1 spawns no threads and runs everything inline.
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Joins all workers. Serializes with in-flight parallel_for calls from
  /// other threads (they drain before shutdown begins), so destroying a pool
  /// immediately after — or concurrently with — use is safe; scheduling NEW
  /// work after destruction begins is still undefined.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: the worker threads plus the participating caller.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Runs body(i) exactly once for every i in [begin, end), blocking until
  /// all are done. Indices are claimed dynamically, so the body must only
  /// write to state owned by index i. The first exception thrown by any body
  /// invocation is rethrown here (remaining indices still run). The pool
  /// runs one job at a time: concurrent calls from distinct non-worker
  /// threads are serialized internally (later callers block), while calls
  /// from inside a running body execute serially inline.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide shared pool, sized from QP_THREADS when set (a positive
/// integer) and std::thread::hardware_concurrency() otherwise. Constructed
/// lazily on first use.
[[nodiscard]] ThreadPool& global_thread_pool();

}  // namespace qp::common
