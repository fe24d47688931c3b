#include "common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qp::common {

namespace {

/// The pool a thread is currently working for, if any — lets parallel_for
/// detect reentrancy from its own workers (and from nested calls on the
/// caller thread, which participates in the work) and degrade to inline
/// serial execution instead of deadlocking.
thread_local const ThreadPool* current_pool = nullptr;

// Pool telemetry: job/index throughput, how long callers wait on done_cv
// after finishing their own share, and how long workers stay busy per job
// (the busy-fraction numerator; divide busy_ms totals by wall time). Clock
// reads are skipped entirely when obs is disabled.
const obs::Counter c_jobs = obs::counter("common.thread_pool.jobs");
const obs::Counter c_indices = obs::counter("common.thread_pool.indices");
const obs::Counter c_inline_jobs = obs::counter("common.thread_pool.inline_jobs");
const obs::Histogram h_caller_wait =
    obs::histogram("common.thread_pool.caller_wait_ms");
const obs::Histogram h_worker_busy =
    obs::histogram("common.thread_pool.worker_busy_ms");

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  /// Serializes whole parallel_for invocations from distinct non-worker
  /// threads: the pool runs one job at a time, later callers block until the
  /// current job drains. (Workers and nested calls never take this — they
  /// run inline via the current_pool check.)
  std::mutex submit_mutex;

  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;

  // State of the in-flight parallel_for (guarded by mutex except `next`).
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::size_t end = 0;
  std::size_t generation = 0;
  std::size_t busy_workers = 0;
  std::exception_ptr first_error;
  bool stop = false;

  void run_indices() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{mutex};
        if (!first_error) first_error = std::current_exception();
      }
    }
  }

  void worker_loop(const ThreadPool* owner) {
    current_pool = owner;
    std::size_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock{mutex};
        work_cv.wait(lock, [&] { return stop || generation != seen_generation; });
        if (stop) return;
        seen_generation = generation;
      }
      if (obs::enabled()) {
        const auto t0 = std::chrono::steady_clock::now();
        run_indices();
        h_worker_busy.record(ms_since(t0));
      } else {
        run_indices();
      }
      // Workers can park for long stretches; push any buffered trace spans
      // now so traces stay current (no-op when tracing is off).
      obs::trace_flush_current_thread();
      {
        std::lock_guard<std::mutex> lock{mutex};
        if (--busy_workers == 0) done_cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) : impl_(std::make_unique<Impl>()) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  impl_->workers.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(this); });
  }
}

ThreadPool::~ThreadPool() {
  // Serialize teardown behind submit_mutex so a parallel_for still in flight
  // on another thread drains completely before stop is raised. Without this,
  // a worker parked at work_cv could observe stop before the in-flight job's
  // generation bump and exit without decrementing busy_workers, hanging that
  // caller forever (exercised by race_stress_test TeardownRightAfterWork /
  // TeardownWhileAnotherThreadSubmits under TSan).
  const std::lock_guard<std::mutex> submit_lock{impl_->submit_mutex};
  {
    std::lock_guard<std::mutex> lock{impl_->mutex};
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::size() const noexcept { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (impl_->workers.empty() || current_pool == this) {
    c_inline_jobs.add();
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  QP_TRACE_SPAN("common.thread_pool.parallel_for");
  c_jobs.add();
  c_indices.add(end - begin);
  const std::lock_guard<std::mutex> submit_lock{impl_->submit_mutex};
  {
    std::lock_guard<std::mutex> lock{impl_->mutex};
    impl_->body = &body;
    impl_->next.store(begin, std::memory_order_relaxed);
    impl_->end = end;
    impl_->busy_workers = impl_->workers.size();
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  // The caller participates; mark it as working for this pool so any nested
  // parallel_for from inside the body runs inline.
  const ThreadPool* previous = current_pool;
  current_pool = this;
  impl_->run_indices();
  current_pool = previous;

  std::unique_lock<std::mutex> lock{impl_->mutex};
  if (obs::enabled() && impl_->busy_workers != 0) {
    const auto t0 = std::chrono::steady_clock::now();
    impl_->done_cv.wait(lock, [&] { return impl_->busy_workers == 0; });
    h_caller_wait.record(ms_since(t0));
  }
  impl_->done_cv.wait(lock, [&] { return impl_->busy_workers == 0; });
  impl_->body = nullptr;
  if (impl_->first_error) {
    std::exception_ptr error = impl_->first_error;
    impl_->first_error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool{[] {
    std::size_t count = 0;  // 0 = hardware_concurrency.
    // Read once at static-init of the singleton, before any pool thread
    // exists — the mt-unsafety cannot bite. NOLINT(concurrency-mt-unsafe)
    if (const char* env = std::getenv("QP_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) count = static_cast<std::size_t>(parsed);
    }
    return count;
  }()};
  return pool;
}

}  // namespace qp::common
