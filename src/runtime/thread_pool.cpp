#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"

namespace hidap {

namespace {

std::atomic<int> g_default_override{0};

std::int64_t pool_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Tracing-only queue instrumentation (enqueue checks tracing_enabled()
// once): dispatch-to-start wait, task run time, and live queue depth.
// Metric handles are created once; the wrapped closure only does two
// clock reads, one gauge write and two histogram records around the task.
std::function<void()> instrument_pool_task(std::function<void()> task) {
  static obs::Histogram& queue_wait = obs::default_registry().histogram(
      "pool.queue_wait_us", {10, 100, 1000, 10000, 100000, 1000000});
  static obs::Histogram& task_us = obs::default_registry().histogram(
      "pool.task_us", {100, 1000, 10000, 100000, 1000000, 10000000});
  static obs::Gauge& depth = obs::default_registry().gauge("pool.queue_depth");
  depth.add(1);
  const std::int64_t enqueued_us = pool_now_us();
  return [task = std::move(task), enqueued_us] {
    const std::int64_t start_us = pool_now_us();
    depth.add(-1);
    queue_wait.record(static_cast<double>(start_us - enqueued_us));
    task();
    task_us.record(static_cast<double>(pool_now_us() - start_us));
  };
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  size_ = num_threads > 0 ? num_threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  try {
    for (int t = 1; t < size_; ++t) workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Thread spawn failed (resource exhaustion): join the workers that
    // did start before rethrowing, or ~vector<std::thread> would
    // std::terminate on the joinable ones.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    ready_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  if (obs::tracing_enabled()) task = instrument_pool_task(std::move(task));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

// Shared state of one parallel_for: a claim counter the caller and the
// helper tasks race on, a completion count the caller blocks on, and the
// lowest-index exception. Held by shared_ptr so helper tasks that start
// after the join has finished (all indices already claimed) stay valid.
struct ThreadPool::ForState {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t completed = 0;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr first_error;

  // Claims and runs indices until none remain. Every index completes
  // even if some throw; the lowest throwing index's exception is kept.
  void run_lane() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr error;
      try {
        // Injected task faults ride the established propagation path:
        // caught here, reported as the lowest throwing index's error.
        HIDAP_FAILPOINT("pool.task");
        (*body)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (error && i < first_error_index) {
        first_error_index = i;
        first_error = error;
      }
      // Drop this lane's reference before the caller can see the
      // completion: the exception's last release must happen on the
      // thread that catches it, never on a worker after the join.
      error = nullptr;
      if (++completed == n) all_done.notify_all();
    }
  }
};

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                              int max_threads) {
  if (n == 0) return;
  // Fires on the calling thread before any fan-out, so a throw
  // propagates to the caller like any body exception would -- the
  // injectable stand-in for a dispatch-time resource failure.
  HIDAP_FAILPOINT("pool.dispatch");
  int lanes = max_threads > 0 ? std::min(max_threads, size_) : size_;
  lanes = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(lanes), n));
  if (lanes <= 1 || workers_.empty()) {
    // Same contract as the threaded path: every index runs, the lowest
    // throwing index's exception is rethrown after the loop.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        HIDAP_FAILPOINT("pool.task");
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->body = &body;
  for (int h = 1; h < lanes; ++h) {
    enqueue([state] { state->run_lane(); });
  }
  state->run_lane();
  std::exception_ptr first_error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] { return state->completed == n; });
    // Move the error out of the shared state: a helper task may still
    // hold `state`, and must not own the exception the caller rethrows.
    first_error = std::move(state->first_error);
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_invoke(const std::vector<std::function<void()>>& tasks,
                                 int max_threads) {
  parallel_for(tasks.size(), [&tasks](std::size_t i) { tasks[i](); }, max_threads);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::default_thread_count() {
  const int override_count = g_default_override.load(std::memory_order_relaxed);
  if (override_count > 0) return override_count;
  // Upper bound is deliberately above hardware_concurrency: CI pins
  // oversubscribed pools (e.g. HIDAP_THREADS=4 under TSan on small
  // runners) to exercise cross-thread schedules, and results are
  // bit-identical at any lane count. 0 = unset = auto.
  const long n = env_long("HIDAP_THREADS", 0, 1, 256);
  if (n > 0) return static_cast<int>(n);
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::set_default_thread_count(int num_threads) {
  g_default_override.store(std::max(0, num_threads), std::memory_order_relaxed);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  int max_threads) {
  ThreadPool::global().parallel_for(n, body, max_threads);
}

void parallel_invoke(const std::vector<std::function<void()>>& tasks, int max_threads) {
  ThreadPool::global().parallel_invoke(tasks, max_threads);
}

}  // namespace hidap
