#pragma once
// Task-level parallel runtime: a small thread pool with blocking
// parallel_for / parallel_invoke helpers.
//
// Design rules that make this safe to wire through the whole library:
//
//  * The calling thread always participates in parallel_for, claiming
//    indices from the same shared counter as the workers. Nested
//    parallel sections (suite -> flows -> lambda sweep -> sibling
//    levels) therefore never deadlock: a task that opens an inner section
//    drains that section itself even when every worker is busy.
//  * Determinism contract: a parallel_for body writes only to state
//    owned by its own index and takes any randomness from a seed fixed
//    by that index (shape curves are seeded by HT node index, levels by
//    DFS ordinal), never from thread ids or scheduling order.
//    Reductions happen on the caller after the join, in index order.
//    Under that contract results are bit-identical at any thread count,
//    including 1.
//  * A pool of size 1 (or max_threads = 1) runs everything inline on
//    the calling thread -- exactly the pre-threading behavior.
//
// The process-global pool is sized from, in priority order: the
// ThreadPool::set_default_thread_count override (the CLI --threads
// flag), the HIDAP_THREADS environment variable, and
// std::thread::hardware_concurrency().

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hidap {

class ThreadPool {
 public:
  /// num_threads <= 0 selects default_thread_count(). A pool of size n
  /// owns n - 1 worker threads; the nth lane is the calling thread.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum concurrency (workers + the participating caller).
  int size() const { return size_; }

  /// Calls body(0) .. body(n-1), sharded over the pool; blocks until all
  /// are done. max_threads > 0 caps the lanes used by this call (1 =
  /// inline sequential loop). Every index runs exactly once even when
  /// some bodies throw; the exception of the lowest throwing index is
  /// rethrown so error reporting is deterministic too.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    int max_threads = 0);

  /// parallel_for over a batch of heterogeneous tasks.
  void parallel_invoke(const std::vector<std::function<void()>>& tasks,
                       int max_threads = 0);

  /// The process-global pool, created on first use with
  /// default_thread_count() lanes.
  static ThreadPool& global();

  /// Resolution: set_default_thread_count override, else HIDAP_THREADS,
  /// else hardware concurrency (at least 1).
  static int default_thread_count();

  /// Overrides default_thread_count (0 restores auto). Call before the
  /// first use of global() for the override to size the global pool.
  static void set_default_thread_count(int num_threads);

 private:
  struct ForState;

  void enqueue(std::function<void()> task);
  void worker_loop();

  int size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stop_ = false;
};

/// Convenience wrappers over ThreadPool::global().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  int max_threads = 0);
void parallel_invoke(const std::vector<std::function<void()>>& tasks,
                     int max_threads = 0);

/// Maps an options-level thread request (0 = auto) to a concrete count.
inline int effective_thread_count(int requested) {
  return requested > 0 ? requested : ThreadPool::default_thread_count();
}

}  // namespace hidap
