// Fixed-size worker thread pool.
//
// The pool is a plain task queue: submit() enqueues a closure, wait_all()
// blocks until every submitted task has finished. Determinism is the
// caller's job and is easy to get: give each task its own output slot
// (index-addressed arrays), never a shared accumulator, and merge slots in
// submission order after wait_all(). Nothing about scheduling order can
// then leak into results.
//
// ThreadPool::shared() is a process-wide pool sized to the hardware thread
// count, created on first use and never destroyed. It exists so hot paths that are entered many
// times per second (the fault simulator is called once per generated test)
// do not pay thread creation per call. It assumes a single orchestrating
// thread: wait_all() waits for *all* queued tasks, so two threads driving
// shared() concurrently would wait on each other's work (harmless, but
// slower); tasks themselves must not submit to the pool they run on.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace satpg {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task. Tasks are dispatched to workers in submission order
  /// but may complete in any order.
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no task is running.
  void wait_all();

  /// Run fn(0) … fn(workers-1) concurrently and return when all are done.
  /// The calling thread executes fn(0) itself; fn(1..) go through the
  /// queue. This means `workers` may exceed num_threads() (extra calls
  /// just queue), and callers always make progress even on a 1-core pool.
  /// Same caveats as submit()/wait_all(): one orchestrating thread, and
  /// fn must not submit to this pool.
  void run_on_workers(unsigned workers,
                      const std::function<void(unsigned)>& fn);

  /// std::thread::hardware_concurrency() with a floor of 1.
  static unsigned hardware_threads();

  /// Lazily-created process-wide pool with hardware_threads() workers.
  static ThreadPool& shared();

 private:
  void worker_loop(unsigned index);

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< tasks popped but not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace satpg
