#include "base/threadpool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/metrics.h"
#include "base/trace.h"

namespace satpg {

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned n = std::max(1u, num_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  task_ready_.notify_one();
  if (tracing_enabled()) {
    TraceRecorder& rec = TraceRecorder::global();
    rec.add_counter("pool.queue_depth", rec.now_us(),
                    static_cast<std::uint64_t>(depth));
  }
}

void ThreadPool::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::run_on_workers(unsigned workers,
                                const std::function<void(unsigned)>& fn) {
  for (unsigned w = 1; w < workers; ++w) submit([&fn, w] { fn(w); });
  if (workers >= 1) fn(0);
  if (workers > 1) wait_all();
}

void ThreadPool::worker_loop(unsigned index) {
  // Claims this worker's dense telemetry index and labels its trace lane;
  // the busy spans below make idle time visible as lane gaps.
  TraceRecorder::global().set_thread_name(
      telemetry_register_worker(), "pool-worker-" + std::to_string(index));
  for (;;) {
    std::function<void()> task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
      ++in_flight_;
    }
    if (tracing_enabled()) {
      TraceRecorder& rec = TraceRecorder::global();
      rec.add_counter("pool.queue_depth", rec.now_us(),
                      static_cast<std::uint64_t>(depth));
    }
    {
      PhaseSpan span(ProfPhase::kPoolTask);
      task();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.notify_all();
    }
  }
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// The shared pool and the telemetry singletons its workers touch are
// immortal (never destroyed): with function-local statics, exit-time
// destruction could tear down a recorder before a still-starting worker
// had finished using it.
ThreadPool& ThreadPool::shared() {
  static ThreadPool* const pool = new ThreadPool(hardware_threads());
  return *pool;
}

}  // namespace satpg
