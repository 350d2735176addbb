#include "verify/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/metrics_registry.h"

namespace p2pcash::verify {

WorkerPool::WorkerPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    sync::MutexLock lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::instrument(obs::MetricsRegistry& registry,
                            const std::string& prefix,
                            std::function<double()> clock) {
  // References into the registry's node-based maps are stable for its
  // lifetime, so caching the histograms keeps the hot path free of map
  // lookups and string concatenation.
  clock_ = std::move(clock);
  queue_delay_ms_ = &registry.histogram(prefix + "queue_delay_ms");
  drain_batch_ = &registry.histogram(prefix + "drain_batch");
}

void WorkerPool::submit(Task task) {
  QueuedTask qt;
  qt.fn = std::move(task);
  if (clock_) qt.enqueued_ms = clock_();
  {
    sync::MutexLock lock(mu_);
    queue_.push_back(std::move(qt));
  }
  work_cv_.notify_one();
}

void WorkerPool::drain() {
  sync::MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) idle_cv_.wait(mu_);
}

std::size_t WorkerPool::run_checks(
    std::span<const std::function<bool()>> checks) {
  const std::size_t n = checks.size();
  if (n == 0) return 0;
  const std::size_t helpers = std::min(n, workers_.size()) - 1;
  // Shared with the helper tasks, which may start after this call has
  // returned: they then find `next` past the end and leave.
  struct Join {
    std::span<const std::function<bool()>> checks;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> first_failure;
    std::atomic<std::size_t> finished{0};

    void work() {
      const std::size_t count = checks.size();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        std::size_t first = first_failure.load(std::memory_order_relaxed);
        if (i < first && !checks[i]()) {
          while (i < first && !first_failure.compare_exchange_weak(
                                  first, i, std::memory_order_relaxed)) {
          }
        }
        // Release: the check's writes happen before the caller's read.
        if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == count)
          finished.notify_all();
      }
    }
  };
  auto join = std::make_shared<Join>();
  join->checks = checks;
  join->first_failure.store(n, std::memory_order_relaxed);
  for (std::size_t h = 0; h < helpers; ++h) submit([join] { join->work(); });
  join->work();
  for (std::size_t done = join->finished.load(std::memory_order_acquire);
       done != n; done = join->finished.load(std::memory_order_acquire))
    join->finished.wait(done, std::memory_order_acquire);
  return join->first_failure.load(std::memory_order_relaxed);
}

void WorkerPool::worker_loop() {
  // A "drain batch" is the run of tasks this worker executes without ever
  // blocking on the condvar: the batch the queue naturally formed while
  // the worker was busy.  Large batches mean the pool is the bottleneck;
  // batches of 1 mean it is keeping up.
  std::size_t batch = 0;
  for (;;) {
    if (batch > 0 && drain_batch_) {
      // The queue looked empty on the last pass: the batch is over.
      // Peek without holding the histogram's lock under ours (MutexLock
      // is strictly scoped, so this is its own critical section).
      bool dry;
      {
        sync::MutexLock lock(mu_);
        dry = queue_.empty() && !stopping_;
      }
      if (dry) {
        drain_batch_->record(static_cast<double>(batch));
        batch = 0;
      }
    }
    QueuedTask task;
    {
      sync::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    if (queue_delay_ms_ && clock_)
      queue_delay_ms_->record(clock_() - task.enqueued_ms);
    ++batch;
    task.fn();  // queue lock released: the task may take service locks freely
    bool now_idle;
    {
      sync::MutexLock lock(mu_);
      --in_flight_;
      now_idle = queue_.empty() && in_flight_ == 0;
    }
    if (now_idle) idle_cv_.notify_all();
  }
}

}  // namespace p2pcash::verify
