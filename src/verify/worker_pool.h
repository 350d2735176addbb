// worker_pool.h — a fixed-size worker pool: TcpNet's strand executor.
//
// transport::TcpNet submits one drain task per endpoint strand; the pool
// runs strands of different endpoints concurrently, so the witnesses of
// different merchants (src/ecash/witness) serve sign_transcript calls in
// parallel.  `drain()` is the barrier
// TcpNet::stop() waits on.  `run_checks()` is a caller-runs fork/join: a
// strand overlaps one handler's independent checks on otherwise idle
// workers.
//
// Lock discipline: the queue mutex sits ABOVE the service level (kPool)
// because tasks always run with it released — a worker dequeues under the
// lock, drops it, then executes.  A task may submit (a strand resubmits
// itself, run_checks forks), but submitting while holding a service lock
// is flagged by the lock-order checker, which is intentional: a task that
// waits on work queued behind a lock it holds is a liveness hazard.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sync/annotated.h"

namespace p2pcash::obs {
class Histogram;
class MetricsRegistry;
}  // namespace p2pcash::obs

namespace p2pcash::verify {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `threads` workers (at least 1).
  explicit WorkerPool(std::size_t threads);
  /// Drains outstanding work, then joins the workers.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task.  Tasks run in submission order per worker pickup,
  /// with no ordering guarantee across workers.
  void submit(Task task);

  /// Blocks until every submitted task has finished executing (queue empty
  /// AND no task in flight).  New submissions during a drain extend it.
  void drain();

  /// Caller-runs fork/join over independent checks (each returns true on
  /// success).  Submits up to thread_count() - 1 helper tasks, then the
  /// calling thread claims checks in list order too; a check is claimed
  /// once, by whichever thread gets it first, and none after a known
  /// failure is started.  The caller waits only for checks other threads
  /// are already running, so no thread, queue or timeout is added, a busy
  /// pool leaves the caller running them all, and one worker (or a caller
  /// that is itself a worker) cannot deadlock.  Returns the index of the
  /// first failing check in list order, or checks.size().  Helpers that
  /// start after the join claim nothing and never touch `checks`.
  std::size_t run_checks(std::span<const std::function<bool()>> checks);

  /// Wires the pool's dark corners into a metrics registry:
  ///   <prefix>queue_delay_ms   histogram — submit-to-dequeue latency
  ///   <prefix>drain_batch      histogram — consecutive tasks one worker
  ///                            ran without blocking (the natural batch
  ///                            the queue formed under load)
  /// `clock` stamps submissions (same seam as obs::Tracer — wall-clock
  /// under TcpNet, sim-time in tests).  Call BEFORE the first submit();
  /// the histograms are recorded with the pool lock released, so no lock
  /// ordering is introduced beyond kPool → (registry internals).
  void instrument(obs::MetricsRegistry& registry, const std::string& prefix,
                  std::function<double()> clock);

 private:
  void worker_loop();

  mutable sync::Mutex mu_{"verify.worker_pool", sync::level::kPool};
  sync::CondVar work_cv_;   // signalled on submit and shutdown
  sync::CondVar idle_cv_;   // signalled when a task retires
  struct QueuedTask {
    Task fn;
    double enqueued_ms = 0;  ///< clock at submit (0 when uninstrumented)
  };
  std::deque<QueuedTask> queue_ P2P_GUARDED_BY(mu_);
  std::size_t in_flight_ P2P_GUARDED_BY(mu_) = 0;
  bool stopping_ P2P_GUARDED_BY(mu_) = false;
  // Instrumentation seams; set once by instrument() before any submit,
  // then read-only (workers read them without the lock).
  std::function<double()> clock_;
  obs::Histogram* queue_delay_ms_ = nullptr;
  obs::Histogram* drain_batch_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace p2pcash::verify
