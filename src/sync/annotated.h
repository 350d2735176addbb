// annotated.h — synchronization primitives with machine-checked discipline.
//
// Two layers of defence before the multithreaded node runtime lands:
//
// 1. **Compile-time lock discipline** (clang only).  Every wrapper below
//    carries clang thread-safety capability attributes, so a field declared
//    `P2P_GUARDED_BY(mu_)` that is touched without `mu_` held is a compile
//    error under `-Wthread-safety` (CI runs a clang lane with the warning
//    promoted to an error; see docs/STATIC_ANALYSIS.md).  On GCC the
//    attribute macros expand to nothing and the wrappers behave exactly
//    like std::mutex / std::lock_guard.
//
// 2. **Runtime lock-order checking** (src/sync/lock_order.h).  Each Mutex
//    registers its acquisitions with a per-process acquisition-graph
//    tracker that detects lock-order cycles online — the deadlock class
//    TSan does not catch.  Checking is a single relaxed atomic load when
//    disabled (the release default); debug and sanitizer builds enable it
//    by default, and tests can force it on programmatically.
//
// Vocabulary (mirrors clang's official names, P2P_-prefixed):
//   P2P_CAPABILITY(name)       — class is a lockable capability
//   P2P_SCOPED_CAPABILITY      — RAII object acquiring/releasing one
//   P2P_GUARDED_BY(mu)         — field only touched while mu is held
//   P2P_PT_GUARDED_BY(mu)      — pointee only touched while mu is held
//   P2P_REQUIRES(mu)           — function must be called with mu held
//   P2P_REQUIRES_SHARED(mu)    — ... with at least a shared hold on mu
//   P2P_ACQUIRE / P2P_RELEASE  — function acquires / releases mu
//   P2P_EXCLUDES(mu)           — function must NOT be called with mu held
//   P2P_NO_THREAD_SAFETY_ANALYSIS — opt a function out (needs a comment
//                                    explaining the out-of-band ordering)

#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "sync/lock_order.h"

// ---------------------------------------------------------------------------
// Attribute macros: real attributes under clang, no-ops elsewhere.
// ---------------------------------------------------------------------------
#if defined(__clang__) && !defined(SWIG)
#define P2P_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define P2P_TS_ATTRIBUTE(x)  // no-op: GCC/MSVC have no thread-safety analysis
#endif

#define P2P_CAPABILITY(x) P2P_TS_ATTRIBUTE(capability(x))
#define P2P_SCOPED_CAPABILITY P2P_TS_ATTRIBUTE(scoped_lockable)
#define P2P_GUARDED_BY(x) P2P_TS_ATTRIBUTE(guarded_by(x))
#define P2P_PT_GUARDED_BY(x) P2P_TS_ATTRIBUTE(pt_guarded_by(x))
#define P2P_REQUIRES(...) \
  P2P_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define P2P_REQUIRES_SHARED(...) \
  P2P_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define P2P_ACQUIRE(...) P2P_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define P2P_ACQUIRE_SHARED(...) \
  P2P_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define P2P_RELEASE(...) P2P_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define P2P_RELEASE_SHARED(...) \
  P2P_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define P2P_TRY_ACQUIRE(...) \
  P2P_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define P2P_EXCLUDES(...) P2P_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define P2P_ASSERT_CAPABILITY(x) P2P_TS_ATTRIBUTE(assert_capability(x))
#define P2P_RETURN_CAPABILITY(x) P2P_TS_ATTRIBUTE(lock_returned(x))
#define P2P_NO_THREAD_SAFETY_ANALYSIS \
  P2P_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace p2pcash::sync {

/// Named lock-hierarchy levels (see docs/STATIC_ANALYSIS.md).  The runtime
/// checker requires acquisitions to strictly *descend*: while holding a
/// level-L lock, only locks with level < L (or unranked, level 0) may be
/// acquired.  Levels encode the call graph's legal nesting:
///
///   kTransport (65)  transport.net — TCP conn registry, per-peer outbound
///                    queues and stats.  Held only for queue append/flush
///                    bookkeeping; never while running user code.
///   kTransportTimer (63)
///                    transport.timers — io-loop timer heap.  Fired timers
///                    are extracted under the lock and dispatched after
///                    release, so mailbox/pool locks never nest inside it.
///   kMailbox (60)    transport.mailbox — per-endpoint strand queues.  A
///                    drain swaps the queue out under the lock and runs
///                    handlers with it released; handler code (service
///                    locks, kService and below) therefore never executes
///                    under a mailbox lock.
///   kPool (55)       verify.worker_pool — task queue; tasks run with the
///                    queue lock released, so no lock below is ever taken
///                    under it (and submitting while holding a service
///                    lock is flagged as the liveness hazard it is).
///   kService (50)    ecash.broker, ecash.witness — service entry points;
///                    outermost, may call into group caches below.
///   kStore (42)      store.log — durable log store serialization (append
///                    buffer, group-commit state).  Below kService so
///                    broker/witness code may journal a delta while
///                    holding its own service lock; the group-commit
///                    leader releases it across fsync.
///   kActors (40)     actors.peer_health — breaker bookkeeping.
///   kTracer (30)     obs.tracer — open-span map; calls into registry/sink.
///   kRegistry (20)   obs.metrics_registry — instrument maps; exports call
///                    into histograms/sink/group collectors below.
///   kSink (10)       obs.trace_sink, obs.histogram — leaf buffers.
///   kStoreVfs (8)    store.vfs — in-memory VFS file map (MemVfs).  A leaf:
///                    reachable from under store.log during append/sync and
///                    from the chaos engine's crash hooks.
///   kGroupCache (5)  group.fast_base_cache, group.hash_cache — leaf-level
///                    lazy caches reachable from any exponentiation.
namespace level {
inline constexpr int kTransport = 65;
inline constexpr int kTransportTimer = 63;
inline constexpr int kMailbox = 60;
inline constexpr int kPool = 55;
inline constexpr int kService = 50;
inline constexpr int kStore = 42;
inline constexpr int kActors = 40;
inline constexpr int kTracer = 30;
inline constexpr int kRegistry = 20;
inline constexpr int kSink = 10;
inline constexpr int kStoreVfs = 8;
inline constexpr int kGroupCache = 5;
}  // namespace level

/// Annotated exclusive mutex.  `name` appears in lock-order violation
/// reports; `level` is the optional hierarchy rank (see sync::level) —
/// acquiring a higher-level lock while holding a lower-level one is
/// reported even before any cycle forms.
class P2P_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "sync.mutex", int level = 0)
      : node_{name, level} {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() P2P_ACQUIRE() {
    lock_order::on_acquire(&node_);
    mu_.lock();
  }
  void unlock() P2P_RELEASE() {
    mu_.unlock();
    lock_order::on_release(&node_);
  }
  bool try_lock() P2P_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_order::on_try_acquire(&node_);
    return true;
  }

  const char* name() const { return node_.name; }
  int level() const { return node_.level; }

 private:
  std::mutex mu_;
  lock_order::LockNode node_;
};

/// Annotated shared (reader/writer) mutex.  The lock-order tracker treats
/// shared and exclusive holds identically: a shared acquisition can still
/// participate in a deadlock cycle against an exclusive one.
class P2P_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "sync.shared_mutex", int level = 0)
      : node_{name, level} {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() P2P_ACQUIRE() {
    lock_order::on_acquire(&node_);
    mu_.lock();
  }
  void unlock() P2P_RELEASE() {
    mu_.unlock();
    lock_order::on_release(&node_);
  }
  void lock_shared() P2P_ACQUIRE_SHARED() {
    lock_order::on_acquire(&node_);
    mu_.lock_shared();
  }
  void unlock_shared() P2P_RELEASE_SHARED() {
    mu_.unlock_shared();
    lock_order::on_release(&node_);
  }

  const char* name() const { return node_.name; }
  int level() const { return node_.level; }

 private:
  std::shared_mutex mu_;
  lock_order::LockNode node_;
};

/// RAII exclusive lock (the annotated std::lock_guard).
class P2P_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) P2P_ACQUIRE(mu) : mu_(&mu), shared_(nullptr) {
    mu_->lock();
  }
  explicit MutexLock(SharedMutex& mu) P2P_ACQUIRE(mu)
      : mu_(nullptr), shared_(&mu) {
    shared_->lock();
  }
  ~MutexLock() P2P_RELEASE() {
    if (mu_) mu_->unlock();
    if (shared_) shared_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
  SharedMutex* shared_;
};

/// Condition variable usable with sync::Mutex.  Built on
/// std::condition_variable_any, which releases/reacquires through the
/// annotated lock()/unlock(), so the lock-order tracker sees a wait as a
/// release followed by a fresh acquisition — re-waking inside a wait can
/// never corrupt the held-locks stack.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified.  The caller must hold `mu`; it is released
  /// while blocked and re-held on return (spurious wakeups possible — use
  /// the predicate overload unless the loop is explicit at the call site).
  void wait(Mutex& mu) P2P_REQUIRES(mu) { cv_.wait(mu); }

  /// Blocks until `pred()` holds (checked with `mu` held).
  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) P2P_REQUIRES(mu) {
    while (!pred()) cv_.wait(mu);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// RAII shared (reader) lock.
class P2P_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) P2P_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLock() P2P_RELEASE() { mu_.unlock_shared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace p2pcash::sync
