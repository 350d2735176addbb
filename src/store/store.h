// store.h — the durable-state seam for Broker and WitnessService.
//
// Both services keep their coin/deposit/double-spend state in memory and
// persist it through this interface as
//
//   * **checkpoints** — a full canonical snapshot (the same bytes as
//     snapshot_state(): a header plus the delta records of every live
//     entry), written as the genesis record when a service attaches to an
//     empty store and by an explicit checkpoint_store(); and
//   * **deltas** — small typed records appended by every mutating entry
//     point *before* the operation is acknowledged, then made durable by
//     commit().
//
// Recovery = decode the last checkpoint, then the deltas after it in
// append order, into staging (each service's record decoder is last-wins
// per key, so replay is idempotent), and install the result only once all
// of it decoded.  Nothing compacts a log automatically.  The contract the crash-point matrix enforces:
// **a record covered by a returned commit() is never lost**, and a torn
// tail past the last commit is truncated silently — the service simply
// never acknowledged those operations.
//
// The one implementation is LogStore (log_store.h), an append-only
// CRC-framed log over a Vfs: real files (PosixVfs) or an in-memory
// filesystem with byte-granular crash tears (MemVfs), which is what the
// simulator's crash hooks and the crash-point tests run on.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace p2pcash::store {

/// What a store hands back on open: the newest checkpoint (empty when the
/// store has never been checkpointed) and every delta appended after it,
/// in append order.
struct Recovered {
  std::vector<std::uint8_t> snapshot;
  std::vector<std::vector<std::uint8_t>> deltas;
};

class Store {
 public:
  virtual ~Store() = default;

  /// True when nothing has ever been written (services write a genesis
  /// checkpoint so the signing key itself is durable).
  virtual bool empty() const = 0;

  /// Appends one delta record.  Cheap and non-durable until commit().
  /// Thread-safe: services append while holding their own service lock
  /// (sync::level::kStore sits below kService).
  virtual void append(std::span<const std::uint8_t> delta) = 0;

  /// Makes every previously appended delta durable.  Returning means the
  /// records survive any subsequent crash.  Thread-safe; concurrent
  /// committers are batched into one fsync (group commit).
  virtual void commit() = 0;

  /// Replaces the log with a single checkpoint record (compaction).
  /// Durable on return.
  virtual void checkpoint(std::vector<std::uint8_t> snapshot) = 0;

  /// Scans the store: newest checkpoint + deltas after it.  Called once
  /// at attach time, before any append.
  virtual Recovered recover() = 0;
};

/// RAII commit barrier for service entry points.  Declared *before* the
/// service MutexLock, so the destructor — running after the lock is
/// released — makes every delta journaled inside the critical section
/// durable before the entry point returns its acknowledgement to the
/// caller.  Null store → no-op (a service running without a journal).
class StoreCommit {
 public:
  explicit StoreCommit(Store* store) : store_(store) {}
  ~StoreCommit() {
    if (store_ != nullptr) store_->commit();
  }
  StoreCommit(const StoreCommit&) = delete;
  StoreCommit& operator=(const StoreCommit&) = delete;

 private:
  Store* store_;
};

}  // namespace p2pcash::store
