// log_store.h — append-only CRC-framed record log with group commit.
//
// On-disk format (all integers big-endian, matching wire/codec):
//
//   record  := u32 payload_len | u32 crc32c(payload) | payload
//   payload := u8 kind | body           kind 0 = checkpoint, 1 = delta
//   log     := record*
//
// The frame echoes wire/framing's length-prefixed discipline and its
// oversized-length guard: a length prefix beyond max_record_bytes is
// treated as corruption, not an allocation request.  The recovery scan is
// a resumable decode — it walks records until the first one that does not
// fully verify (short header, short payload, CRC mismatch, bad kind,
// oversized length) and **truncates the file there**: a torn tail is the
// expected result of a crash mid-write, never an error.  Everything
// before the truncation point was covered by a commit() (or was never
// acknowledged), so chopping the tail loses no acknowledged state.
//
// Group commit: append() frames the record and hands it to the file under
// the store mutex (cheap — page-cache write).  commit() is the durability
// barrier: the first committer becomes the *leader*, captures the current
// written offset, releases the mutex, fsyncs once, and wakes everyone
// whose records the captured offset covers.  Committers arriving while a
// sync is in flight wait; whoever wakes with records still unsynced
// becomes the next leader.  N concurrent committers cost ~2 fsyncs worst
// case instead of N.
//
// Compaction (checkpoint()): writes `<name>.tmp` containing a single
// checkpoint record, fsyncs it, then atomically renames it over the log.
// A crash before the rename leaves the old log intact plus a stale .tmp
// (removed on next open); after the rename the new log is complete.
//
// Metrics (optional): store_fsync_ms and store_commit_batch_records
// histograms, store_appends_total / store_commits_total /
// store_truncated_bytes_total counters.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/store.h"
#include "store/vfs.h"
#include "sync/annotated.h"

namespace p2pcash::obs {
class MetricsRegistry;
class Histogram;
class Counter;
}  // namespace p2pcash::obs

namespace p2pcash::store {

/// Record kinds at the log-framing layer.
inline constexpr std::uint8_t kRecordCheckpoint = 0;
inline constexpr std::uint8_t kRecordDelta = 1;

/// Bytes of framing around each payload (length + CRC).
inline constexpr std::size_t kFrameHeaderBytes = 8;

class LogStore : public Store {
 public:
  struct Options {
    /// Upper bound on a single record's payload.  A length prefix above
    /// this is corruption (wire/framing's poison-on-oversized idiom);
    /// generous because checkpoints carry whole service snapshots.
    std::uint32_t max_record_bytes = 64u << 20;
    /// Metrics sink; nullptr disables instrumentation.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Counters maintained across the store's lifetime (monotonic; the
  /// recovery fields describe the open-time scan).
  struct Stats {
    std::uint64_t appended_records = 0;
    std::uint64_t appended_bytes = 0;
    std::uint64_t commits = 0;   // commit() calls that found work
    std::uint64_t fsyncs = 0;    // actual File::sync calls
    std::uint64_t checkpoints = 0;
    std::uint64_t recovered_records = 0;  // valid records seen on open
    std::uint64_t truncated_bytes = 0;    // torn tail chopped on open
  };

  /// Opens (creating if absent) `<name>` under `vfs`, removing any stale
  /// compaction temp file and truncating a torn tail to the last valid
  /// record.  The Vfs must outlive the store.
  LogStore(Vfs& vfs, std::string name, Options options);
  LogStore(Vfs& vfs, std::string name)
      : LogStore(vfs, std::move(name), Options()) {}

  bool empty() const override;
  void append(std::span<const std::uint8_t> delta) override;
  void commit() override;
  void checkpoint(std::vector<std::uint8_t> snapshot) override;
  Recovered recover() override;

  Stats stats() const;

  /// Current log size in bytes.  No compaction policy reads it: a log is
  /// compacted only by an explicit checkpoint().
  std::uint64_t size_bytes() const;

  const std::string& name() const { return name_; }

  /// Frames one payload exactly as the log writes it (tests build hostile
  /// corpora from real frames).
  static std::vector<std::uint8_t> frame_record(
      std::uint8_t kind, std::span<const std::uint8_t> body);

 private:
  void open_and_scan();
  void append_framed(std::uint8_t kind, std::span<const std::uint8_t> body)
      P2P_REQUIRES(mu_);

  Vfs& vfs_;
  const std::string name_;
  const std::string tmp_name_;
  const Options options_;

  mutable sync::Mutex mu_{"store.log", sync::level::kStore};
  sync::CondVar sync_done_;
  std::unique_ptr<File> file_ P2P_GUARDED_BY(mu_);
  std::uint64_t written_ P2P_GUARDED_BY(mu_) = 0;  // file size incl. unsynced
  std::uint64_t synced_ P2P_GUARDED_BY(mu_) = 0;   // durable prefix
  std::uint64_t pending_records_ P2P_GUARDED_BY(mu_) = 0;
  bool sync_in_flight_ P2P_GUARDED_BY(mu_) = false;
  Stats stats_ P2P_GUARDED_BY(mu_);

  /// Open-time scan result, consumed by recover().
  Recovered recovered_ P2P_GUARDED_BY(mu_);

  // Instrument pointers resolved once at construction (registry refs are
  // stable); nullptr when Options::metrics is unset.
  obs::Histogram* fsync_ms_ = nullptr;
  obs::Histogram* batch_records_ = nullptr;
  obs::Counter* appends_total_ = nullptr;
  obs::Counter* commits_total_ = nullptr;
  obs::Counter* truncated_total_ = nullptr;
};

}  // namespace p2pcash::store
