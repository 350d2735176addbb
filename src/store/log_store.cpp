#include "store/log_store.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics_registry.h"
#include "store/crc32c.h"

namespace p2pcash::store {
namespace {

std::uint32_t load_u32be(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

std::vector<std::uint8_t> LogStore::frame_record(
    std::uint8_t kind, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + body.size());
  payload.push_back(kind);
  payload.insert(payload.end(), body.begin(), body.end());

  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  store_u32be(out, static_cast<std::uint32_t>(payload.size()));
  store_u32be(out, crc32c(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

LogStore::LogStore(Vfs& vfs, std::string name, Options options)
    : vfs_(vfs),
      name_(std::move(name)),
      tmp_name_(name_ + ".tmp"),
      options_(options) {
  if (options_.metrics) {
    fsync_ms_ = &options_.metrics->histogram("store_fsync_ms");
    batch_records_ =
        &options_.metrics->histogram("store_commit_batch_records");
    appends_total_ = &options_.metrics->counter("store_appends_total");
    commits_total_ = &options_.metrics->counter("store_commits_total");
    truncated_total_ =
        &options_.metrics->counter("store_truncated_bytes_total");
  }
  open_and_scan();
}

void LogStore::open_and_scan() {
  // A leftover compaction temp means we crashed before the rename: the
  // old log is intact and authoritative; the temp is garbage.
  if (vfs_.exists(tmp_name_)) vfs_.remove(tmp_name_);

  sync::MutexLock lock(mu_);
  file_ = vfs_.open(name_);
  const std::vector<std::uint8_t> bytes = file_->read_all();

  // Resumable scan: walk valid records, remember where the last one ends.
  std::size_t pos = 0;
  std::size_t valid_end = 0;
  while (bytes.size() - pos >= kFrameHeaderBytes) {
    const std::uint32_t len = load_u32be(&bytes[pos]);
    const std::uint32_t crc = load_u32be(&bytes[pos + 4]);
    if (len == 0 || len > options_.max_record_bytes) break;
    if (bytes.size() - pos - kFrameHeaderBytes < len) break;  // torn payload
    const std::span<const std::uint8_t> payload(&bytes[pos + kFrameHeaderBytes],
                                                len);
    if (crc32c(payload) != crc) break;
    const std::uint8_t kind = payload[0];
    if (kind != kRecordCheckpoint && kind != kRecordDelta) break;

    const std::span<const std::uint8_t> body = payload.subspan(1);
    if (kind == kRecordCheckpoint) {
      recovered_.snapshot.assign(body.begin(), body.end());
      recovered_.deltas.clear();
    } else {
      recovered_.deltas.emplace_back(body.begin(), body.end());
    }
    ++stats_.recovered_records;
    pos += kFrameHeaderBytes + len;
    valid_end = pos;
  }

  if (valid_end < bytes.size()) {
    stats_.truncated_bytes = bytes.size() - valid_end;
    if (truncated_total_) truncated_total_->inc(stats_.truncated_bytes);
    file_->truncate(valid_end);
  }
  written_ = valid_end;
  synced_ = valid_end;  // everything surviving a reopen is on disk
}

bool LogStore::empty() const {
  sync::MutexLock lock(mu_);
  return written_ == 0 && stats_.recovered_records == 0;
}

Recovered LogStore::recover() {
  sync::MutexLock lock(mu_);
  return recovered_;
}

void LogStore::check_record_size(std::span<const std::uint8_t> body) const {
  // The open-time scan treats a longer payload (kind byte + body) as
  // corruption and truncates the log there, with every record after it.
  if (body.size() >= options_.max_record_bytes)
    throw std::length_error("LogStore: record of " +
                            std::to_string(body.size() + 1) +
                            " bytes exceeds max_record_bytes");
}

void LogStore::append_framed(std::uint8_t kind,
                             std::span<const std::uint8_t> body) {
  check_record_size(body);
  const std::vector<std::uint8_t> rec = frame_record(kind, body);
  file_->append(rec);
  written_ += rec.size();
  ++pending_records_;
  ++stats_.appended_records;
  stats_.appended_bytes += rec.size();
  if (appends_total_) appends_total_->inc();
}

void LogStore::append(std::span<const std::uint8_t> delta) {
  sync::MutexLock lock(mu_);
  append_framed(kRecordDelta, delta);
}

// Manual lock/unlock: the leader must release mu_ across the fsync so
// appends and other committers keep flowing, which scoped RAII cannot
// express.  The CondVar wait() handles its own release/reacquire.
void LogStore::commit() P2P_NO_THREAD_SAFETY_ANALYSIS {
  mu_.lock();
  const std::uint64_t target = written_;
  if (target > synced_) {
    ++stats_.commits;
    if (commits_total_) commits_total_->inc();
  }
  while (synced_ < target) {
    if (sync_in_flight_) {
      // A leader's fsync is running; it covers every byte written before
      // it captured `up_to`.  Wait and re-check — if our records were
      // appended after the capture we become the next leader.
      sync_done_.wait(mu_);
      continue;
    }
    sync_in_flight_ = true;
    const std::uint64_t up_to = written_;
    const std::uint64_t batch = pending_records_;
    pending_records_ = 0;
    File* file = file_.get();
    mu_.unlock();

    const double ms = file->sync();

    mu_.lock();
    synced_ = up_to;
    sync_in_flight_ = false;
    ++stats_.fsyncs;
    if (fsync_ms_) fsync_ms_->record(ms);
    if (batch_records_) batch_records_->record(static_cast<double>(batch));
    sync_done_.notify_all();
  }
  mu_.unlock();
}

void LogStore::checkpoint(std::vector<std::uint8_t> snapshot) {
  check_record_size(snapshot);
  sync::MutexLock lock(mu_);
  // Never swap the file out from under a leader's in-flight fsync.
  while (sync_in_flight_) sync_done_.wait(mu_);

  // Write the replacement log: one checkpoint record, fully durable
  // before the rename makes it the log.
  {
    std::unique_ptr<File> tmp = vfs_.open(tmp_name_);
    tmp->truncate(0);  // stale temp from a previous failed attempt
    tmp->append(frame_record(kRecordCheckpoint, snapshot));
    tmp->sync();
  }
  vfs_.rename(tmp_name_, name_);

  file_ = vfs_.open(name_);
  written_ = file_->size();
  synced_ = written_;
  pending_records_ = 0;
  ++stats_.checkpoints;

  recovered_.snapshot = std::move(snapshot);
  recovered_.deltas.clear();
  sync_done_.notify_all();
}

LogStore::Stats LogStore::stats() const {
  sync::MutexLock lock(mu_);
  return stats_;
}

std::uint64_t LogStore::size_bytes() const {
  sync::MutexLock lock(mu_);
  return written_;
}

}  // namespace p2pcash::store
