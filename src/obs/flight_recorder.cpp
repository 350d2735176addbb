#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>

#include "sync/lock_order.h"

namespace p2pcash::obs {

namespace {

/// Truncating copy into a fixed char field, always NUL-terminated.
template <std::size_t N>
void copy_field(char (&dst)[N], std::string_view src) {
  const std::size_t n = src.size() < N - 1 ? src.size() : N - 1;
  // An empty string_view may carry a null data(); memcpy's arguments must
  // be valid pointers even for a zero-length copy.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

/// Formats one dump line into `buf`.  snprintf is not on the POSIX
/// async-signal-safe list but is reentrant and allocation-free in
/// practice on glibc/musl for numeric/string conversions; the dump path
/// accepts that pragmatic bar (the alternative is a hand-rolled
/// formatter for marginal benefit in a crashing process).
int format_entry(char* buf, std::size_t cap, const FlightRecorder::Entry& e,
                 bool torn) {
  return std::snprintf(buf, cap, "%14.3f  #%llu  %-22s %s%s\n", e.t_ms,
                       static_cast<unsigned long long>(e.seq), e.name,
                       e.detail, torn ? "  [torn]" : "");
}

void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) return;  // best effort — we may be inside a signal handler
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity,
                               std::function<double()> clock)
    : clock_(std::move(clock)), ring_(capacity < 8 ? 8 : capacity) {}

void FlightRecorder::record(std::string_view name, std::string_view detail) {
  const std::uint64_t idx = seq_.fetch_add(1, std::memory_order_relaxed);
  Entry& slot = ring_[idx % ring_.size()];
  slot.seq = 0;  // invalidate while we overwrite (readers skip seq==0)
  slot.t_ms = clock_ ? clock_() : 0;
  copy_field(slot.name, name);
  copy_field(slot.detail, detail);
  slot.seq = idx + 1;  // publish last; a racing reader sees 0 or idx+1
}

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot() const {
  const std::uint64_t total = seq_.load(std::memory_order_relaxed);
  const std::uint64_t cap = ring_.size();
  const std::uint64_t start = total > cap ? total - cap : 0;
  std::vector<Entry> out;
  out.reserve(static_cast<std::size_t>(total - start));
  for (std::uint64_t i = start; i < total; ++i) {
    const Entry e = ring_[i % cap];  // racy copy by design (see header)
    if (e.seq != i + 1) continue;    // torn or mid-overwrite: skip
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::dump_to_string() const {
  const std::uint64_t total = seq_.load(std::memory_order_relaxed);
  std::string out = "# flight recorder: " + std::to_string(total) +
                    " recorded, capacity " + std::to_string(ring_.size()) +
                    "\n";
  char line[256];
  const std::uint64_t cap = ring_.size();
  const std::uint64_t start = total > cap ? total - cap : 0;
  for (std::uint64_t i = start; i < total; ++i) {
    const Entry e = ring_[i % cap];
    const bool torn = e.seq != i + 1;
    if (torn && e.seq == 0) continue;  // slot mid-write: nothing to show
    const int n = format_entry(line, sizeof line, e, torn);
    if (n > 0) out.append(line, static_cast<std::size_t>(n));
  }
  return out;
}

void FlightRecorder::set_artifact_path(std::string_view path) {
  const std::size_t n =
      path.size() < sizeof(artifact_path_) - 1 ? path.size()
                                               : sizeof(artifact_path_) - 1;
  std::memcpy(artifact_path_, path.data(), n);
  artifact_path_[n] = '\0';
  artifact_len_.store(n, std::memory_order_release);
}

std::string FlightRecorder::artifact_path() const {
  const std::size_t n = artifact_len_.load(std::memory_order_acquire);
  return std::string(artifact_path_, n);
}

void FlightRecorder::dump(const char* reason) const {
  // Everything below is stack buffers + raw syscalls: callable from the
  // SIGABRT handler of a thread that just failed an assert while holding
  // arbitrary locks.
  int fd = STDERR_FILENO;
  int opened = -1;
  if (artifact_len_.load(std::memory_order_acquire) > 0) {
    opened = ::open(artifact_path_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (opened >= 0) fd = opened;
  }

  char header[256];
  const std::uint64_t total = seq_.load(std::memory_order_relaxed);
  int n = std::snprintf(header, sizeof header,
                        "# flight recorder dump (reason=%s, recorded=%llu, "
                        "capacity=%zu)\n",
                        reason ? reason : "?",
                        static_cast<unsigned long long>(total), ring_.size());
  if (n > 0) write_all(fd, header, static_cast<std::size_t>(n));

  char line[256];
  const std::uint64_t cap = ring_.size();
  const std::uint64_t start = total > cap ? total - cap : 0;
  for (std::uint64_t i = start; i < total; ++i) {
    const Entry& e = ring_[i % cap];
    const bool torn = e.seq != i + 1;
    if (torn && e.seq == 0) continue;
    n = format_entry(line, sizeof line, e, torn);
    if (n > 0) write_all(fd, line, static_cast<std::size_t>(n));
  }

  if (opened >= 0) {
    ::close(opened);
    // Leave a pointer on stderr so a CI log names the artifact.
    n = std::snprintf(header, sizeof header,
                      "flight recorder: dumped %llu entries to %s (%s)\n",
                      static_cast<unsigned long long>(total > cap ? cap
                                                                  : total),
                      artifact_path_, reason ? reason : "?");
    if (n > 0) write_all(STDERR_FILENO, header, static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Process hooks
// ---------------------------------------------------------------------------

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};

void on_sigusr1(int) {
  if (FlightRecorder* r = g_recorder.load(std::memory_order_acquire))
    r->dump("sigusr1");
}

void on_sigabrt(int) {
  if (FlightRecorder* r = g_recorder.load(std::memory_order_acquire))
    r->dump("abort");
  // Restore the default disposition and re-raise so the process still
  // terminates abnormally (core dump / nonzero exit for the harness).
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

}  // namespace

void FlightRecorder::install_process_hooks(FlightRecorder* recorder) {
  g_recorder.store(recorder, std::memory_order_release);
  if (recorder) {
    std::signal(SIGUSR1, on_sigusr1);
    std::signal(SIGABRT, on_sigabrt);
    // Lock-order violations: breadcrumb + abort.  The dump itself happens
    // in the SIGABRT hook just installed, so it fires exactly once.
    sync::lock_order::set_violation_handler(
        [recorder](const sync::lock_order::Violation& v) {
          recorder->record("lock_order.violation",
                           v.acquiring + " while holding " + v.held);
          std::fprintf(stderr, "%s\n", v.detail.c_str());
          std::abort();
        });
  } else {
    std::signal(SIGUSR1, SIG_DFL);
    std::signal(SIGABRT, SIG_DFL);
    sync::lock_order::set_violation_handler(nullptr);
  }
}

}  // namespace p2pcash::obs
