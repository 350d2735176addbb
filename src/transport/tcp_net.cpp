#include "transport/tcp_net.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/chacha.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "wire/codec.h"

namespace p2pcash::transport {

namespace {

/// How many queued frame bytes flush_writes moves into the io staging
/// buffer per refill: bounds the time the conn-registry lock is held and
/// the memory outside the accounted queue.
constexpr std::size_t kWriteChunk = 256 * 1024;

/// Tasks one strand drain runs before re-submitting itself, so one hot
/// endpoint cannot starve the other strands sharing the worker pool.
constexpr std::size_t kStrandBatch = 64;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

std::vector<std::uint8_t> encode_envelope(const Message& msg) {
  wire::Writer w;
  w.put_u32(msg.from);
  w.put_u32(msg.to);
  w.put_string(msg.type);
  w.put_bytes(msg.payload);
  return w.take();
}

Message decode_envelope(std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  Message msg;
  msg.from = r.get_u32();
  msg.to = r.get_u32();
  msg.type = r.get_string();
  msg.payload = r.get_bytes();
  r.expect_end();
  return msg;
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct TcpNet::Endpoint {
  NodeId id = 0;
  simnet::Node* node = nullptr;
  std::unique_ptr<crypto::ChaChaRng> rng;  // strand-confined

  // io-thread-only listener state.  `port` is written once at attach()
  // (before the io thread exists) and read-only afterwards.
  int listen_fd = -1;
  std::uint16_t port = 0;
  bool down_io = false;

  // Strand mailbox.
  sync::Mutex mb_mu{"transport.mailbox", sync::level::kMailbox};
  std::deque<std::function<void()>> mailbox P2P_GUARDED_BY(mb_mu);
  bool drain_scheduled P2P_GUARDED_BY(mb_mu) = false;

  // Lock-free mirrors for the inbound flow-control handshake between the
  // io thread (pause) and the draining worker (resume request).
  std::atomic<std::size_t> depth{0};
  std::atomic<bool> paused{false};
  std::atomic<bool> resume_request{false};
};

struct TcpNet::OutConn {
  // One directed (from, to) connection; dialed lazily on first send.
  NodeId from = 0;
  NodeId to = 0;

  // Guarded by TcpNet::mu_ (nested structs cannot name the outer instance
  // mutex in annotations; ownership is by convention, enforced in review):
  // queue, queued_bytes, dirty.
  std::deque<std::vector<std::uint8_t>> queue;
  std::size_t queued_bytes = 0;
  bool dirty = false;
  /// Per-connection queue-depth gauge, resolved once under mu_ when the
  /// conn is created (registry level < kTransport: legal descent) and
  /// then updated lock-free wherever queued_bytes changes.
  obs::Gauge* queue_gauge = nullptr;

  // io-thread-only.
  enum class State { kIdle, kConnecting, kEstablished };
  State state = State::kIdle;
  int fd = -1;
  bool want_write = false;
  std::vector<std::uint8_t> io_buf;  ///< staged bytes being written
  std::size_t io_off = 0;
};

struct TcpNet::InConn {
  // io-thread-only: an accepted connection delivering frames to `dst`.
  int fd = -1;
  NodeId dst = 0;
  bool paused = false;
  wire::FrameDecoder decoder;

  InConn(int fd_in, NodeId dst_in, std::size_t max_frame)
      : fd(fd_in), dst(dst_in), decoder(max_frame) {}
};

struct TcpNet::Timer {
  double due_ms = 0;
  std::uint64_t seq = 0;
  NodeId node = 0;
  std::function<void()> fn;
};

/// std:: heap primitives build max-heaps; invert to a (due, seq) min-heap.
bool TcpNet::timer_later(const Timer& a, const Timer& b) {
  if (a.due_ms != b.due_ms) return a.due_ms > b.due_ms;
  return a.seq > b.seq;
}

struct TcpNet::AtomicStats {
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> messages_received{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> backpressure_drops{0};
  std::atomic<std::uint64_t> dropped_on_disconnect{0};
  std::atomic<std::uint64_t> connects{0};
  std::atomic<std::uint64_t> connect_failures{0};
  std::atomic<std::uint64_t> disconnects{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> reads_paused{0};
  std::atomic<std::uint64_t> timers_fired{0};
  /// Current total outbound backlog across every connection (a gauge,
  /// not a monotonic stat): kept as a relaxed atomic so the metrics
  /// collector can read it WITHOUT taking mu_ — collectors run under the
  /// registry lock (level kRegistry) and must never climb to kTransport.
  std::atomic<std::uint64_t> queued_bytes_now{0};
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

TcpNet::TcpNet(Options options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      stats_(std::make_unique<AtomicStats>()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0)
    throw_errno("epoll_ctl(wake)");
  setup_observability();
}

void TcpNet::setup_observability() {
  if (options_.tracer) {
    tracer_ = options_.tracer;
  } else {
    // Own a wall-clock tracer so Transport::tracer() is never null.  The
    // clock is TcpNet::now() — the same epoch the timer heap uses — so
    // span timestamps line up with timer deadlines in one timescale.
    owned_sink_ = std::make_unique<obs::TraceSink>();
    owned_sink_->set_meta(
        {"tcp", static_cast<std::uint32_t>(std::thread::hardware_concurrency())});
    owned_tracer_ = std::make_unique<obs::Tracer>(
        [this] { return now(); }, owned_sink_.get(), options_.metrics);
    tracer_ = owned_tracer_.get();
  }
  if (!options_.metrics) return;
  obs::MetricsRegistry& reg = *options_.metrics;
  io_busy_ms_ = &reg.histogram("transport_io_loop_busy_ms");
  timer_delay_ms_ = &reg.histogram("transport_timer_delay_ms");
  strand_batch_ = &reg.histogram("transport_strand_batch");
  queued_bytes_gauge_ = &reg.gauge("transport_outbound_queued_bytes");
  // Counters are mirrored from the lock-free AtomicStats: the collector
  // runs with the registry lock held and may not take mu_ (kTransport
  // ranks far above kRegistry), so everything it reads is an atomic.
  reg.register_collector([this] {
    using obs::Sample;
    const AtomicStats& a = *stats_;
    auto counter = [](const char* name,
                      const std::atomic<std::uint64_t>& v) {
      return Sample{name, static_cast<double>(v.load(std::memory_order_relaxed)),
                    Sample::Type::kCounter};
    };
    std::vector<Sample> out{
        counter("transport_messages_sent_total", a.messages_sent),
        counter("transport_bytes_sent_total", a.bytes_sent),
        counter("transport_messages_received_total", a.messages_received),
        counter("transport_bytes_received_total", a.bytes_received),
        counter("transport_backpressure_drops_total", a.backpressure_drops),
        counter("transport_dropped_on_disconnect_total",
                a.dropped_on_disconnect),
        counter("transport_connects_total", a.connects),
        counter("transport_connect_failures_total", a.connect_failures),
        counter("transport_disconnects_total", a.disconnects),
        counter("transport_decode_errors_total", a.decode_errors),
        counter("transport_reads_paused_total", a.reads_paused),
        counter("transport_timers_fired_total", a.timers_fired),
    };
    for (const auto& ep : endpoints_) {
      out.push_back(Sample{
          "transport_mailbox_depth_node_" + std::to_string(ep->id),
          static_cast<double>(ep->depth.load(std::memory_order_relaxed)),
          Sample::Type::kGauge});
    }
    return out;
  });
}

void TcpNet::flight_note(std::string_view name, std::string_view detail) {
  if (options_.flight) options_.flight->record(name, detail);
}

TcpNet::~TcpNet() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

NodeId TcpNet::attach(simnet::Node& node) {
  if (running_.load(std::memory_order_acquire))
    throw std::logic_error("TcpNet::attach: endpoints are fixed at start()");
  auto ep = std::make_unique<Endpoint>();
  ep->id = static_cast<NodeId>(endpoints_.size());
  ep->node = &node;
  ep->rng = std::make_unique<crypto::ChaChaRng>(options_.seed * 1000003ULL +
                                                ep->id);
  node.id_ = ep->id;
  open_listener(*ep);
  endpoints_.push_back(std::move(ep));
  return endpoints_.back()->id;
}

void TcpNet::open_listener(Endpoint& ep) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(listen)");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ep.port);  // 0 on first bind: kernel picks
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(127.0.0.1)");
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    ::close(fd);
    throw_errno("listen");
  }
  if (ep.port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      ::close(fd);
      throw_errno("getsockname");
    }
    ep.port = ntohs(bound.sin_port);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    throw_errno("epoll_ctl(listen)");
  }
  ep.listen_fd = fd;
  listen_fds_[fd] = &ep;
}

void TcpNet::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  // The pool lives from the first start() until destruction: a strand
  // draining at stop() may still resubmit itself, and a post() racing
  // stop() may still submit, so the pointer must never go null under them.
  if (!pool_) {
    pool_ = std::make_unique<verify::WorkerPool>(
        std::max<std::size_t>(1, options_.worker_threads));
    if (options_.metrics)
      pool_->instrument(*options_.metrics, "transport_pool_",
                        [this] { return now(); });
  }
  // Publishes pool_ to dispatch(), which reads running_ before submitting.
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  // Kick strands for anything post()ed or scheduled before start.
  for (auto& ep : endpoints_) {
    bool kick = false;
    {
      sync::MutexLock lock(ep->mb_mu);
      if (!ep->mailbox.empty() && !ep->drain_scheduled) {
        ep->drain_scheduled = true;
        kick = true;
      }
    }
    if (kick) submit_drain(*ep);
  }
  io_wake();
}

void TcpNet::stop() {
  if (!running_.load(std::memory_order_acquire) && !io_thread_.joinable())
    return;
  stopping_.store(true, std::memory_order_release);
  io_wake();
  if (io_thread_.joinable()) io_thread_.join();
  // New post()s now only queue (start() kicks them).  Then run every
  // scheduled strand to empty, including strands that resubmit themselves
  // after kStrandBatch tasks.  No new messages can arrive (sockets closed)
  // and sends are dropped, so the mailboxes go quiet and the drain ends.
  running_.store(false, std::memory_order_release);
  if (pool_) pool_->drain();
}

// ---------------------------------------------------------------------------
// Public API (any thread)
// ---------------------------------------------------------------------------

SimTime TcpNet::now() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TcpNet::send(Message msg) {
  if (stopping_.load(std::memory_order_acquire)) return;
  if (msg.from >= endpoints_.size() || msg.to >= endpoints_.size())
    throw std::logic_error("TcpNet::send: unknown endpoint id");
  std::vector<std::uint8_t> frame;
  const auto envelope = encode_envelope(msg);
  // A traced message carries its context in the frame's wire envelope, so
  // the receiving node can stitch its server span under the sender's.
  const wire::TraceEnvelope wire_trace{msg.trace.trace, msg.trace.span};
  try {
    wire::append_frame(frame, envelope, wire_trace, options_.max_frame_bytes);
  } catch (const wire::DecodeError&) {
    // Oversized message: the peer's decoder would kill the connection.
    // Refusing here keeps the failure on the sender that caused it.
    stats_->backpressure_drops.fetch_add(1, std::memory_order_relaxed);
    if (msg.trace.valid())
      tracer_->event(msg.trace, "net.oversized_drop", msg.type);
    return;
  }
  bool wake = false;
  const std::size_t frame_bytes = frame.size();
  bool dropped = false;
  {
    sync::MutexLock lock(mu_);
    auto& slot = conns_[{msg.from, msg.to}];
    if (!slot) {
      slot = std::make_unique<OutConn>();
      slot->from = msg.from;
      slot->to = msg.to;
      if (options_.metrics)
        slot->queue_gauge = &options_.metrics->gauge(
            "transport_conn_queue_bytes_" + std::to_string(msg.from) +
            "_to_" + std::to_string(msg.to));
    }
    OutConn& conn = *slot;
    if (conn.queued_bytes + frame.size() > options_.peer_queue_limit_bytes) {
      stats_->backpressure_drops.fetch_add(1, std::memory_order_relaxed);
      dropped = true;
    } else {
      conn.queued_bytes += frame.size();
      conn.queue.push_back(std::move(frame));
      if (conn.queue_gauge)
        conn.queue_gauge->set(static_cast<double>(conn.queued_bytes));
      stats_->messages_sent.fetch_add(1, std::memory_order_relaxed);
      if (!conn.dirty) {
        conn.dirty = true;
        dirty_.push_back(&conn);
        wake = true;
      }
    }
  }
  if (dropped) {
    if (msg.trace.valid())
      tracer_->event(msg.trace, "net.backpressure_drop", msg.type);
    flight_note("net.backpressure_drop",
                std::to_string(msg.from) + "->" + std::to_string(msg.to) +
                    " " + msg.type);
    return;
  }
  stats_->queued_bytes_now.fetch_add(frame_bytes, std::memory_order_relaxed);
  if (queued_bytes_gauge_)
    queued_bytes_gauge_->set(static_cast<double>(
        stats_->queued_bytes_now.load(std::memory_order_relaxed)));
  if (wake) io_wake();
}

void TcpNet::schedule_on(NodeId node, SimTime delay_ms,
                         std::function<void()> fn) {
  if (node >= endpoints_.size())
    throw std::logic_error("TcpNet::schedule_on: unknown endpoint id");
  {
    sync::MutexLock lock(timer_mu_);
    timers_.push_back(Timer{now() + std::max<SimTime>(0, delay_ms),
                            timer_seq_++, node, std::move(fn)});
    std::push_heap(timers_.begin(), timers_.end(), timer_later);
  }
  io_wake();
}

void TcpNet::post(NodeId node, std::function<void()> fn) {
  if (node >= endpoints_.size())
    throw std::logic_error("TcpNet::post: unknown endpoint id");
  dispatch(node, std::move(fn));
}

bn::Rng& TcpNet::rng(NodeId node) { return *endpoints_.at(node)->rng; }

std::uint16_t TcpNet::port(NodeId node) const {
  return endpoints_.at(node)->port;
}

void TcpNet::set_down(NodeId node, bool down) {
  {
    sync::MutexLock lock(mu_);
    down_requests_.emplace_back(node, down);
  }
  io_wake();
}

TcpNet::Stats TcpNet::stats() const {
  Stats s;
  const auto& a = *stats_;
  s.messages_sent = a.messages_sent.load(std::memory_order_relaxed);
  s.bytes_sent = a.bytes_sent.load(std::memory_order_relaxed);
  s.messages_received = a.messages_received.load(std::memory_order_relaxed);
  s.bytes_received = a.bytes_received.load(std::memory_order_relaxed);
  s.backpressure_drops = a.backpressure_drops.load(std::memory_order_relaxed);
  s.dropped_on_disconnect =
      a.dropped_on_disconnect.load(std::memory_order_relaxed);
  s.connects = a.connects.load(std::memory_order_relaxed);
  s.connect_failures = a.connect_failures.load(std::memory_order_relaxed);
  s.disconnects = a.disconnects.load(std::memory_order_relaxed);
  s.decode_errors = a.decode_errors.load(std::memory_order_relaxed);
  s.reads_paused = a.reads_paused.load(std::memory_order_relaxed);
  s.timers_fired = a.timers_fired.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Strand machinery
// ---------------------------------------------------------------------------

void TcpNet::dispatch(NodeId node, std::function<void()> fn) {
  Endpoint& ep = *endpoints_[node];
  bool do_submit = false;
  {
    sync::MutexLock lock(ep.mb_mu);
    ep.mailbox.push_back(std::move(fn));
    ep.depth.fetch_add(1, std::memory_order_relaxed);
    if (!ep.drain_scheduled && running_.load(std::memory_order_acquire)) {
      ep.drain_scheduled = true;
      do_submit = true;
    }
  }
  if (do_submit) submit_drain(ep);
}

void TcpNet::submit_drain(Endpoint& ep) {
  pool_->submit([this, &ep] { drain_strand(ep); });
}

void TcpNet::drain_strand(Endpoint& ep) {
  std::size_t processed = 0;
  bool resubmit = false;
  for (;;) {
    std::function<void()> task;
    {
      sync::MutexLock lock(ep.mb_mu);
      if (ep.mailbox.empty()) {
        ep.drain_scheduled = false;
        break;
      }
      if (processed >= kStrandBatch) {
        resubmit = true;  // drain_scheduled stays true: we own the strand
        break;
      }
      task = std::move(ep.mailbox.front());
      ep.mailbox.pop_front();
    }
    const std::size_t depth =
        ep.depth.fetch_sub(1, std::memory_order_relaxed) - 1;
    task();
    ++processed;
    if (depth <= options_.mailbox_low_watermark &&
        ep.paused.load(std::memory_order_acquire)) {
      if (!ep.resume_request.exchange(true, std::memory_order_acq_rel))
        io_wake();
    }
  }
  if (strand_batch_ && processed > 0)
    strand_batch_->record(static_cast<double>(processed));
  if (resubmit) submit_drain(ep);
}

// ---------------------------------------------------------------------------
// io thread
// ---------------------------------------------------------------------------

void TcpNet::io_wake() {
  const std::uint64_t one = 1;
  // A full eventfd counter (impossible here) or a race with close is
  // harmless: the io loop re-checks all work sources every iteration.
  [[maybe_unused]] auto n = ::write(wake_fd_, &one, sizeof(one));
}

int TcpNet::timeout_to_next_timer_ms() {
  sync::MutexLock lock(timer_mu_);
  if (timers_.empty()) return -1;
  const double delta = timers_.front().due_ms - now();
  if (delta <= 0) return 0;
  return static_cast<int>(std::min(delta + 1.0, 60'000.0));
}

void TcpNet::fire_due_timers() {
  std::vector<Timer> due;
  {
    sync::MutexLock lock(timer_mu_);
    while (!timers_.empty() && timers_.front().due_ms <= now()) {
      std::pop_heap(timers_.begin(), timers_.end(), timer_later);
      due.push_back(std::move(timers_.back()));
      timers_.pop_back();
    }
  }
  const double fired_at = due.empty() ? 0 : now();
  for (auto& t : due) {
    stats_->timers_fired.fetch_add(1, std::memory_order_relaxed);
    // How late the heap ran this timer: epoll wakeup slop + io-loop load.
    if (timer_delay_ms_)
      timer_delay_ms_->record(std::max(0.0, fired_at - t.due_ms));
    dispatch(t.node, std::move(t.fn));
  }
}

void TcpNet::io_loop() {
  std::array<epoll_event, 64> events;
  // Busy time per iteration: everything between an epoll_wait returning
  // and the next one starting.  Rising percentiles here mean the single
  // io thread is becoming the bottleneck (the histogram ROADMAP item 5's
  // load generator watches).
  double busy_since = -1;
  while (!stopping_.load(std::memory_order_acquire)) {
    for (auto& ep : endpoints_) {
      if (ep->resume_request.exchange(false, std::memory_order_acq_rel) &&
          ep->paused.load(std::memory_order_acquire))
        resume_reads(*ep);
    }
    service_dirty_conns();
    fire_due_timers();
    const int timeout = timeout_to_next_timer_ms();
    if (io_busy_ms_ && busy_since >= 0)
      io_busy_ms_->record(now() - busy_since);
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    busy_since = io_busy_ms_ ? now() : -1;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] auto r = ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (auto it = listen_fds_.find(fd); it != listen_fds_.end()) {
        on_accept(*it->second);
        continue;
      }
      if (auto it = out_fds_.find(fd); it != out_fds_.end()) {
        OutConn& conn = *it->second;
        if (ev & (EPOLLERR | EPOLLHUP)) {
          conn_failed(conn, conn.state == OutConn::State::kEstablished);
          continue;
        }
        if (conn.state == OutConn::State::kConnecting && (ev & EPOLLOUT)) {
          on_connect_writable(conn);
          continue;
        }
        if (conn.state == OutConn::State::kEstablished) {
          if (ev & EPOLLIN) {
            // The protocol is one-way per connection; data only ever
            // appears here as an EOF/reset indicator.
            std::uint8_t sink[256];
            const ssize_t r = ::recv(conn.fd, sink, sizeof(sink), 0);
            if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
              conn_failed(conn, true);
              continue;
            }
          }
          if (ev & EPOLLOUT) flush_writes(conn);
        }
        continue;
      }
      if (auto it = in_fds_.find(fd); it != in_fds_.end()) {
        InConn& conn = *it->second;
        if (ev & (EPOLLERR | EPOLLHUP)) {
          close_in_conn(conn);
          continue;
        }
        if (ev & EPOLLIN) on_readable(conn);
        continue;
      }
      // Stale event for an fd closed earlier in this batch: ignore.
    }
  }
  close_all_io();
}

void TcpNet::service_dirty_conns() {
  std::vector<OutConn*> dirty;
  std::vector<std::pair<NodeId, bool>> downs;
  {
    sync::MutexLock lock(mu_);
    dirty.swap(dirty_);
    for (OutConn* c : dirty) c->dirty = false;
    downs.swap(down_requests_);
  }
  for (const auto& [node, down] : downs) apply_down(node, down);
  for (OutConn* c : dirty) {
    switch (c->state) {
      case OutConn::State::kIdle:
        try_dial(*c);
        break;
      case OutConn::State::kEstablished:
        flush_writes(*c);
        break;
      case OutConn::State::kConnecting:
        break;  // conn_established flushes the queue
    }
  }
}

void TcpNet::try_dial(OutConn& conn) {
  {
    sync::MutexLock lock(mu_);
    if (conn.queue.empty() && conn.io_buf.empty()) return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    conn_failed(conn, false);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(endpoints_[conn.to]->port);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    conn.fd = fd;
    conn.state = OutConn::State::kConnecting;
    out_fds_[fd] = &conn;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (rc == 0) conn_established(conn);
    return;
  }
  ::close(fd);
  conn_failed(conn, false);
}

void TcpNet::on_connect_writable(OutConn& conn) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    conn_failed(conn, false);
    return;
  }
  conn_established(conn);
}

void TcpNet::conn_established(OutConn& conn) {
  conn.state = OutConn::State::kEstablished;
  conn.want_write = false;
  stats_->connects.fetch_add(1, std::memory_order_relaxed);
  flight_note("net.connect",
              std::to_string(conn.from) + "->" + std::to_string(conn.to));
  epoll_event ev{};
  ev.events = EPOLLIN;  // EOF watch; flush_writes arms EPOLLOUT as needed
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  flush_writes(conn);
}

void TcpNet::conn_failed(OutConn& conn, bool was_established) {
  if (was_established) {
    stats_->disconnects.fetch_add(1, std::memory_order_relaxed);
    flight_note("net.disconnect",
                std::to_string(conn.from) + "->" + std::to_string(conn.to));
  } else {
    stats_->connect_failures.fetch_add(1, std::memory_order_relaxed);
  }
  drop_conn(conn);
}

void TcpNet::drop_conn(OutConn& conn) {
  if (conn.fd >= 0) {
    out_fds_.erase(conn.fd);
    ::close(conn.fd);
    conn.fd = -1;
  }
  // A partial frame may have left with the old socket; the rest of the
  // staging buffer is unframeable garbage to a fresh connection.
  conn.io_buf.clear();
  conn.io_off = 0;
  conn.want_write = false;
  conn.state = OutConn::State::kIdle;
  // The transport never retries: shed the queue (the actors' retry loop
  // owns end-to-end delivery), and the next send() dials afresh.
  std::size_t flushed = 0;
  std::size_t flushed_bytes = 0;
  {
    sync::MutexLock lock(mu_);
    flushed = conn.queue.size();
    flushed_bytes = conn.queued_bytes;
    conn.queue.clear();
    conn.queued_bytes = 0;
    if (conn.queue_gauge) conn.queue_gauge->set(0);
  }
  if (flushed == 0) return;
  stats_->queued_bytes_now.fetch_sub(flushed_bytes, std::memory_order_relaxed);
  if (queued_bytes_gauge_)
    queued_bytes_gauge_->set(static_cast<double>(
        stats_->queued_bytes_now.load(std::memory_order_relaxed)));
  stats_->dropped_on_disconnect.fetch_add(flushed, std::memory_order_relaxed);
  flight_note("net.queue_shed", std::to_string(conn.from) + "->" +
                                    std::to_string(conn.to) +
                                    " frames=" + std::to_string(flushed));
}

void TcpNet::flush_writes(OutConn& conn) {
  for (;;) {
    if (conn.io_off == conn.io_buf.size()) {
      conn.io_buf.clear();
      conn.io_off = 0;
      std::size_t moved = 0;
      {
        sync::MutexLock lock(mu_);
        while (!conn.queue.empty() && conn.io_buf.size() < kWriteChunk) {
          auto& frame = conn.queue.front();
          conn.io_buf.insert(conn.io_buf.end(), frame.begin(), frame.end());
          conn.queued_bytes -= frame.size();
          moved += frame.size();
          conn.queue.pop_front();
        }
        if (moved > 0 && conn.queue_gauge)
          conn.queue_gauge->set(static_cast<double>(conn.queued_bytes));
      }
      if (moved > 0) {
        stats_->queued_bytes_now.fetch_sub(moved, std::memory_order_relaxed);
        if (queued_bytes_gauge_)
          queued_bytes_gauge_->set(static_cast<double>(
              stats_->queued_bytes_now.load(std::memory_order_relaxed)));
      }
    }
    if (conn.io_buf.empty()) {
      if (conn.want_write) {
        conn.want_write = false;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn.fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return;
    }
    const ssize_t n =
        ::send(conn.fd, conn.io_buf.data() + conn.io_off,
               conn.io_buf.size() - conn.io_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.io_off += static_cast<std::size_t>(n);
      stats_->bytes_sent.fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn.fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    conn_failed(conn, true);
    return;
  }
}

void TcpNet::on_accept(Endpoint& ep) {
  for (;;) {
    const int fd =
        ::accept4(ep.listen_fd, nullptr, nullptr,
                  SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient: back to epoll
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn =
        std::make_unique<InConn>(fd, ep.id, options_.max_frame_bytes);
    epoll_event ev{};
    ev.data.fd = fd;
    if (ep.paused.load(std::memory_order_acquire)) {
      conn->paused = true;
      ev.events = 0;  // registered but muted until the strand drains
    } else {
      ev.events = EPOLLIN;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    in_fds_[fd] = std::move(conn);
  }
}

void TcpNet::on_readable(InConn& conn) {
  Endpoint& ep = *endpoints_[conn.dst];
  if (ep.depth.load(std::memory_order_acquire) >
      options_.mailbox_high_watermark) {
    pause_reads(ep);
    return;
  }
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf.data(), buf.size(), 0);
    if (n == 0) {
      close_in_conn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_in_conn(conn);
      return;
    }
    stats_->bytes_received.fetch_add(static_cast<std::uint64_t>(n),
                                     std::memory_order_relaxed);
    try {
      conn.decoder.feed(
          std::span<const std::uint8_t>(buf.data(),
                                        static_cast<std::size_t>(n)));
    } catch (const wire::DecodeError&) {
      stats_->decode_errors.fetch_add(1, std::memory_order_relaxed);
      flight_note("net.decode_error", "node=" + std::to_string(conn.dst));
      close_in_conn(conn);
      return;
    }
    while (auto frame = conn.decoder.next_frame()) {
      Message msg;
      try {
        msg = decode_envelope(frame->payload);
      } catch (const wire::DecodeError&) {
        stats_->decode_errors.fetch_add(1, std::memory_order_relaxed);
        flight_note("net.decode_error", "node=" + std::to_string(conn.dst));
        close_in_conn(conn);
        return;
      }
      // Restore the trace context the sender put on the wire, so the
      // handler's server span lands in the sender's trace.
      msg.trace.trace = frame->trace.trace;
      msg.trace.span = frame->trace.span;
      if (msg.to != conn.dst || msg.from >= endpoints_.size()) {
        // Envelope decoded but addressed nonsense: hostile or confused
        // peer.  Drop the message, keep the connection.
        stats_->decode_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats_->messages_received.fetch_add(1, std::memory_order_relaxed);
      simnet::Node* node = ep.node;
      dispatch(conn.dst,
               [node, m = std::move(msg)] { node->on_message(m); });
    }
    if (ep.depth.load(std::memory_order_acquire) >
        options_.mailbox_high_watermark) {
      pause_reads(ep);
      return;
    }
  }
}

void TcpNet::close_in_conn(InConn& conn) {
  const int fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  in_fds_.erase(fd);  // destroys conn — do not touch it past this line
}

void TcpNet::pause_reads(Endpoint& ep) {
  ep.paused.store(true, std::memory_order_release);
  stats_->reads_paused.fetch_add(1, std::memory_order_relaxed);
  flight_note("net.reads_paused", "node=" + std::to_string(ep.id));
  for (auto& [fd, conn] : in_fds_) {
    if (conn->dst != ep.id || conn->paused) continue;
    conn->paused = true;
    epoll_event ev{};
    ev.events = 0;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
  // The strand may have drained between our depth check and the pause
  // flag becoming visible; re-check so the resume request cannot be lost.
  if (ep.depth.load(std::memory_order_acquire) <=
      options_.mailbox_low_watermark)
    resume_reads(ep);
}

void TcpNet::resume_reads(Endpoint& ep) {
  ep.paused.store(false, std::memory_order_release);
  for (auto& [fd, conn] : in_fds_) {
    if (conn->dst != ep.id || !conn->paused) continue;
    conn->paused = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void TcpNet::apply_down(NodeId node, bool down) {
  if (node >= endpoints_.size()) return;
  Endpoint& ep = *endpoints_[node];
  if (down == ep.down_io) return;
  ep.down_io = down;
  flight_note(down ? "net.node_down" : "net.node_up",
              "node=" + std::to_string(node));
  if (down) {
    if (ep.listen_fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ep.listen_fd, nullptr);
      listen_fds_.erase(ep.listen_fd);
      ::close(ep.listen_fd);
      ep.listen_fd = -1;
    }
    for (auto it = in_fds_.begin(); it != in_fds_.end();) {
      if (it->second->dst == node) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->first, nullptr);
        ::close(it->first);
        it = in_fds_.erase(it);
      } else {
        ++it;
      }
    }
    std::vector<OutConn*> touching;
    {
      sync::MutexLock lock(mu_);
      for (auto& [key, conn] : conns_)
        if (key.first == node || key.second == node) touching.push_back(
            conn.get());
    }
    for (OutConn* conn : touching) {
      if (conn->from == node) {
        drop_conn(*conn);  // the "crashed" endpoint loses socket and queue
      } else if (conn->state != OutConn::State::kIdle) {
        // Peers talking to the crashed node: sever now, so their next
        // send dials afresh instead of waiting for a kernel timeout.
        conn_failed(*conn, conn->state == OutConn::State::kEstablished);
      }
    }
  } else {
    try {
      open_listener(ep);
    } catch (const std::runtime_error&) {
      // Port momentarily unavailable: stay down; a later set_down(false)
      // can retry.  (SO_REUSEADDR makes this effectively unreachable.)
      ep.down_io = true;
    }
  }
}

void TcpNet::close_all_io() {
  for (auto& [fd, ep] : listen_fds_) {
    ::close(fd);
    ep->listen_fd = -1;
  }
  listen_fds_.clear();
  for (auto& [fd, conn] : in_fds_) ::close(fd);
  in_fds_.clear();
  std::vector<OutConn*> all;
  {
    sync::MutexLock lock(mu_);
    for (auto& [key, conn] : conns_) all.push_back(conn.get());
  }
  for (OutConn* conn : all) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    conn->state = OutConn::State::kIdle;
  }
  out_fds_.clear();
}

}  // namespace p2pcash::transport
