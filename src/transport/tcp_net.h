// tcp_net.h — the real Transport: an epoll TCP io-loop plus a worker pool.
//
// One TcpNet hosts many endpoints (broker, merchants, clients) in one
// process, each with its own loopback listen socket; every message between
// them crosses a real kernel TCP connection with length-prefixed framing
// (src/wire/framing).  The paper's evaluation assumes genuinely concurrent
// peers — this is the piece that lets the same actor code exhibit real
// multicore payments/sec instead of simulated milliseconds.
//
// Threading model (see DESIGN.md "Transport architecture"):
//   * ONE io thread owns every file descriptor: epoll, nonblocking
//     accept/connect, socket reads/writes, and the timer heap deadline.
//     No other thread touches an fd.
//   * A verify::WorkerPool of `worker_threads` executes endpoint strands:
//     decoded messages, fired timers and post()ed tasks for one endpoint
//     run strictly serialized, so actor handlers need no locks of their
//     own; different endpoints run concurrently.
//   * send() may be called from any thread: it frames the message and
//     appends it to the (from,to) connection's outbound queue, then wakes
//     the io thread via eventfd.
//   * run_checks() forks a handler's independent checks onto the same
//     pool and joins caller-runs: the strand thread runs every check no
//     idle worker has claimed, so it never waits on queued work.
//
// Reliability model is deliberately UDP-like, matching what the actors'
// retry/failover discipline was built for: a send may be silently lost
// when the peer is down, the queue cap is hit, or a connection dies with
// bytes in flight.  The transport never retries: a failed dial or a lost
// connection closes the socket and drops that connection's queued frames
// (dropped_on_disconnect), and the next send() to the peer dials again at
// once.  Backoff, attempt budgets and breakers live only in the actors,
// whose resends therefore also pace the redials.
//
// Backpressure, both directions:
//   * outbound: each directed connection carries at most
//     `peer_queue_limit_bytes` of queued frames; sends past the cap are
//     dropped and counted (backpressure_drops).  A socket that stops
//     accepting bytes (slow peer) therefore cannot grow our memory.
//   * inbound: when an endpoint's strand mailbox exceeds
//     `mailbox_high_watermark` tasks, the io thread stops reading that
//     endpoint's sockets (EPOLLIN unsubscribed) until the strand drains
//     below `mailbox_low_watermark` — the kernel receive window then
//     fills and the *sender's* queue takes the pressure, end to end.
//
// Linux-only (epoll + eventfd), like the rest of the accelerated path.

#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "sync/annotated.h"
#include "transport/transport.h"
#include "verify/worker_pool.h"
#include "wire/framing.h"

namespace p2pcash::obs {
class FlightRecorder;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace p2pcash::obs

namespace p2pcash::transport {

/// Canonical envelope bytes for one Message (from, to, type, payload) —
/// what actually travels inside a frame.  Exposed for tests.
std::vector<std::uint8_t> encode_envelope(const Message& msg);
/// Inverse; throws wire::DecodeError on malformed input.
Message decode_envelope(std::span<const std::uint8_t> bytes);

class TcpNet final : public Transport {
 public:
  struct Options {
    /// Strand-executor threads (the knob the throughput bench sweeps).
    std::size_t worker_threads = 1;
    /// Seed for the per-endpoint RNG streams that rng() hands the actors
    /// (their retry jitter, cost models); the transport draws none itself.
    std::uint64_t seed = 1;
    std::size_t max_frame_bytes = wire::kDefaultMaxFrameBytes;
    /// Outbound per-connection queue cap; sends past it are dropped.
    std::size_t peer_queue_limit_bytes = std::size_t{4} << 20;
    /// Inbound flow control thresholds (strand mailbox depth, in tasks).
    std::size_t mailbox_high_watermark = 1024;
    std::size_t mailbox_low_watermark = 256;

    /// Observability seams (all optional, all borrowed — each must
    /// outlive the TcpNet; the registry additionally must not be scraped
    /// after the TcpNet is destroyed, since its collector reads TcpNet
    /// state).  With `metrics` set, the io loop, timer heap, strands and
    /// outbound queues export histograms/gauges/counters; with `tracer`
    /// unset, TcpNet owns a wall-clock tracer of its own so tracer() is
    /// never null; `flight` receives connection-lifecycle breadcrumbs.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    obs::FlightRecorder* flight = nullptr;
  };

  /// Transport-level accounting (all monotonic; snapshot via stats()).
  struct Stats {
    std::uint64_t messages_sent = 0;      ///< accepted into an outbound queue
    std::uint64_t bytes_sent = 0;         ///< framed bytes written to sockets
    std::uint64_t messages_received = 0;  ///< decoded and dispatched
    std::uint64_t bytes_received = 0;     ///< raw bytes read from sockets
    std::uint64_t backpressure_drops = 0; ///< outbound queue cap exceeded
    std::uint64_t dropped_on_disconnect = 0;  ///< queued frames lost with a conn
    std::uint64_t connects = 0;           ///< connections established
    std::uint64_t connect_failures = 0;
    std::uint64_t disconnects = 0;        ///< established connections lost
    std::uint64_t decode_errors = 0;      ///< framing/envelope violations
    std::uint64_t reads_paused = 0;       ///< inbound flow-control pauses
    std::uint64_t timers_fired = 0;
  };

  explicit TcpNet(Options options);
  /// Stops the io loop and worker pool; endpoints' Nodes must still be
  /// alive (they are only referenced, never owned).
  ~TcpNet() override;
  TcpNet(const TcpNet&) = delete;
  TcpNet& operator=(const TcpNet&) = delete;

  /// Registers an endpoint: binds a loopback listen socket (ephemeral
  /// port) and assigns the NodeId.  Only legal before start().
  NodeId attach(simnet::Node& node) override;

  /// Spawns the io thread (and, on the first start, the worker pool).
  /// Idempotent.
  void start();
  /// Joins the io thread, runs every scheduled strand to empty, closes
  /// every socket.  The workers stay parked until destruction.  Sends
  /// after stop() are silently dropped; post()s queue until the next
  /// start().  Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  void send(Message msg) override;
  SimTime now() const override;
  void schedule_on(NodeId node, SimTime delay_ms,
                   std::function<void()> fn) override;
  void post(NodeId node, std::function<void()> fn) override;
  bn::Rng& rng(NodeId node) override;
  /// Never null: the injected tracer (Options::tracer) or an owned
  /// wall-clock tracer whose sink can be read via trace_sink().  Traced
  /// sends carry their context in the wire frame's trace envelope, so
  /// spans stitch across nodes over real TCP.
  obs::Tracer* tracer() const override { return tracer_; }
  /// Overlaps the checks on the worker pool, the calling thread taking
  /// part (verify::WorkerPool::run_checks); inline while not running.
  std::size_t run_checks(
      std::span<const std::function<bool()>> checks) override;
  /// The owned tracer's sink; nullptr when a tracer was injected (the
  /// injector owns the sink then).
  obs::TraceSink* trace_sink() const { return owned_sink_.get(); }

  /// The endpoint's loopback listen port (stable across set_down cycles).
  std::uint16_t port(NodeId node) const;
  std::size_t worker_threads() const { return options_.worker_threads; }

  /// Crash-models a peer: down closes its listen socket and severs every
  /// connection touching it (their queued frames are dropped; a sender's
  /// next send() dials again); up re-binds the same port.  Safe to call
  /// while running.
  void set_down(NodeId node, bool down);

  Stats stats() const;

 private:
  struct Endpoint;
  struct OutConn;
  struct InConn;
  struct Timer;
  static bool timer_later(const Timer& a, const Timer& b);

  // -- strand machinery (any thread) --
  void dispatch(NodeId node, std::function<void()> fn);
  void drain_strand(Endpoint& ep);
  void submit_drain(Endpoint& ep);

  // -- observability --
  void setup_observability();  // ctor helper: tracer/metrics/collector
  void flight_note(std::string_view name, std::string_view detail);

  // -- io thread --
  void io_loop();
  void io_wake();
  int timeout_to_next_timer_ms();
  void fire_due_timers();
  void service_dirty_conns();
  void try_dial(OutConn& conn);
  void on_connect_writable(OutConn& conn);
  void conn_established(OutConn& conn);
  void conn_failed(OutConn& conn, bool was_established);
  void drop_conn(OutConn& conn);  // close, shed the queue, back to kIdle
  void flush_writes(OutConn& conn);
  void on_accept(Endpoint& ep);
  void on_readable(InConn& conn);
  void close_in_conn(InConn& conn);
  void apply_down(NodeId node, bool down);
  void pause_reads(Endpoint& ep);
  void resume_reads(Endpoint& ep);
  void open_listener(Endpoint& ep);  // binds (re-binds) ep.port
  void close_all_io();

  Options options_;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::unique_ptr<verify::WorkerPool> pool_;
  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  /// Conn registry + outbound queues + control flags shared between
  /// send() (any thread) and the io thread.
  mutable sync::Mutex mu_{"transport.net", sync::level::kTransport};
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<OutConn>> conns_
      P2P_GUARDED_BY(mu_);
  std::vector<OutConn*> dirty_ P2P_GUARDED_BY(mu_);
  std::vector<std::pair<NodeId, bool>> down_requests_ P2P_GUARDED_BY(mu_);

  /// Timer heap shared between schedule_on (any thread) and the io thread.
  mutable sync::Mutex timer_mu_{"transport.timers",
                                sync::level::kTransportTimer};
  std::vector<Timer> timers_ P2P_GUARDED_BY(timer_mu_);  // min-heap
  std::uint64_t timer_seq_ P2P_GUARDED_BY(timer_mu_) = 0;

  // io-thread-only fd bookkeeping (attach() touches it too, but strictly
  // before the io thread exists).
  std::map<int, Endpoint*> listen_fds_;
  std::map<int, OutConn*> out_fds_;
  std::map<int, std::unique_ptr<InConn>> in_fds_;

  // Stats: relaxed atomics so hot paths never take a lock to count.
  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;

  // Observability.  The owned sink/tracer exist only when no tracer was
  // injected; tracer_ itself is never null after construction.  Histogram
  // pointers are resolved once against the registry (node-based maps:
  // references are stable) and read lock-free on the hot paths.
  std::unique_ptr<obs::TraceSink> owned_sink_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* io_busy_ms_ = nullptr;     ///< epoll loop busy time
  obs::Histogram* timer_delay_ms_ = nullptr; ///< timer-heap firing lag
  obs::Histogram* strand_batch_ = nullptr;   ///< tasks per strand drain
  obs::Gauge* queued_bytes_gauge_ = nullptr; ///< total outbound backlog
};

}  // namespace p2pcash::transport
