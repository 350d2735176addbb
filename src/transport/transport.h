// transport.h — the seam between protocol actors and the network.
//
// The actors in src/actors speak a UDP-like typed-message discipline:
// fire-and-forget send, per-RPC timers, loss handled by retry/failover.
// This interface captures exactly the services they consume, so the same
// BrokerActor/MerchantActor/ClientActor code runs over
//
//   (a) SimnetTransport (simnet_transport.h) — a zero-cost shim over the
//       deterministic simnet::Network.  Every call forwards verbatim to
//       the simulator, so a seeded run (chaos schedule and trace
//       included) replays exactly; and
//   (b) TcpNet (tcp_net.h) — a real epoll-based TCP io-loop with
//       length-prefixed framing, per-peer outbound queues, dial-on-send,
//       and a worker-thread pool delivering messages on per-endpoint
//       strands — real payments/sec on real cores.
//
// Contract every implementation must honor (the actors are written
// against it):
//   * send() is fire-and-forget and may silently lose messages — like UDP
//     to a dead host.  No implementation retries underneath: the actors'
//     one retry loop supplies reliability, and its resends are the only
//     redials a down peer sees.
//   * All callbacks for one endpoint — on_message deliveries, timers from
//     schedule_on(), tasks from post() — are mutually serialized (a
//     "strand").  Actor state therefore needs no locking of its own.
//     Nothing is serialized *across* endpoints: two different actors may
//     run concurrently, which is where the multicore throughput comes
//     from on the TCP implementation.
//   * now() is milliseconds on the transport's clock (virtual sim-time or
//     wall-clock since start); timers from schedule_on() fire on it.
//   * rng(node) returns a generator only ever touched from `node`'s
//     strand (the simnet implementation returns the network's shared
//     stream — safe there because the whole simulation is one thread, and
//     it keeps every draw in one seeded sequence).
//   * run_checks() runs a handler's independent, side-effect-free checks
//     and returns the index of the first failing one in list order.  The
//     default, which the simnet implementation keeps, runs them inline,
//     in order, stopping at the first failure (so a seeded run replays
//     exactly); TcpNet overlaps them on its worker pool, the calling
//     strand taking part.

#pragma once

#include <functional>
#include <span>

#include "bn/rng.h"
#include "obs/trace.h"
#include "simnet/net.h"

namespace p2pcash::transport {

using simnet::Message;
using simnet::NodeId;
using simnet::SimTime;

class Transport {
 public:
  virtual ~Transport();

  /// Registers an endpoint and assigns its NodeId.  Implementations may
  /// restrict when this is legal (TcpNet: only before start()).
  virtual NodeId attach(simnet::Node& node) = 0;

  /// Sends msg.from -> msg.to.  Fire-and-forget; may drop.
  virtual void send(Message msg) = 0;

  /// Current time in milliseconds on this transport's clock.
  virtual SimTime now() const = 0;

  /// Runs `fn` on `node`'s strand after `delay_ms` (>= 0).
  virtual void schedule_on(NodeId node, SimTime delay_ms,
                           std::function<void()> fn) = 0;

  /// Runs `fn` on `node`'s strand as soon as possible.  This is how code
  /// *outside* an actor (benches, runtime drivers) safely calls into it.
  virtual void post(NodeId node, std::function<void()> fn) = 0;

  /// RNG for `node`'s strand (retry jitter, cost sampling).
  virtual bn::Rng& rng(NodeId node) = 0;

  /// The tracer observing this transport, or nullptr when tracing is off.
  virtual obs::Tracer* tracer() const = 0;

  /// Runs `checks` (each returns true on success; none may touch strand
  /// state) and returns the index of the first failing one in list order,
  /// or checks.size().  Checks after the first failure may or may not run;
  /// every check started has finished when this returns.  Call with no
  /// lock held.  This default runs each check in order on the calling
  /// thread, stopping at the first failure.
  virtual std::size_t run_checks(
      std::span<const std::function<bool()>> checks);
};

}  // namespace p2pcash::transport
