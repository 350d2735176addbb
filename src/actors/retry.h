// retry.h — retry policy and per-peer circuit breaker for the resilient
// RPC layer.
//
// The actors speak UDP-like request/response over simnet: a silent peer is
// indistinguishable from a lost message, so every payment-critical RPC
// (withdraw.start and withdraw.challenge when the withdrawal has a
// deadline, commitment request, transcript hand-off, deposit submission)
// is wrapped in the same discipline: a per-attempt timeout, exponential
// backoff with decorrelated jitter between resends, a cap on attempts per
// peer, and a per-peer circuit breaker so a dead witness stops eating
// attempts while its replicas carry the payment.  One loop runs it for all
// of them (ProtocolActor::retry_on_silence in actors.h); each caller only
// says what silence and a spent budget mean for its request.  All
// randomness comes from the caller's bn::Rng, keeping chaos runs
// seed-reproducible.
//
// Observability: the actors annotate every retry, failover, timeout,
// breaker trip and witness skipped for an open breaker onto the enclosing
// span (rpc.retry, rpc.failover, rpc.silence, rpc.exhausted, breaker.trip,
// breaker.skip — see src/obs/trace.h), so a trace shows exactly which
// resilience machinery fired and when.

#pragma once

#include <cstdint>
#include <map>

#include "bn/rng.h"
#include "simnet/models.h"
#include "simnet/sim.h"
#include "sync/annotated.h"

namespace p2pcash::actors {

/// Knobs for one retried RPC.  Defaults are tuned so a fault-free run is
/// byte-for-byte identical to the retry-free protocol (the first attempt is
/// the protocol message; timers only ever fire as no-ops).
struct RetryPolicy {
  /// Silence window before a resend / failover is considered.
  simnet::SimTime attempt_timeout_ms = 4'000;
  /// Decorrelated-jitter backoff: next = min(cap, uniform(base, 3 * prev)).
  simnet::SimTime backoff_base_ms = 250;
  simnet::SimTime backoff_cap_ms = 8'000;
  /// Sends per peer (including the first) before giving up on it.
  std::size_t max_attempts = 4;

  /// Samples the next backoff delay given the previous one (0 on the first
  /// retry).  Decorrelated jitter (min(cap, uniform(base, 3*prev))) spreads
  /// retry storms instead of synchronizing them.
  simnet::SimTime next_backoff(simnet::SimTime prev_ms, bn::Rng& rng) const;
};

/// One retried request's progress through its RetryPolicy.
struct Attempts {
  std::size_t sent = 0;               ///< sends so far, the first included
  simnet::SimTime prev_backoff = 0;   ///< last backoff drawn (0: none yet)
};

/// Per-peer consecutive-failure circuit breaker.
///
/// closed --(failure_threshold consecutive failures)--> open
/// open   --(open_ms elapsed)--> half-open: allow() admits ONE probe
/// half-open --success--> closed;  --failure--> open again (re-trip)
///
/// Any success fully closes the breaker and resets the failure count.
///
/// Internally locked: breaker state is check-then-update (allow() admits
/// exactly one half-open probe), so concurrent RPC completions must not
/// interleave inside a transition.
class PeerHealth {
 public:
  struct Config {
    std::size_t failure_threshold = 3;  ///< consecutive failures to trip
    simnet::SimTime open_ms = 10'000;   ///< how long the breaker stays open
  };

  PeerHealth() = default;
  explicit PeerHealth(Config config) : config_(config) {}

  /// True if a request to `peer` may be sent now.  While open, admits a
  /// single half-open probe once open_ms has elapsed.
  bool allow(simnet::NodeId peer, simnet::SimTime now);

  void record_success(simnet::NodeId peer);
  /// Records a failure; returns true iff this transition tripped the
  /// breaker (closed -> open, or a failed half-open probe re-opening it).
  bool record_failure(simnet::NodeId peer, simnet::SimTime now);

  bool is_open(simnet::NodeId peer, simnet::SimTime now) const;
  std::uint64_t trips() const {
    sync::MutexLock lock(mu_);
    return trips_;
  }

 private:
  struct State {
    std::size_t consecutive_failures = 0;
    bool open = false;
    bool probing = false;  ///< half-open probe in flight
    simnet::SimTime open_until = 0;
  };

  mutable sync::Mutex mu_{"actors.peer_health", sync::level::kActors};
  Config config_ P2P_GUARDED_BY(mu_);
  std::map<simnet::NodeId, State> peers_ P2P_GUARDED_BY(mu_);
  std::uint64_t trips_ P2P_GUARDED_BY(mu_) = 0;
};

}  // namespace p2pcash::actors
