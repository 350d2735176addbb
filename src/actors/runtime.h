// runtime.h — a real multithreaded node deployment over TCP.
//
// The same Assembly as SimWorld (world.h) — broker, merchant machines
// (storefront + witness), clients, witness table published to everyone —
// hosted on transport::TcpNet, so every protocol message crosses a real
// loopback TCP connection and every actor runs on a worker-pool strand.
// This is the harness the scalability bench drives for true payments/sec:
// with W worker threads, W payments can be in distinct actors' handlers
// simultaneously.  What the runtime adds around the Assembly is TcpNet
// and the obs stack (tracer, registry, flight recorder, scrape server).
//
// Differences from SimWorld, all forced by realness:
//   * Time is wall-clock milliseconds (the transport's clock), so runs
//     are NOT seed-reproducible; determinism tests stay on SimWorld.
//   * The default CostModel is free_cost(): real crypto already costs
//     real time, and the simulated-cost model would just add sleeps.
//   * Journaling is opt-in (Options::durable_stores), and there is no
//     FaultPlan: crash/restart is modeled at the transport
//     (TcpNet::set_down) — reconnection is the thing under test.
//
// This header is det_lint-scoped (src/actors): it reads no clock and no
// entropy of its own; all time flows through the Transport.

#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "actors/assembly.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/obs_server.h"
#include "obs/trace.h"
#include "store/vfs.h"
#include "transport/tcp_net.h"

namespace p2pcash::actors {

class NodeRuntime {
 public:
  struct Options {
    std::size_t merchants = 4;
    /// Strand-executor threads in the transport's worker pool.
    std::size_t worker_threads = 2;
    std::uint64_t seed = 1;
    /// Compute-cost model charged by actors before replies.  Defaults to
    /// free: the OpenSSL bignum work is real here.
    simnet::CostModel cost = simnet::free_cost();
    ecash::Broker::Config broker;
    ecash::Cents security_deposit = 10'000;
    /// Actor-level RPC retry discipline (timers on the wall clock now).
    RetryPolicy retry;
    PeerHealth::Config breaker;
    /// Transport knobs (queue caps, reconnect pacing, frame limit).
    /// worker_threads and seed above override the ones in here, and the
    /// runtime's own registry/tracer/flight-recorder are always wired in.
    transport::TcpNet::Options net;

    /// Trace ring capacity (spans + events retained for /tracez).
    std::size_t trace_capacity = 1 << 16;
    /// Flight-recorder ring capacity (crash breadcrumbs).
    std::size_t flight_capacity = 1024;
    /// Where the flight recorder dumps on abort/SIGUSR1.  Empty = stderr.
    /// Set explicitly by the host — this runtime reads no environment
    /// (src/actors is determinism-scoped; getenv is banned here).
    std::string flight_artifact;
    /// Durable mode: broker and every witness journal coin state into
    /// append-only logs (store::LogStore over an in-process MemVfs), with
    /// group-commit fsync latency exported through the runtime registry
    /// as store_* histograms — the journals SimWorld always keeps, here
    /// exercised under real concurrency.
    bool durable_stores = false;
  };

  explicit NodeRuntime(const group::SchnorrGroup& grp, Options options);
  ~NodeRuntime();  // stop()s
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  transport::TcpNet& net() { return *net_; }
  ecash::Broker& broker() { return nodes_->broker(); }
  const Directory& directory() const { return nodes_->directory(); }

  // -- observability -------------------------------------------------------
  // The runtime owns the full obs stack: a wall-clock Tracer whose spans
  // stitch across nodes via the wire trace envelope, a MetricsRegistry
  // fed by the transport/pool/store instrumentation, and an always-on
  // FlightRecorder of recent transport breadcrumbs.

  obs::MetricsRegistry& metrics() { return registry_; }
  const obs::MetricsRegistry& metrics() const { return registry_; }
  obs::TraceSink& trace_sink() { return sink_; }
  obs::Tracer& tracer() { return tracer_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }

  /// Starts the HTTP scrape endpoint (127.0.0.1, `port` or ephemeral when
  /// 0) serving /metrics, /healthz, /tracez, /flightz from this runtime.
  /// Returns the bound port (0 on failure).  Idempotent.
  std::uint16_t start_obs_server(std::uint16_t port = 0);
  void stop_obs_server();
  obs::ObsServer& obs_server() { return obs_server_; }

  std::vector<MerchantId> merchant_ids() const {
    return nodes_->merchant_ids();
  }
  MerchantActor& merchant_actor(const MerchantId& id) {
    return nodes_->merchant_actor(id);
  }
  NodeId merchant_node(const MerchantId& id) const {
    return nodes_->merchant_node(id);
  }

  /// Creates a client endpoint.  Only legal before start() (the TCP
  /// transport fixes its endpoint set when the io loop spawns).
  ClientActor& add_client() { return nodes_->add_client(); }

  /// Starts the io loop and worker pool; actors begin receiving.
  void start();
  /// Stops the transport.  Actors stay alive for post-mortem inspection.
  void stop();

  /// Takes a merchant machine down / up at the transport (listener closed,
  /// connections severed — senders enter the reconnect path).
  void set_merchant_down(const MerchantId& id, bool down);

  // -- blocking drivers ----------------------------------------------------
  // Callable from any external thread (NOT from an actor strand: they
  // block on a future the strand must fulfil).  The operation is posted
  // onto the client's strand, honoring the transport's serialization
  // contract.

  /// Withdraws one coin, waiting up to the actor-level deadline.
  ecash::Outcome<ecash::WalletCoin> withdraw(ClientActor& client,
                                             Cents denomination,
                                             SimTime deadline_ms = 30'000);

  /// Runs one full payment, waiting for the actor-level outcome.
  ClientActor::PayResult pay(ClientActor& client,
                             const ecash::WalletCoin& coin,
                             const MerchantId& merchant,
                             SimTime timeout_ms = 30'000);

  /// Sum of the resilience counters across all clients and merchants.
  /// Call only while the transport is stopped (or quiescent).
  metrics::ResilienceCounters resilience_totals() const {
    return nodes_->resilience_totals();
  }

 private:
  group::SchnorrGroup grp_;
  Options options_;

  // Obs stack FIRST: the transport and stores borrow pointers into it, so
  // it must outlive them (declaration order = construction order; reverse
  // destruction tears the borrowers down before the lenders).
  obs::MetricsRegistry registry_;
  obs::TraceSink sink_;
  obs::WallClock wall_clock_;
  obs::FlightRecorder flight_;
  obs::Tracer tracer_;

  store::MemVfs store_vfs_;  ///< durable mode only (internally locked)

  std::unique_ptr<transport::TcpNet> net_;
  std::unique_ptr<Assembly> nodes_;

  // LAST: destroyed first, so a live scrape can never observe a
  // half-torn-down runtime.
  obs::ObsServer obs_server_;
};

}  // namespace p2pcash::actors
