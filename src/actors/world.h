// world.h — a complete simulated deployment: the Assembly's broker,
// merchant and client nodes on one simnet Network.  The construction
// mirrors the paper's PlanetLab setup: every party on a different WAN host.
//
// The world owns a FaultPlan wired to each node's crash-recovery hooks.
// Broker and witnesses always journal into LogStores on an in-memory Vfs,
// so a crash is a real log tear: the hook cuts the victim's log at a
// seed-chosen unsynced byte (kill-at-any-byte), and restart reopens it —
// truncate the torn tail, restore the checkpoint, replay the deltas.  A
// merchant restart also drops the storefront's half-done payments and
// resets the actor's volatile RPC state.

#pragma once

#include <memory>
#include <vector>

#include "actors/assembly.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "simnet/fault.h"
#include "simnet/sim.h"
#include "store/vfs.h"
#include "transport/simnet_transport.h"

namespace p2pcash::actors {

class SimWorld {
 public:
  struct Options {
    std::size_t merchants = 8;
    std::uint64_t seed = 1;
    simnet::CostModel cost = simnet::openssl_cost();
    simnet::WireFormat wire = simnet::WireFormat::kBinary;
    /// One-way latency bounds in ms (the paper's WAN: 25–50).
    simnet::SimTime latency_lo = 25.0;
    simnet::SimTime latency_hi = 50.0;
    ecash::Broker::Config broker;
    ecash::Cents security_deposit = 10'000;
    /// RPC retry discipline applied to every client and merchant actor.
    RetryPolicy retry;
    /// Circuit-breaker configuration applied to every client.
    PeerHealth::Config breaker;
    /// When true, a Tracer is attached to the network before any node
    /// exists, so every protocol phase of every payment is spanned.  The
    /// trace layer consumes no RNG and adds no wire bytes: enabling it
    /// cannot perturb a chaos schedule or the Table-2 byte accounting.
    bool trace = false;
    /// Ring-buffer capacity of the trace sink (records, spans + events).
    std::size_t trace_capacity = std::size_t{1} << 16;
  };

  explicit SimWorld(const group::SchnorrGroup& grp, Options options);

  simnet::Simulator& sim() { return sim_; }
  simnet::Network& net() { return *net_; }
  transport::Transport& transport() { return *shim_; }
  ecash::Broker& broker() { return nodes_->broker(); }
  const Directory& directory() const { return nodes_->directory(); }
  const group::SchnorrGroup& grp() const { return grp_; }

  std::vector<MerchantId> merchant_ids() const {
    return nodes_->merchant_ids();
  }
  MerchantActor& merchant_actor(const MerchantId& id) {
    return nodes_->merchant_actor(id);
  }
  ecash::Merchant& merchant(const MerchantId& id) {
    return merchant_actor(id).merchant();
  }
  ecash::WitnessService& witness(const MerchantId& id) {
    return merchant_actor(id).witness();
  }
  NodeId merchant_node(const MerchantId& id) const {
    return nodes_->merchant_node(id);
  }

  /// Creates a client node (its own RNG stream derived from the seed).
  ClientActor& add_client() { return nodes_->add_client(); }

  /// Takes a merchant machine down / up (storefront and witness together).
  void set_merchant_down(const MerchantId& id, bool down);

  /// The chaos engine, with crash-recovery hooks for every protocol node
  /// already registered (see the header comment).
  simnet::FaultPlan& faults() { return *faults_; }

  /// Convenience wrappers over faults(): crash with recovery semantics.
  void crash_merchant(const MerchantId& id, simnet::SimTime at,
                      simnet::SimTime restart_at);
  void crash_broker(simnet::SimTime at, simnet::SimTime restart_at);

  /// Every attached node id (broker, merchants, clients created so far).
  std::vector<NodeId> all_nodes() const { return nodes_->all_nodes(); }

  /// Sum of the resilience counters across all clients and merchant actors.
  metrics::ResilienceCounters resilience_totals() const {
    return nodes_->resilience_totals();
  }

  /// The world's metrics registry.  Collectors for the resilience totals,
  /// the thread's op totals, simulator progress and per-world network
  /// traffic are pre-registered; benches add their own histograms.
  obs::MetricsRegistry& metrics() { return registry_; }
  /// The trace sink (empty unless tracing is enabled).
  obs::TraceSink& trace_sink() { return sink_; }
  /// The tracer, or nullptr when tracing is off.
  obs::Tracer* tracer() { return trace_on_ ? tracer_.get() : nullptr; }
  /// Turns span/event recording on or off at runtime (Options.trace sets
  /// the initial state).  Existing records are kept.
  void set_tracing(bool on);
  bool tracing() const { return trace_on_; }

  /// The Vfs holding every node's log.  Exposed so tests can inspect or
  /// corrupt log bytes; file names are ecash::Deployment::kBrokerLog and
  /// ecash::Deployment::witness_log_name(id).
  store::MemVfs& store_vfs() { return store_vfs_; }

 private:
  void register_collectors();

  group::SchnorrGroup grp_;
  Options options_;
  simnet::Simulator sim_;
  obs::MetricsRegistry registry_;
  obs::TraceSink sink_;
  std::unique_ptr<obs::Tracer> tracer_;
  bool trace_on_ = false;
  /// The network's stream: latency and drop sampling, every actor's
  /// rng(), and the crash hooks' tear points.
  crypto::ChaChaRng rng_;
  std::unique_ptr<simnet::Network> net_;
  /// The deterministic Transport the actors speak through: a verbatim
  /// forwarding shim over net_.
  std::unique_ptr<transport::SimnetTransport> shim_;
  /// Every node's log.  Declared before the nodes that journal into it.
  store::MemVfs store_vfs_;
  std::unique_ptr<Assembly> nodes_;
  std::unique_ptr<simnet::FaultPlan> faults_;
};

}  // namespace p2pcash::actors
