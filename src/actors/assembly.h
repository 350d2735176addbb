// assembly.h — a deployment's protocol nodes as actors on a transport.
//
// An Assembly holds the ecash::Deployment (deployment.h: broker, merchant
// machines, their RNG streams and logs — the one recipe) and hosts it on
// any transport::Transport: a BrokerActor, one MerchantActor per merchant
// machine (storefront and witness behind one node), the Directory and the
// clients.  SimWorld (world.h) hosts one on the simulator, NodeRuntime
// (runtime.h) on TcpNet; neither host wires a node itself.
//
// Durability: given a Vfs, the Deployment journals every service there;
// restart_broker()/restart_merchant() reopen those logs (see deployment.h)
// and reset the merchant actor's volatile RPC state.

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "actors/actors.h"
#include "ecash/deployment.h"
#include "obs/metrics_registry.h"
#include "store/vfs.h"

namespace p2pcash::actors {

class Assembly {
 public:
  /// What to build.  Both hosts' Options carry these fields under the same
  /// names; spec_of() copies them out.
  struct Spec {
    std::size_t merchants = 0;
    std::uint64_t seed = 0;
    simnet::CostModel cost;
    ecash::Broker::Config broker;
    ecash::Cents security_deposit = 0;
    RetryPolicy retry;
    PeerHealth::Config breaker;
  };
  template <class Options>
  static Spec spec_of(const Options& o) {
    return {o.merchants,        o.seed,  o.cost,   o.broker,
            o.security_deposit, o.retry, o.breaker};
  }

  /// Builds the deployment and attaches its nodes to `tx`.  With `vfs`,
  /// every service journals into its own LogStore there; `registry`
  /// receives the store metrics.  Both must outlive the assembly.
  Assembly(const group::SchnorrGroup& grp, const Spec& spec,
           transport::Transport& tx, store::Vfs* vfs,
           obs::MetricsRegistry& registry);
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  ecash::Broker& broker() { return deployment_.broker(); }
  const Directory& directory() const { return directory_; }

  std::vector<MerchantId> merchant_ids() const;
  MerchantActor& merchant_actor(const MerchantId& id);
  NodeId merchant_node(const MerchantId& id) const;

  /// Creates a client node with its own wallet RNG stream derived from the
  /// seed.  (TcpNet only accepts new endpoints before start().)
  ClientActor& add_client();

  /// Every attached node id (broker, merchants, clients created so far).
  std::vector<NodeId> all_nodes() const;

  /// Sum of the resilience counters across all clients and merchant actors.
  /// Counters are plain fields mutated on actor strands: on TcpNet call
  /// this only while the transport is stopped or quiescent.
  metrics::ResilienceCounters resilience_totals() const;

  /// Crash recovery (requires a Vfs): reopen the broker's log.
  void restart_broker();
  /// Crash recovery (requires a Vfs): reopen the witness log, drop the
  /// storefront's half-done payments (they lived in memory only) and reset
  /// the actor's volatile RPC state.
  void restart_merchant(const MerchantId& id);

 private:
  Spec spec_;
  transport::Transport& tx_;
  ecash::Deployment deployment_;

  std::unique_ptr<BrokerActor> broker_actor_;
  Directory directory_;
  std::map<MerchantId, std::unique_ptr<MerchantActor>> merchants_;
  std::vector<std::unique_ptr<ClientActor>> clients_;
};

}  // namespace p2pcash::actors
