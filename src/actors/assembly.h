// assembly.h — the one recipe that builds a deployment's protocol nodes.
//
// An Assembly creates the broker, the merchant machines (storefront and
// witness behind one MerchantActor), the clients, and publishes the
// witness table to everyone — over any transport::Transport.  SimWorld
// (world.h) hosts one on the simulator, NodeRuntime (runtime.h) on TcpNet;
// neither host wires a node itself.
//
// RNG recipe (fixed — p2pcash_bench's traced walk mirrors it):
//   setup_rng(seed); the broker's service stream is setup_rng.fork("broker");
//   then per merchant a signing key drawn from setup_rng, followed by one
//   setup_rng.fork(id) stream shared by that merchant's storefront and
//   witness.  Each stream is only touched from its host actor's strand,
//   which is what makes the recipe safe on worker threads.
//
// Durability: given a Vfs, the broker journals into kBrokerLog and every
// witness into witness_log_name(id) (store::LogStore, with commit/fsync
// metrics in the host's registry).  restart_broker()/restart_merchant()
// reopen those logs the way a restarted process would: truncate the torn
// tail, restore the checkpoint, replay the deltas.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "actors/actors.h"
#include "obs/metrics_registry.h"
#include "store/log_store.h"
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

  static constexpr const char* kBrokerLog = "broker.log";
  static std::string witness_log_name(const MerchantId& id);

  /// Builds broker and merchants on `tx`.  With `vfs`, every service
  /// journals into its own LogStore there; `registry` receives the store
  /// metrics.  Both must outlive the assembly.
  Assembly(const group::SchnorrGroup& grp, const Spec& spec,
           transport::Transport& tx, store::Vfs* vfs,
           obs::MetricsRegistry& registry);
  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  ecash::Broker& broker() { return *broker_; }
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
  struct MerchantSlot {
    MerchantId id;
    std::unique_ptr<crypto::ChaChaRng> rng;  ///< strand-confined stream
    std::unique_ptr<store::LogStore> store;  ///< only with a Vfs
    std::unique_ptr<ecash::Merchant> merchant;
    std::unique_ptr<ecash::WitnessService> witness;
    std::unique_ptr<MerchantActor> actor;
  };

  MerchantSlot& slot(const MerchantId& id);
  std::unique_ptr<store::LogStore> open_log(const std::string& name);

  const group::SchnorrGroup& grp_;
  Spec spec_;
  transport::Transport& tx_;
  store::Vfs* vfs_;
  obs::MetricsRegistry& registry_;

  std::unique_ptr<crypto::ChaChaRng> broker_rng_;
  std::unique_ptr<store::LogStore> broker_store_;  ///< only with a Vfs
  std::unique_ptr<ecash::Broker> broker_;
  std::unique_ptr<BrokerActor> broker_actor_;
  Directory directory_;
  std::vector<MerchantSlot> merchants_;
  std::vector<std::unique_ptr<ClientActor>> clients_;
};

}  // namespace p2pcash::actors
