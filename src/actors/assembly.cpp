#include "actors/assembly.h"

#include <stdexcept>

namespace p2pcash::actors {

Assembly::Assembly(const group::SchnorrGroup& grp, const Spec& spec,
                   transport::Transport& tx, store::Vfs* vfs,
                   obs::MetricsRegistry& registry)
    : spec_(spec),
      tx_(tx),
      deployment_(grp, spec.merchants, spec.seed, spec.broker,
                  spec.security_deposit, vfs, &registry) {
  broker_actor_ =
      std::make_unique<BrokerActor>(tx_, spec_.cost, deployment_.broker());
  directory_.broker = tx_.attach(*broker_actor_);
  for (const auto& id : deployment_.merchant_ids()) {
    ecash::MerchantNode& node = deployment_.node(id);
    auto actor = std::make_unique<MerchantActor>(
        tx_, spec_.cost, *node.merchant, *node.witness, directory_,
        spec_.retry);
    directory_.merchants[id] = tx_.attach(*actor);
    merchants_.emplace(id, std::move(actor));
  }
}

std::vector<MerchantId> Assembly::merchant_ids() const {
  return deployment_.merchant_ids();
}

MerchantActor& Assembly::merchant_actor(const MerchantId& id) {
  auto it = merchants_.find(id);
  if (it == merchants_.end())
    throw std::invalid_argument("Assembly: unknown merchant " + id);
  return *it->second;
}

NodeId Assembly::merchant_node(const MerchantId& id) const {
  auto it = directory_.merchants.find(id);
  if (it == directory_.merchants.end())
    throw std::invalid_argument("Assembly: unknown merchant " + id);
  return it->second;
}

ClientActor& Assembly::add_client() {
  ecash::Broker& broker = deployment_.broker();
  clients_.push_back(std::make_unique<ClientActor>(
      tx_, spec_.cost, deployment_.grp(), broker.coin_key(),
      broker.current_table(), directory_,
      spec_.seed * 1000003 + clients_.size() + 1, spec_.retry,
      spec_.breaker));
  tx_.attach(*clients_.back());
  return *clients_.back();
}

std::vector<NodeId> Assembly::all_nodes() const {
  std::vector<NodeId> out;
  out.push_back(directory_.broker);
  for (const auto& [id, node] : directory_.merchants) out.push_back(node);
  for (const auto& client : clients_) out.push_back(client->id());
  return out;
}

metrics::ResilienceCounters Assembly::resilience_totals() const {
  metrics::ResilienceCounters total;
  for (const auto& client : clients_) total += client->resilience();
  for (const auto& [id, actor] : merchants_) total += actor->resilience();
  return total;
}

void Assembly::restart_broker() { deployment_.restart_broker(); }

void Assembly::restart_merchant(const MerchantId& id) {
  deployment_.restart_merchant(id);
  merchant_actor(id).on_restart();
}

}  // namespace p2pcash::actors
