#include "actors/assembly.h"

#include <stdexcept>

namespace p2pcash::actors {

std::string Assembly::witness_log_name(const MerchantId& id) {
  return "witness-" + id + ".log";
}

Assembly::Assembly(const group::SchnorrGroup& grp, const Spec& spec,
                   transport::Transport& tx, store::Vfs* vfs,
                   obs::MetricsRegistry& registry)
    : grp_(grp), spec_(spec), tx_(tx), vfs_(vfs), registry_(registry) {
  if (spec_.merchants == 0)
    throw std::invalid_argument("Assembly: need at least one merchant");
  // Construction-time stream for key generation; every service then gets
  // its own fork, confined to its host actor's strand.
  crypto::ChaChaRng setup_rng(spec_.seed);
  broker_rng_ = std::make_unique<crypto::ChaChaRng>(setup_rng.fork("broker"));
  broker_ = std::make_unique<ecash::Broker>(grp_, *broker_rng_, spec_.broker);
  if (vfs_) {
    broker_store_ = open_log(kBrokerLog);
    broker_->attach_store(*broker_store_);
  }
  broker_actor_ = std::make_unique<BrokerActor>(tx_, spec_.cost, *broker_);
  directory_.broker = tx_.attach(*broker_actor_);

  merchants_.reserve(spec_.merchants);
  for (std::size_t i = 0; i < spec_.merchants; ++i) {
    MerchantSlot slot;
    slot.id = ecash::merchant_name(i);
    auto key = sig::KeyPair::generate(grp_, setup_rng);
    broker_->register_merchant(slot.id, key.public_key(),
                               spec_.security_deposit);
    slot.rng = std::make_unique<crypto::ChaChaRng>(setup_rng.fork(slot.id));
    slot.merchant = std::make_unique<ecash::Merchant>(
        grp_, broker_->coin_key(), slot.id, key, *slot.rng);
    slot.witness = std::make_unique<ecash::WitnessService>(
        grp_, broker_->coin_key(), slot.id, key, *slot.rng);
    if (vfs_) {
      slot.store = open_log(witness_log_name(slot.id));
      slot.witness->attach_store(*slot.store);
    }
    slot.actor = std::make_unique<MerchantActor>(
        tx_, spec_.cost, *slot.merchant, *slot.witness, directory_);
    slot.actor->set_retry_policy(spec_.retry);
    directory_.merchants[slot.id] = tx_.attach(*slot.actor);
    merchants_.push_back(std::move(slot));
  }
  broker_->publish_witness_table(/*now=*/0);
}

std::unique_ptr<store::LogStore> Assembly::open_log(const std::string& name) {
  store::LogStore::Options opts;
  opts.metrics = &registry_;
  return std::make_unique<store::LogStore>(*vfs_, name, opts);
}

Assembly::MerchantSlot& Assembly::slot(const MerchantId& id) {
  for (auto& s : merchants_) {
    if (s.id == id) return s;
  }
  throw std::invalid_argument("Assembly: unknown merchant " + id);
}

std::vector<MerchantId> Assembly::merchant_ids() const {
  std::vector<MerchantId> out;
  out.reserve(merchants_.size());
  for (const auto& s : merchants_) out.push_back(s.id);
  return out;
}

MerchantActor& Assembly::merchant_actor(const MerchantId& id) {
  return *slot(id).actor;
}

NodeId Assembly::merchant_node(const MerchantId& id) const {
  auto it = directory_.merchants.find(id);
  if (it == directory_.merchants.end())
    throw std::invalid_argument("Assembly: unknown merchant " + id);
  return it->second;
}

ClientActor& Assembly::add_client() {
  clients_.push_back(std::make_unique<ClientActor>(
      tx_, spec_.cost, grp_, broker_->coin_key(), broker_->current_table(),
      directory_, spec_.seed * 1000003 + clients_.size() + 1));
  tx_.attach(*clients_.back());
  clients_.back()->set_retry_policy(spec_.retry);
  clients_.back()->set_breaker_config(spec_.breaker);
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
  for (const auto& s : merchants_) total += s.actor->resilience();
  return total;
}

void Assembly::restart_broker() {
  broker_store_.reset();
  broker_store_ = open_log(kBrokerLog);
  broker_->attach_store(*broker_store_);
}

void Assembly::restart_merchant(const MerchantId& id) {
  MerchantSlot& s = slot(id);
  s.store.reset();
  s.store = open_log(witness_log_name(id));
  s.witness->attach_store(*s.store);
  s.merchant->drop_pending();
  s.actor->on_restart();
}

}  // namespace p2pcash::actors
