#include "ecash/deployment.h"

#include <stdexcept>

namespace p2pcash::ecash {

std::string Deployment::witness_log_name(const MerchantId& id) {
  return "witness-" + id + ".log";
}

Deployment::Deployment(const group::SchnorrGroup& grp, std::size_t n_merchants,
                       std::uint64_t seed, Broker::Config config,
                       Cents security_deposit, store::Vfs* vfs,
                       obs::MetricsRegistry* metrics)
    : grp_(grp),
      vfs_(vfs),
      metrics_(metrics),
      rng_(seed),
      broker_rng_(rng_.fork("broker")),
      broker_(grp_, broker_rng_, config),
      arbiter_(grp_) {
  if (n_merchants == 0)
    throw std::invalid_argument("Deployment: need at least one merchant");
  if (vfs_) {
    broker_store_ = open_log(kBrokerLog);
    broker_.attach_store(*broker_store_);
  }
  for (std::size_t i = 0; i < n_merchants; ++i) {
    MerchantId id = merchant_name(i);
    auto key = sig::KeyPair::generate(grp_, rng_);
    broker_.register_merchant(id, key.public_key(), security_deposit);
    MerchantNode node;
    node.rng = std::make_unique<crypto::ChaChaRng>(rng_.fork(id));
    node.merchant = std::make_unique<Merchant>(grp_, broker_.coin_key(), id,
                                               key, *node.rng);
    node.witness = std::make_unique<WitnessService>(
        grp_, broker_.coin_key(), id, key, *node.rng);
    if (vfs_) {
      node.store = open_log(witness_log_name(id));
      node.witness->attach_store(*node.store);
    }
    nodes_.emplace(std::move(id), std::move(node));
  }
  broker_.publish_witness_table(/*now=*/0);
}

std::unique_ptr<store::LogStore> Deployment::open_log(
    const std::string& name) {
  store::LogStore::Options opts;
  opts.metrics = metrics_;
  return std::make_unique<store::LogStore>(*vfs_, name, opts);
}

void Deployment::restart_broker() {
  broker_store_.reset();
  broker_store_ = open_log(kBrokerLog);
  broker_.attach_store(*broker_store_);
}

void Deployment::restart_merchant(const MerchantId& id) {
  MerchantNode& n = node(id);
  n.store.reset();
  n.store = open_log(witness_log_name(id));
  n.witness->attach_store(*n.store);
  n.merchant->drop_pending();
}

std::vector<MerchantId> Deployment::merchant_ids() const {
  std::vector<MerchantId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

MerchantNode& Deployment::node(const MerchantId& id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end())
    throw std::invalid_argument("Deployment::node: unknown merchant " + id);
  return it->second;
}

std::unique_ptr<Wallet> Deployment::make_wallet() {
  // Each wallet gets an independent RNG stream: a wallet's randomness must
  // not be predictable from the deployment's other components.  The
  // counter is per-deployment so equal seeds give bit-identical runs.
  auto child = std::make_unique<crypto::ChaChaRng>(
      rng_.fork("wallet-" + std::to_string(wallet_counter_++)));
  // Keep the RNG alive by storing it inside a Wallet subclass-free wrapper:
  // we tie its lifetime to the wallet via a custom deleter.
  struct OwningWallet : Wallet {
    OwningWallet(const group::SchnorrGroup& grp, sig::PublicKey coin_key,
                 sig::PublicKey id_key, std::unique_ptr<crypto::ChaChaRng> rng)
        : Wallet(grp, std::move(coin_key), std::move(id_key), *rng),
          rng_holder(std::move(rng)) {}
    std::unique_ptr<crypto::ChaChaRng> rng_holder;
  };
  return std::make_unique<OwningWallet>(grp_, broker_.coin_key(),
                                        broker_.identity_key(),
                                        std::move(child));
}

void Deployment::set_offline(const MerchantId& id, bool offline) {
  if (offline)
    offline_.insert(id);
  else
    offline_.erase(id);
}

bool Deployment::is_offline(const MerchantId& id) const {
  return offline_.contains(id);
}

Outcome<WalletCoin> Deployment::withdraw(Wallet& wallet, Cents denomination,
                                         Timestamp now) {
  auto offer = broker_.start_withdrawal(denomination, now);
  if (!offer) return offer.refusal();
  auto state = wallet.begin_withdrawal(offer.value());
  auto response = broker_.finish_withdrawal(state.session, state.e);
  if (!response) return response.refusal();
  return wallet.complete_withdrawal(state, response.value(),
                                    broker_.current_table());
}

Outcome<std::vector<WitnessCommitment>> Deployment::gather_commitments(
    const WalletCoin& coin, const Wallet::PaymentIntent& intent,
    Timestamp now) {
  // Witness slots may collide on one merchant: each commits once.
  std::vector<WitnessCommitment> commitments;
  for (const auto& entry : coin.coin.witnesses) {
    if (commitments.size() >= coin.coin.bare.info.witness_k) break;
    if (offline_.contains(entry.merchant)) continue;
    bool already = false;
    for (const auto& c : commitments)
      if (c.witness == entry.merchant) already = true;
    if (already) continue;
    auto outcome = node(entry.merchant)
                       .witness->request_commitment(intent.coin_hash,
                                                    intent.nonce, now);
    if (outcome) commitments.push_back(std::move(outcome).value());
  }
  if (commitments.size() < coin.coin.bare.info.witness_k)
    return Refusal{RefusalReason::kInternal, "not enough reachable witnesses"};
  return commitments;
}

Deployment::PaymentResult Deployment::pay(Wallet& wallet,
                                          const WalletCoin& coin,
                                          const MerchantId& merchant_id,
                                          Timestamp now) {
  PaymentResult result;
  if (offline_.contains(merchant_id)) {
    result.refusal = Refusal{RefusalReason::kInternal, "merchant offline"};
    return result;
  }
  Merchant& storefront = *node(merchant_id).merchant;

  // Step 1-2: collect witness commitments.
  auto intent = wallet.prepare_payment(coin, merchant_id);
  auto gathered = gather_commitments(coin, intent, now);
  if (!gathered) {
    result.refusal = gathered.refusal();
    return result;
  }
  const auto& commitments = gathered.value();

  // Step 3: transcript to the merchant.
  auto transcript = wallet.build_transcript(coin, intent, commitments, now);
  if (!transcript) {
    result.refusal = transcript.refusal();
    return result;
  }
  if (auto accepted =
          storefront.receive_payment(transcript.value(), commitments, now);
      !accepted) {
    result.refusal = accepted.refusal();
    return result;
  }

  // Step 4-5: the merchant asks the committing witnesses to countersign.
  const Hash256 coin_hash = intent.coin_hash;
  for (const auto& commitment : commitments) {
    auto sign_result = node(commitment.witness)
                           .witness->sign_transcript(transcript.value(), now);
    if (!sign_result) {
      storefront.abandon(coin_hash);
      result.refusal = sign_result.refusal();
      return result;
    }
    if (auto* proof =
            std::get_if<DoubleSpendProof>(&sign_result.value())) {
      auto judged = storefront.handle_double_spend(coin_hash, *proof);
      if (judged) {
        result.double_spend_proof = judged.value();
      } else {
        result.refusal = judged.refusal();
      }
      return result;
    }
    auto endorsement = std::get<WitnessEndorsement>(sign_result.value());
    auto done = storefront.add_endorsement(coin_hash, endorsement);
    if (!done) {
      storefront.abandon(coin_hash);
      result.refusal = done.refusal();
      return result;
    }
    if (done.value()) {
      result.accepted = true;  // step 6: service delivered
      return result;
    }
  }
  storefront.abandon(coin_hash);
  result.refusal =
      Refusal{RefusalReason::kInternal, "insufficient endorsements"};
  return result;
}

Deployment::DepositSummary Deployment::deposit_all(
    const MerchantId& merchant_id, Timestamp now) {
  DepositSummary summary;
  Merchant& storefront = *node(merchant_id).merchant;
  for (auto& st : storefront.drain_deposit_queue()) {
    auto receipt = broker_.deposit(merchant_id, st, now);
    if (receipt) {
      summary.credited += receipt.value().credited;
      ++summary.accepted;
    } else {
      ++summary.refused;
    }
  }
  return summary;
}

Outcome<std::vector<WalletCoin>> Deployment::exchange(
    Wallet& wallet, const WalletCoin& coin,
    const std::vector<Cents>& denominations, Timestamp now) {
  // Validate the split *before* involving the witness: once the witness
  // has countersigned the broker-bound transcript the coin is spent, and a
  // retry with fresh randomness would look like a double spend.
  Cents total = 0;
  for (Cents d : denominations) {
    if (d == 0) return Refusal{RefusalReason::kBadProof, "zero denomination"};
    total += d;
  }
  if (denominations.empty() || total != coin.coin.bare.info.denomination)
    return Refusal{RefusalReason::kBadProof,
                   "change does not sum to the coin's value"};

  // Pay the coin to the broker: regular step 1-5 flow with the broker as
  // the (hidden-until-step-3) counterparty.
  auto intent = wallet.prepare_payment(coin, kBrokerCounterparty);
  auto gathered = gather_commitments(coin, intent, now);
  if (!gathered) return gathered.refusal();
  const auto& commitments = gathered.value();
  auto transcript = wallet.build_transcript(coin, intent, commitments, now);
  if (!transcript) return transcript.refusal();
  SignedTranscript st;
  st.transcript = transcript.value();
  for (const auto& commitment : commitments) {
    auto sign = node(commitment.witness)
                    .witness->sign_transcript(transcript.value(), now);
    if (!sign) return sign.refusal();
    if (auto* proof = std::get_if<DoubleSpendProof>(&sign.value())) {
      (void)proof;
      return Refusal{RefusalReason::kDoubleSpent,
                     "witness reports the coin as already spent"};
    }
    st.endorsements.push_back(std::get<WitnessEndorsement>(sign.value()));
  }

  auto offers = broker_.exchange(st, denominations, now);
  if (!offers) return offers.refusal();
  std::vector<WalletCoin> change;
  change.reserve(offers.value().size());
  for (auto& offer : offers.value()) {
    auto state = wallet.begin_withdrawal(offer);
    auto response = broker_.finish_withdrawal(state.session, state.e);
    if (!response) return response.refusal();
    auto fresh = wallet.complete_withdrawal(state, response.value(),
                                            broker_.current_table());
    if (!fresh) return fresh.refusal();
    change.push_back(std::move(fresh).value());
  }
  return change;
}

Deployment::TransferResult Deployment::transfer(Wallet& owner,
                                                const WalletCoin& coin,
                                                Wallet& recipient,
                                                Timestamp now) {
  TransferResult result;
  const MerchantId& witness_id = coin.coin.witnesses[0].merchant;
  if (offline_.contains(witness_id)) {
    result.refusal = Refusal{RefusalReason::kInternal, "witness offline"};
    return result;
  }
  auto intent = recipient.prepare_receive();
  auto response =
      owner.respond_transfer(coin, intent.comm.a, intent.comm.b, now);
  auto outcome = node(witness_id)
                     .witness->sign_transfer(coin.coin, intent.comm.a,
                                             intent.comm.b, response, now,
                                             now);
  if (!outcome) {
    result.refusal = outcome.refusal();
    return result;
  }
  if (auto* proof = std::get_if<DoubleSpendProof>(&outcome.value())) {
    result.double_spend_proof = *proof;
    return result;
  }
  auto received = recipient.accept_transfer(
      coin.coin, std::get<TransferLink>(outcome.value()), intent);
  if (!received) {
    result.refusal = received.refusal();
    return result;
  }
  result.received = std::move(received).value();
  return result;
}

Outcome<WalletCoin> Deployment::renew(Wallet& wallet,
                                      const WalletCoin& old_coin,
                                      Timestamp now) {
  auto offer =
      broker_.start_renewal(old_coin.coin.bare.info.denomination, now);
  if (!offer) return offer.refusal();
  bn::BigInt challenge = broker_.renewal_challenge(old_coin.coin, now);
  auto state = wallet.begin_renewal(old_coin, offer.value(), challenge, now);
  auto response =
      broker_.finish_renewal(state.session, state.e, old_coin.coin,
                             state.old_proof, state.datetime, now);
  if (!response) return response.refusal();
  return wallet.complete_renewal(state, response.value(),
                                 broker_.current_table());
}

}  // namespace p2pcash::ecash
