// deployment.h — an in-memory deployment of the whole system.
//
// Wires a broker, N merchant nodes (each running both a Merchant storefront
// and a WitnessService, "at the same time on the same physical hardware"
// per the paper's prototype), and any number of client wallets, with all
// protocol messages passed as direct calls.  This is the synchronous
// counterpart of the simnet actors: same protocol code, no network — used
// by unit/integration tests, examples and the Table-1 bench.

#pragma once

#include <map>
#include <memory>
#include <set>

#include "crypto/chacha.h"
#include "ecash/arbiter.h"
#include "ecash/broker.h"
#include "ecash/merchant.h"
#include "ecash/wallet.h"
#include "ecash/witness.h"

namespace p2pcash::ecash {

/// A merchant machine: storefront plus witness service (separate objects,
/// mirroring the paper's separate processes).
struct MerchantNode {
  std::unique_ptr<Merchant> merchant;
  /// Private RNG stream for the witness service.  Tests drive the witnesses
  /// of different nodes from several threads at once; each service
  /// serializes its own draws with its rng_mu_, but that only protects a
  /// stream no other component touches.
  std::unique_ptr<crypto::ChaChaRng> witness_rng;
  std::unique_ptr<WitnessService> witness;
};

class Deployment {
 public:
  /// Spins up a broker and `n_merchants` registered merchants named
  /// "m000", "m001", …, publishes witness table v1. Deterministic given
  /// `seed`.
  Deployment(const group::SchnorrGroup& grp, std::size_t n_merchants,
             std::uint64_t seed, Broker::Config config = {},
             Cents security_deposit = 10'000);

  Broker& broker() { return broker_; }
  const group::SchnorrGroup& grp() const { return grp_; }
  Arbiter& arbiter() { return arbiter_; }
  bn::Rng& rng() { return rng_; }

  std::vector<MerchantId> merchant_ids() const;
  MerchantNode& node(const MerchantId& id);

  /// A fresh client wallet with its own forked RNG stream.
  std::unique_ptr<Wallet> make_wallet();

  /// Marks a merchant node unreachable (both storefront and witness) —
  /// availability fault injection for the A1 bench.
  void set_offline(const MerchantId& id, bool offline);
  bool is_offline(const MerchantId& id) const;

  // ---- high-level protocol drivers ----

  /// Full withdrawal protocol against the broker.
  Outcome<WalletCoin> withdraw(Wallet& wallet, Cents denomination,
                               Timestamp now);

  /// Full payment protocol at `merchant_id`. On success the merchant has
  /// delivered service and queued the deposit.
  struct PaymentResult {
    bool accepted = false;
    std::optional<DoubleSpendProof> double_spend_proof;
    std::optional<Refusal> refusal;
  };
  PaymentResult pay(Wallet& wallet, const WalletCoin& coin,
                    const MerchantId& merchant_id, Timestamp now);

  /// Deposits everything in a merchant's queue; returns total credited.
  struct DepositSummary {
    Cents credited = 0;
    std::size_t accepted = 0;
    std::size_t refused = 0;
  };
  DepositSummary deposit_all(const MerchantId& merchant_id, Timestamp now);

  /// Full renewal protocol for an expired coin.
  Outcome<WalletCoin> renew(Wallet& wallet, const WalletCoin& old_coin,
                            Timestamp now);

  /// Full denomination-exchange protocol: pays `coin` to the broker (with
  /// the regular witness countersignature) and withdraws `denominations`
  /// as fresh coins.  Their sum must equal the coin's value.
  Outcome<std::vector<WalletCoin>> exchange(
      Wallet& wallet, const WalletCoin& coin,
      const std::vector<Cents>& denominations, Timestamp now);

  /// Full peer-to-peer transfer protocol (transferability extension): the
  /// owner hands `coin` to `recipient` with the coin's witness endorsing
  /// the new ownership.  Returns the recipient's spendable coin; on a
  /// double transfer the witness answers with a proof instead.
  struct TransferResult {
    std::optional<WalletCoin> received;
    std::optional<DoubleSpendProof> double_spend_proof;
    std::optional<Refusal> refusal;
  };
  TransferResult transfer(Wallet& owner, const WalletCoin& coin,
                          Wallet& recipient, Timestamp now);

 private:
  group::SchnorrGroup grp_;
  crypto::ChaChaRng rng_;
  Broker broker_;
  Arbiter arbiter_;
  std::map<MerchantId, MerchantNode> nodes_;
  std::set<MerchantId> offline_;
  std::uint64_t wallet_counter_ = 0;
};

}  // namespace p2pcash::ecash
