// deployment.h — the one recipe that builds a deployment's protocol nodes.
//
// Wires a broker and N merchant machines (each running both a Merchant
// storefront and a WitnessService, "at the same time on the same physical
// hardware" per the paper's prototype), publishes witness table v1, and
// hands out client wallets.  actors::Assembly hosts its actors on exactly
// these objects, so SimWorld, NodeRuntime and the synchronous drivers below
// all run one node set.  The drivers pass protocol messages as direct calls
// — the only drivers of renewal, exchange and transfer, and the Table-1
// harness.
//
// RNG recipe (fixed — p2pcash_bench's traced walk mirrors it):
//   setup_rng(seed); the broker's service stream is setup_rng.fork("broker");
//   then per merchant a signing key drawn from setup_rng, followed by one
//   setup_rng.fork(id) stream shared by that merchant's storefront and
//   witness.  The storefront never draws from it, so each stream has one
//   drawing service: on an actor host it is touched only from that node's
//   strand, and tests that drive one witness from several threads rely on
//   the witness's own rng lock.
//
// Durability: given a Vfs, the broker journals into kBrokerLog (opened
// before the first merchant registers) and every witness into
// witness_log_name(id) (store::LogStore, with commit/fsync metrics in the
// given registry).  restart_broker()/restart_merchant() reopen those logs
// the way a restarted process would: truncate the torn tail, restore the
// checkpoint, replay the deltas.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>

#include "crypto/chacha.h"
#include "ecash/arbiter.h"
#include "ecash/broker.h"
#include "ecash/merchant.h"
#include "ecash/wallet.h"
#include "ecash/witness.h"
#include "store/log_store.h"
#include "store/vfs.h"

namespace p2pcash::ecash {

/// A merchant machine: storefront plus witness service (separate objects,
/// mirroring the paper's separate processes) on one RNG stream.
struct MerchantNode {
  std::unique_ptr<crypto::ChaChaRng> rng;
  std::unique_ptr<store::LogStore> store;  ///< only with a Vfs
  std::unique_ptr<Merchant> merchant;
  std::unique_ptr<WitnessService> witness;
};

class Deployment {
 public:
  static constexpr const char* kBrokerLog = "broker.log";
  static std::string witness_log_name(const MerchantId& id);

  /// Spins up a broker and `n_merchants` registered merchants named
  /// "m000", "m001", …, publishes witness table v1. Deterministic given
  /// `seed`.  With `vfs`, every service journals into its own LogStore
  /// there and `metrics` (if set) receives the store metrics; both must
  /// outlive the deployment.
  Deployment(const group::SchnorrGroup& grp, std::size_t n_merchants,
             std::uint64_t seed, Broker::Config config = {},
             Cents security_deposit = 10'000, store::Vfs* vfs = nullptr,
             obs::MetricsRegistry* metrics = nullptr);

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

  /// Crash recovery (requires a Vfs): reopen the broker's log.
  void restart_broker();
  /// Crash recovery (requires a Vfs): reopen the witness log and drop the
  /// storefront's half-done payments (they lived in memory only).
  void restart_merchant(const MerchantId& id);

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
  /// Steps 1-2 of a payment: one commitment from each of the coin's first
  /// witness_k reachable, distinct witness merchants.
  Outcome<std::vector<WitnessCommitment>> gather_commitments(
      const WalletCoin& coin, const Wallet::PaymentIntent& intent,
      Timestamp now);
  std::unique_ptr<store::LogStore> open_log(const std::string& name);

  group::SchnorrGroup grp_;
  store::Vfs* vfs_;
  obs::MetricsRegistry* metrics_;
  crypto::ChaChaRng rng_;         ///< setup stream; then wallet forks
  crypto::ChaChaRng broker_rng_;  ///< rng_.fork("broker")
  std::unique_ptr<store::LogStore> broker_store_;  ///< only with a Vfs
  Broker broker_;
  Arbiter arbiter_;
  std::map<MerchantId, MerchantNode> nodes_;
  std::set<MerchantId> offline_;
  std::uint64_t wallet_counter_ = 0;
};

}  // namespace p2pcash::ecash
