// merchant.h — the merchant role: accept payments, collect witness
// endorsements, queue deposits.
//
// Paper Algorithm 2 steps 3–6, merchant side.  The merchant verifies the
// coin and NIZK itself (it bears the loss for an invalid coin — there is
// no issuer covering fraud), confirms the witness commitment binds the
// payment to *this* merchant, forwards the transcript to the coin's
// witness(es), and releases service only once witness_k endorsements are
// in hand.  Endorsed transcripts accumulate in a deposit queue that can be
// flushed to the broker at any later time — the broker is never on the
// payment's critical path.

#pragma once

#include <map>
#include <vector>

#include "ecash/transcript.h"

namespace p2pcash::ecash {

class Merchant {
 public:
  /// `rng` must outlive the merchant.
  Merchant(group::SchnorrGroup grp, sig::PublicKey broker_key, MerchantId id,
           sig::KeyPair key, bn::Rng& rng);

  const MerchantId& id() const { return id_; }
  const sig::PublicKey& public_key() const { return key_.public_key(); }
  const sig::KeyPair& key_pair() const { return key_; }

  /// Step 3: validates an incoming payment *before* consulting witnesses:
  /// the coin was not already presented here, then, as independent checks
  /// on `runner` (checks.h; empty = in order on this thread): coin
  /// verifies (broker signature, witness entries, expiry), NIZK response
  /// verifies, and each commitment covers the coin, binds this merchant
  /// (nonce = h(salt || I_M)) and is signed by a distinct assigned
  /// witness.  On success the payment is pending until enough endorsements
  /// arrive.
  Outcome<std::monostate> receive_payment(
      const PaymentTranscript& transcript,
      const std::vector<WitnessCommitment>& commitments, Timestamp now,
      const CheckRunner& runner = {});

  /// Step 5/6: records a witness endorsement (after verifying it). Returns
  /// true when the payment has reached witness_k endorsements — service can
  /// be delivered and the signed transcript joins the deposit queue.
  Outcome<bool> add_endorsement(const Hash256& coin_hash,
                                const WitnessEndorsement& endorsement);

  /// A witness answered with a double-spend proof: verify it and drop the
  /// pending payment. Returns the verified proof (to show the client).
  Outcome<DoubleSpendProof> handle_double_spend(const Hash256& coin_hash,
                                                const DoubleSpendProof& proof);

  /// Pending payment lookup (e.g. to retry witnesses).
  const PaymentTranscript* pending(const Hash256& coin_hash) const;
  /// Drops a pending payment (client abandoned / witness unreachable).
  void abandon(const Hash256& coin_hash);
  /// Drops every pending (not yet fully endorsed) payment — crash recovery
  /// and mass-abandon path: the client retries from scratch, and a payment
  /// without witness_k endorsements is worth nothing at deposit time.
  /// Returns how many were dropped.  Endorsed transcripts in the deposit
  /// queue and the seen-coin set are untouched.
  std::size_t drop_pending();
  /// True once this coin completed a payment here (service was delivered),
  /// so a retransmitted transcript can be re-acknowledged idempotently.
  bool already_serviced(const Hash256& coin_hash) const {
    return seen_coins_.contains(coin_hash);
  }

  /// Completed, endorsed transcripts awaiting deposit; drained by caller.
  std::vector<SignedTranscript> drain_deposit_queue();
  std::size_t deposit_queue_size() const { return deposit_queue_.size(); }

  /// Services delivered (completed payments).
  std::uint64_t services_delivered() const { return services_delivered_; }
  /// Double-spend attempts blocked at this merchant.
  std::uint64_t double_spends_blocked() const { return double_spends_blocked_; }

 private:
  struct PendingPayment {
    PaymentTranscript transcript;
    std::vector<WitnessCommitment> commitments;
    std::vector<WitnessEndorsement> endorsements;
  };

  group::SchnorrGroup grp_;
  sig::PublicKey broker_key_;
  MerchantId id_;
  sig::KeyPair key_;
  bn::Rng& rng_;

  std::map<Hash256, PendingPayment> pending_;
  std::map<Hash256, std::monostate> seen_coins_;  // accepted here before
  std::vector<SignedTranscript> deposit_queue_;
  std::uint64_t services_delivered_ = 0;
  std::uint64_t double_spends_blocked_ = 0;
};

}  // namespace p2pcash::ecash
