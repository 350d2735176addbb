#include "ecash/merchant.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace p2pcash::ecash {

Merchant::Merchant(group::SchnorrGroup grp, sig::PublicKey broker_key,
                   MerchantId id, sig::KeyPair key, bn::Rng& rng)
    : grp_(std::move(grp)),
      broker_key_(std::move(broker_key)),
      id_(std::move(id)),
      key_(std::move(key)),
      rng_(rng) {}

Outcome<std::monostate> Merchant::receive_payment(
    const PaymentTranscript& transcript,
    const std::vector<WitnessCommitment>& commitments, Timestamp now,
    const CheckRunner& runner) {
  using Ok = Outcome<std::monostate>;
  if (transcript.merchant != id_)
    return Refusal{RefusalReason::kBadProof,
                   "transcript names a different merchant"};

  // "The merchant rejects ... if it has already received payment with the
  // same coin."  A read of state only this strand changes, so it still
  // holds after the checks.
  const Hash256 coin_hash = transcript.coin.bare.coin_hash();
  if (seen_coins_.contains(coin_hash) || pending_.contains(coin_hash))
    return Refusal{RefusalReason::kDoubleSpent,
                   "coin already presented at this merchant"};

  // Full coin verification (broker blind signature, witness assignment,
  // entry signatures, expiry).
  std::vector<Check> checks =
      coin_checks(grp_, broker_key_, transcript.coin, now);

  // The NIZK response: A * B^d == g1^r1 g2^r2 with d bound to us and now.
  checks.emplace_back([this, &transcript]() -> Ok {
    if (!verify_transcript_proof(grp_, transcript))
      return Refusal{RefusalReason::kBadProof, "NIZK response invalid"};
    return std::monostate{};
  });

  // Witness commitments: need at least witness_k, each from a distinct
  // assigned witness, covering this coin, bound to us via the nonce, alive,
  // and properly signed.  One check per commitment.
  const CoinInfo& info = transcript.coin.bare.info;
  const Hash256 nonce = payment_nonce(transcript.salt, id_);
  for (std::size_t j = 0; j < commitments.size(); ++j) {
    checks.emplace_back([&, j]() -> Ok {
      const WitnessCommitment& commitment = commitments[j];
      if (commitment.coin_hash != coin_hash)
        return Refusal{RefusalReason::kBadProof,
                       "commitment covers another coin"};
      if (commitment.nonce != nonce)
        return Refusal{RefusalReason::kBadNonce,
                       "commitment nonce does not bind this merchant"};
      if (now >= commitment.expires)
        return Refusal{RefusalReason::kStaleRequest, "commitment expired"};
      const auto& witnesses = transcript.coin.witnesses;
      auto entry = std::find_if(witnesses.begin(), witnesses.end(),
                                [&](const SignedWitnessEntry& e) {
                                  return e.merchant == commitment.witness;
                                });
      if (entry == witnesses.end())
        return Refusal{RefusalReason::kWrongWitness,
                       "commitment from a non-assigned witness"};
      const auto earlier = commitments.begin() + static_cast<std::ptrdiff_t>(j);
      if (std::any_of(commitments.begin(), earlier,
                      [&](const WitnessCommitment& c) {
                        return c.witness == commitment.witness;
                      }))
        return Refusal{RefusalReason::kBadProof,
                       "duplicate commitment witness"};
      if (!sig::verify(grp_, entry->witness_key, commitment.signed_payload(),
                       commitment.witness_sig))
        return Refusal{RefusalReason::kBadSignature,
                       "witness commitment signature invalid"};
      return std::monostate{};
    });
  }
  checks.emplace_back([&]() -> Ok {
    if (commitments.size() < info.witness_k)
      return Refusal{RefusalReason::kBadProof,
                     "insufficient witness commitments"};
    return std::monostate{};
  });
  if (auto ok = run_checks(checks, runner); !ok) return ok;

  pending_.emplace(coin_hash,
                   PendingPayment{transcript, commitments, {}});
  return std::monostate{};
}

Outcome<bool> Merchant::add_endorsement(const Hash256& coin_hash,
                                        const WitnessEndorsement& endorsement) {
  auto it = pending_.find(coin_hash);
  if (it == pending_.end())
    return Refusal{RefusalReason::kStaleRequest, "no pending payment"};
  PendingPayment& payment = it->second;

  auto entry = std::find_if(payment.transcript.coin.witnesses.begin(),
                            payment.transcript.coin.witnesses.end(),
                            [&](const SignedWitnessEntry& e) {
                              return e.merchant == endorsement.witness;
                            });
  if (entry == payment.transcript.coin.witnesses.end())
    return Refusal{RefusalReason::kWrongWitness,
                   "endorsement from a non-assigned witness"};
  bool already = std::any_of(payment.endorsements.begin(),
                             payment.endorsements.end(),
                             [&](const WitnessEndorsement& e) {
                               return e.witness == endorsement.witness;
                             });
  // A duplicated network delivery, not an attack: the witness re-issued an
  // identical endorsement on a retried sign request.  kDuplicate lets the
  // actor layer suppress it instead of refusing the whole payment.
  if (already)
    return Refusal{RefusalReason::kDuplicate, "duplicate endorsement"};
  if (!sig::verify(grp_, entry->witness_key,
                   payment.transcript.signed_payload(),
                   endorsement.signature))
    return Refusal{RefusalReason::kBadSignature,
                   "witness endorsement signature invalid"};

  payment.endorsements.push_back(endorsement);
  if (payment.endorsements.size() <
      payment.transcript.coin.bare.info.witness_k)
    return false;  // keep collecting

  // Enough endorsements: deliver service, queue the deposit.
  deposit_queue_.push_back(
      SignedTranscript{payment.transcript, payment.endorsements});
  seen_coins_.emplace(coin_hash, std::monostate{});
  pending_.erase(it);
  ++services_delivered_;
  return true;
}

Outcome<DoubleSpendProof> Merchant::handle_double_spend(
    const Hash256& coin_hash, const DoubleSpendProof& proof) {
  auto it = pending_.find(coin_hash);
  if (it == pending_.end())
    return Refusal{RefusalReason::kStaleRequest, "no pending payment"};
  const PaymentTranscript& t = it->second.transcript;
  // The proof must actually open this coin's commitments — otherwise the
  // witness is stonewalling with garbage.
  const auto current = current_commitments(t.coin);
  if (proof.coin_hash != coin_hash || proof.a != current.a ||
      proof.b != current.b || !proof.verify(grp_))
    return Refusal{RefusalReason::kBadProof,
                   "double-spend proof does not verify"};
  pending_.erase(it);
  ++double_spends_blocked_;
  return proof;
}

const PaymentTranscript* Merchant::pending(const Hash256& coin_hash) const {
  auto it = pending_.find(coin_hash);
  return it == pending_.end() ? nullptr : &it->second.transcript;
}

void Merchant::abandon(const Hash256& coin_hash) { pending_.erase(coin_hash); }

std::size_t Merchant::drop_pending() {
  const std::size_t dropped = pending_.size();
  pending_.clear();
  return dropped;
}

std::vector<SignedTranscript> Merchant::drain_deposit_queue() {
  return std::exchange(deposit_queue_, {});
}

}  // namespace p2pcash::ecash
