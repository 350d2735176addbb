// transcript.h — payment transcripts and witness commitments.
//
// Paper Algorithm 2.  A payment transcript binds a coin to one merchant and
// one time through the challenge d = H0(C, I_M, date/time) and the NIZK
// response (r1, r2); it is publicly verifiable yet unusable by anyone else
// (requirement: "anyone that sees the transcript should not be able to
// forge another payment transcript, or cash the coin").  The witness first
// issues a signed *commitment* (step 2) promising to sign the transcript,
// bound to the target merchant through nonce = h(salt_C || I_M) without
// learning the merchant ahead of time.

#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "ecash/coin.h"
#include "ecash/common.h"
#include "nizk/representation.h"
#include "sig/schnorr_sig.h"

namespace p2pcash::ecash {

using Hash256 = std::array<std::uint8_t, 32>;

/// Reads a Hash256 written as wire bytes (`Writer::put_bytes`).  Throws
/// wire::DecodeError unless exactly 32 bytes are present.
Hash256 read_hash256(wire::Reader& r);

/// d = H0(C, I_M, date/time) — the payment challenge. Counts one Hash.
bn::BigInt payment_challenge(const group::SchnorrGroup& grp, const Coin& coin,
                             const MerchantId& merchant, Timestamp datetime);

/// nonce = h(salt_C || I_M): commits the payment to a merchant without
/// revealing the merchant to the witness. Counts one Hash.
Hash256 payment_nonce(const std::vector<std::uint8_t>& salt,
                      const MerchantId& merchant);

/// The full payment transcript of Algorithm 2 step 3/4.
struct PaymentTranscript {
  Coin coin;
  nizk::Response resp;  // r1 = x1 + d*y1, r2 = x2 + d*y2
  MerchantId merchant;  // I_M
  Timestamp datetime = 0;
  std::vector<std::uint8_t> salt;  // salt_C (nonce preimage part)

  /// Canonical bytes the witness signs.
  std::vector<std::uint8_t> signed_payload() const;

  void encode(wire::Writer& w) const;
  static PaymentTranscript decode(wire::Reader& r);

  friend bool operator==(const PaymentTranscript&,
                         const PaymentTranscript&) = default;
};

/// Verifies the transcript's NIZK: d = H0(C, I_M, date/time) and
/// A * B^d == g1^r1 * g2^r2.  Costs 1 Hash + 3 Exp.  (Coin validity is
/// checked separately by verify_coin.)
bool verify_transcript_proof(const group::SchnorrGroup& grp,
                             const PaymentTranscript& transcript);

/// The value the witness commits to with h(v) in step 2: either fresh
/// randomness (coin unseen) or evidence of a prior spend.
struct CommittedValue {
  enum class Kind : std::uint8_t {
    kFresh = 0,           ///< random value — coin not seen before
    kPriorTranscript = 1, ///< salted prior payment transcript
    kExtracted = 2,       ///< recovered representation(s)
  };
  Kind kind = Kind::kFresh;
  std::vector<std::uint8_t> payload;  // canonical encoding per kind

  static CommittedValue fresh(bn::Rng& rng);
  static CommittedValue prior_transcript(const PaymentTranscript& t,
                                         bn::Rng& rng);
  static CommittedValue extracted(const nizk::ExtractedSecrets& secrets);

  /// h(v). Counts one Hash.
  Hash256 hash() const;

  void encode(wire::Writer& w) const;
  static CommittedValue decode(wire::Reader& r);

  friend bool operator==(const CommittedValue&, const CommittedValue&) = default;
};

/// Step-2 witness commitment: a signed promise to countersign this coin's
/// next valid transcript at the (hidden) merchant behind `nonce`, valid
/// until `expires`.
struct WitnessCommitment {
  Hash256 coin_hash{};
  Hash256 nonce{};
  Hash256 value_hash{};  // h(v)
  Timestamp expires = 0; // t_e
  MerchantId witness;    // issuing witness I_{M_C}
  sig::Signature witness_sig;

  std::vector<std::uint8_t> signed_payload() const;

  void encode(wire::Writer& w) const;
  static WitnessCommitment decode(wire::Reader& r);

  friend bool operator==(const WitnessCommitment&,
                         const WitnessCommitment&) = default;
};

/// A witness's countersignature over a payment transcript.
struct WitnessEndorsement {
  MerchantId witness;
  sig::Signature signature;

  void encode(wire::Writer& w) const;
  static WitnessEndorsement decode(wire::Reader& r);

  friend bool operator==(const WitnessEndorsement&,
                         const WitnessEndorsement&) = default;
};

/// What the merchant deposits: the transcript plus >= witness_k
/// endorsements (paper Algorithm 3 step 1).
struct SignedTranscript {
  PaymentTranscript transcript;
  std::vector<WitnessEndorsement> endorsements;

  void encode(wire::Writer& w) const;
  static SignedTranscript decode(wire::Reader& r);

  friend bool operator==(const SignedTranscript&,
                         const SignedTranscript&) = default;
};

/// Publicly verifiable double-spend evidence: the coin's commitments plus a
/// recovered representation of A (and/or B).
struct DoubleSpendProof {
  Hash256 coin_hash{};
  bn::BigInt a;  // commitment A from the coin
  bn::BigInt b;  // commitment B from the coin
  nizk::ExtractedSecrets secrets;

  void encode(wire::Writer& w) const;
  static DoubleSpendProof decode(wire::Reader& r);

  /// Checks A == g1^x1 g2^x2 and B == g1^y1 g2^y2 (4 Exp). Anyone can run
  /// this; a valid proof is impossible without a double-spend (paper §6).
  bool verify(const group::SchnorrGroup& grp) const;
};

}  // namespace p2pcash::ecash
