// coin.h — coin structures: public info, the bare coin, the full coin.
//
// Paper §4/§5: the *bare coin* is (rho, omega, sigma, delta, info, A, B) —
// the Abe–Okamoto partially blind signature of the broker over the client's
// representation commitments A, B with public attachment `info`.  The
// *full-fledged coin* additionally carries the broker-signed witness-range
// entries selected by h(bare coin), which non-malleably assign the coin's
// witness merchant(s).

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "blindsig/abe_okamoto.h"
#include "bn/bigint.h"
#include "ecash/checks.h"
#include "ecash/common.h"
#include "ecash/witness_table.h"
#include "group/schnorr_group.h"
#include "wire/codec.h"

namespace p2pcash::ecash {

/// The public, unblinded attachment `info` (paper: denomination, witness
/// list version, soft and hard expiration dates, witness policy).
struct CoinInfo {
  Cents denomination = 0;
  std::uint32_t list_version = 0;   ///< witness-table version
  Timestamp soft_expiry = 0;        ///< unspendable after; renewable until…
  Timestamp hard_expiry = 0;        ///< …completely void after
  std::uint8_t witness_n = 1;       ///< witnesses assigned per coin
  std::uint8_t witness_k = 1;       ///< signatures required (k-of-n)
  /// Escrow extension: ElGamal ciphertext of the owner identity under an
  /// escrow authority's key; empty for fully anonymous coins.  Covered by
  /// the blind signature (it is part of `info`), so it cannot be stripped.
  /// See src/escrow/escrow.h for the anonymity trade-off this implies.
  std::vector<std::uint8_t> escrow_tag;

  void encode(wire::Writer& w) const;
  static CoinInfo decode(wire::Reader& r);
  std::vector<std::uint8_t> bytes() const { return wire::encode(*this); }

  friend bool operator==(const CoinInfo&, const CoinInfo&) = default;
};

/// The broker-blind-signed core of a coin.
struct BareCoin {
  blindsig::PartialBlindSignature sig;  // rho, omega, sigma, delta
  CoinInfo info;
  bn::BigInt a;  // A = g1^x1 g2^x2
  bn::BigInt b;  // B = g1^y1 g2^y2

  void encode(wire::Writer& w) const;
  static BareCoin decode(wire::Reader& r);
  std::vector<std::uint8_t> bytes() const { return wire::encode(*this); }

  /// The commitment message the blind signature covers (A, B encoded).
  std::vector<std::uint8_t> blind_message() const;

  /// coin_hash = h(rho, omega, sigma, delta, info, A, B).  This is the
  /// paper's h(bare coin): it both selects the coin's witness(es) (via
  /// witness_point) and keys the witness/broker databases. One Hash.
  std::array<std::uint8_t, 32> coin_hash() const;

  /// Convenience: witness_point(coin_hash(), index). Counts the coin_hash'
  /// Hash (plus one more for index > 0).
  bn::BigInt witness_point(std::uint8_t index) const;

  friend bool operator==(const BareCoin&, const BareCoin&) = default;
};

/// Bare coin + its broker-signed witness assignment = spendable coin.
/// The 160-bit witness-selection value for probe `index`, derived from
/// h(bare coin).  Probe 0 is the truncation of the coin hash itself (the
/// paper's h(bare coin)); higher probes (the k-of-n extension) re-hash
/// with the index, counting one extra Hash each.
bn::BigInt witness_point(const std::array<std::uint8_t, 32>& coin_hash,
                         std::uint8_t index);

/// Maximum probes when assigning witness_n distinct witnesses.
inline constexpr std::uint8_t kMaxWitnessProbes = 64;

/// One hand-off in a transferable coin's ownership chain (the PPay-style
/// transferability extension, paper §2/§8).  The previous owner proves
/// ownership of the commitments current *before* this link by responding
/// to a transfer challenge bound to the recipient's fresh commitments
/// (new_a, new_b); the coin's witness countersigns and thereafter holds
/// the coin to the new commitments.  "Transferred cash grows in size"
/// (Chaum–Pedersen): each hop appends one link.
struct TransferLink {
  bn::BigInt new_a;         ///< recipient's A' = g1^x1' g2^x2'
  bn::BigInt new_b;         ///< recipient's B' = g1^y1' g2^y2'
  bn::BigInt r1, r2;        ///< previous owner's response to the challenge
  Timestamp datetime = 0;
  std::string witness;      ///< endorsing witness I_M
  bn::BigInt sig_e, sig_s;  ///< witness Schnorr signature over the link

  /// Canonical signed payload (everything except the signature), bound to
  /// the coin and chain position by the caller-provided context hash.
  std::vector<std::uint8_t> signed_payload(
      const std::array<std::uint8_t, 32>& coin_hash,
      std::uint32_t position) const;

  void encode(wire::Writer& w) const;
  static TransferLink decode(wire::Reader& r);

  friend bool operator==(const TransferLink&, const TransferLink&) = default;
};

struct Coin {
  BareCoin bare;
  /// Entry i is the signed range containing witness_point(i);
  /// size == bare.info.witness_n.
  std::vector<SignedWitnessEntry> witnesses;
  /// Ownership chain; empty for a never-transferred coin.  Covered by the
  /// payment challenge d = H0(C, ...) since C includes it.
  std::vector<TransferLink> transfers;

  void encode(wire::Writer& w) const;
  static Coin decode(wire::Reader& r);
  std::vector<std::uint8_t> bytes() const { return wire::encode(*this); }

  friend bool operator==(const Coin&, const Coin&) = default;
};

/// The commitments the coin currently answers to: (A, B) from the bare
/// coin, or the last transfer link's (new_a, new_b).
struct CurrentCommitments {
  bn::BigInt a, b;
};
CurrentCommitments current_commitments(const Coin& coin);

/// The challenge the previous owner answers when appending link `position`
/// (over the bare coin, all prior links, and the new commitments). 1 Hash.
bn::BigInt transfer_challenge(const group::SchnorrGroup& grp,
                              const Coin& coin_before_link,
                              const bn::BigInt& new_a, const bn::BigInt& new_b,
                              Timestamp datetime);

/// Verifies every link of the coin's transfer chain: the previous owner's
/// response under the commitments current at that position, and the
/// witness signature (which must come from witness slot 0 — transfers are
/// single-witness in this implementation).  3 Exp + 1 Hash + 1 Ver per link.
Outcome<std::monostate> verify_transfer_chain(const group::SchnorrGroup& grp,
                                              const Coin& coin);

/// Checks that `coin.witnesses` is exactly the canonical assignment derived
/// from h(bare coin): probe indices 0, 1, 2, … yield points; a point that
/// falls inside an already-assigned witness's range is skipped (ranges are
/// per-merchant, so this guarantees witness_n *distinct* witnesses); each
/// remaining point must fall in the next claimed entry's range, in order.
/// Verifiable from the coin alone — no table history needed (withdrawal
/// requirement 3).
bool check_witness_probe_sequence(
    const Coin& coin, const std::array<std::uint8_t, 32>& coin_hash);

/// Full public verification of a coin, as any merchant performs it in the
/// payment protocol (paper Algorithm 2, step 3), as independent checks
/// (checks.h), in this order:
///   * validity window contains `now` (soft expiry not passed), sane
///     witness policy, and the broker's partially blind signature over
///     (info, A, B) verifies;
///   * the coin carries witness_n entries;
///   * each witness entry matches info.list_version and is broker-signed
///     (one check per entry);
///   * the entries are the probe sequence of h(bare coin);
///   * the transfer chain verifies.
/// Cost: 4 Exp + 2 Hash for the blind signature, 1 Hash for h(bare coin)
/// and 1 per further witness point, 1 Ver per witness entry.  The checks
/// borrow `grp`, `broker_key` and `coin`, which must outlive them.
std::vector<Check> coin_checks(const group::SchnorrGroup& grp,
                               const sig::PublicKey& broker_key,
                               const Coin& coin, Timestamp now);

/// Runs coin_checks in order on the calling thread.
Outcome<std::monostate> verify_coin(const group::SchnorrGroup& grp,
                                    const sig::PublicKey& broker_key,
                                    const Coin& coin, Timestamp now);

/// Same, but run by the broker itself using its signing secret — the
/// cheaper g^(rho + x*omega) path (3 Exp + 2 Hash) that Table 1's deposit
/// row reflects.  Witness entries are checked against the broker's own
/// table records by the caller, so this validates the bare coin only.
Outcome<std::monostate> verify_bare_coin_with_secret(
    const group::SchnorrGroup& grp, const bn::BigInt& broker_secret,
    const BareCoin& bare);

}  // namespace p2pcash::ecash
