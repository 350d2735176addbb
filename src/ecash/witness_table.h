// witness_table.h — broker-published witness range assignments.
//
// Paper §4: each participating merchant M is assigned a range
// R_M = [r_{M,1}, r_{M,2}) ⊂ [0, 2^k); the ranges are disjoint and cover
// [0, 2^k).  The witness of a coin is the merchant whose range contains
// h(bare coin).  The broker signs each entry individually —
// Sig_B(version/date, {I_M, r_{M,1}, r_{M,2}}) — so a coin only carries the
// entries of its own witnesses and verifiers never need the whole history
// of assignments (withdrawal requirement 3).
//
// Hard-working witnesses get proportionally larger ranges (the broker's
// incentive lever from §4 "Witness Motivation and Assignment").

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bn/bigint.h"
#include "ecash/common.h"
#include "sig/schnorr_sig.h"
#include "wire/codec.h"

namespace p2pcash::ecash {

/// Width of the witness-selection hash space [0, 2^kRangeBits).
inline constexpr std::size_t kRangeBits = 160;

/// One broker-signed witness-range assignment, embedded in coins.
struct SignedWitnessEntry {
  std::uint32_t version = 0;    ///< witness-table version ("version/date")
  Timestamp published_at = 0;
  MerchantId merchant;          ///< I_M
  sig::PublicKey witness_key;   ///< for verifying commitments/transcripts
  bn::BigInt lo;                ///< r_{M,1}
  bn::BigInt hi;                ///< r_{M,2}; range is [lo, hi)
  sig::Signature broker_sig;    ///< over everything above

  /// Canonical signed payload (everything except broker_sig).
  std::vector<std::uint8_t> signed_payload() const;

  void encode(wire::Writer& w) const;
  static SignedWitnessEntry decode(wire::Reader& r);

  bool contains(const bn::BigInt& point) const {
    return lo <= point && point < hi;
  }

  friend bool operator==(const SignedWitnessEntry&,
                         const SignedWitnessEntry&) = default;
};

/// A published table: one entry per participating witness merchant.
class WitnessTable {
 public:
  /// Builds and signs a table. `weights` maps merchants to relative range
  /// sizes (the broker's performance-based assignment); weights must be
  /// positive.  Ranges partition [0, 2^kRangeBits) in merchant order.
  struct Participant {
    MerchantId merchant;
    sig::PublicKey key;
    std::uint64_t weight = 1;
  };
  static WitnessTable build(std::uint32_t version, Timestamp published_at,
                            const std::vector<Participant>& participants,
                            const sig::KeyPair& broker_key, bn::Rng& rng);

  std::uint32_t version() const { return version_; }
  Timestamp published_at() const { return published_at_; }
  const std::vector<SignedWitnessEntry>& entries() const { return entries_; }

  /// The entry whose range contains `point`; nullopt only if the table is
  /// empty (ranges always cover the whole space).
  std::optional<SignedWitnessEntry> lookup(const bn::BigInt& point) const;

  /// Entry for a given merchant id.
  std::optional<SignedWitnessEntry> find(const MerchantId& merchant) const;

  /// Verifies every entry signature and that ranges are disjoint, sorted,
  /// and cover [0, 2^kRangeBits) exactly.
  bool validate(const group::SchnorrGroup& grp,
                const sig::PublicKey& broker_key) const;

  void encode(wire::Writer& w) const;
  static WitnessTable decode(wire::Reader& r);

 private:
  std::uint32_t version_ = 0;
  Timestamp published_at_ = 0;
  std::vector<SignedWitnessEntry> entries_;  // sorted by lo
};

}  // namespace p2pcash::ecash
