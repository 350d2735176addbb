// witness.h — the witness role: real-time double-spending prevention.
//
// Every merchant runs a WitnessService for the coins whose witness point
// falls in its published range.  The service implements steps 1–2 and 4–5
// of the payment protocol (paper Algorithm 2):
//
//   * request_commitment: issue a signed promise (coin_hash, nonce, h(v),
//     t_e, "commit") to countersign this coin's next valid transcript.  Only
//     one live commitment per coin at a time; v proves, after the fact, what
//     the witness knew when it committed (fresh randomness vs. evidence of a
//     prior spend) — the race-condition audit hook of §5.
//   * sign_transcript: verify the coin and its NIZK, enforce the nonce
//     binding, and either countersign (first spend) or answer with a
//     publicly verifiable DoubleSpendProof extracted from the two
//     conflicting transcripts.
//
// After detecting a double spend the witness keeps only the extracted
// representations and the coin hash, "dropping all transcripts", so it can
// prove double-spending without revealing where the coin was first spent.
//
// Thread safety: a witness serves commitment/sign requests from many
// payers at once, and its whole purpose is an atomic check-then-sign —
// two racing spends of one coin must yield exactly one endorsement.  The
// coin-keyed state (commitments, spent records, double-spend proofs,
// transfer chains) is sharded into stripes by coin-hash prefix, each with
// its own mutex, so concurrent payments of DIFFERENT coins proceed in
// parallel while two racing spends of ONE coin still serialize on that
// coin's stripe.  The expensive cryptography (coin checks, NIZK/signature
// verification) runs on immutable inputs with no lock held; only the
// state transition itself happens under the stripe, with the spend state
// re-checked there (check-outside / decide-under-lock).  A service-level
// mutex guards the scalar config and accounting fields, and the shared
// `rng` has a dedicated guard so countersignings on different stripes can
// draw from it safely; it must not be used concurrently by other
// components.

#pragma once

#include <array>
#include <map>
#include <span>
#include <variant>

#include "ecash/transcript.h"
#include "store/store.h"
#include "sync/annotated.h"

namespace p2pcash::ecash {

/// Outcome of a sign_transcript call: a countersignature, or proof that the
/// coin was already spent.
using SignResult = std::variant<WitnessEndorsement, DoubleSpendProof>;

class WitnessService {
 public:
  /// `rng` must outlive the service.
  WitnessService(group::SchnorrGroup grp, sig::PublicKey broker_key,
                 MerchantId id, sig::KeyPair key, bn::Rng& rng);

  const MerchantId& id() const { return id_; }
  const sig::PublicKey& public_key() const { return key_.public_key(); }

  /// How long a commitment stays live (t_e - now). Default 30 s.
  void set_commitment_ttl(Timestamp ttl_ms) {
    sync::MutexLock lock(mu_);
    commitment_ttl_ = ttl_ms;
  }
  Timestamp commitment_ttl() const {
    sync::MutexLock lock(mu_);
    return commitment_ttl_;
  }

  /// Step 1 -> 2.  Refuses with kCommitmentOutstanding while an unexpired
  /// commitment for the same coin exists ("the witness must not issue new
  /// commitments on this coin_hash until this commitment expires").
  Outcome<WitnessCommitment> request_commitment(const Hash256& coin_hash,
                                                const Hash256& nonce,
                                                Timestamp now);

  /// Step 4 -> 5.  On first valid spend: endorsement. On a second spend
  /// with a different challenge: DoubleSpendProof. Refusals: wrong witness,
  /// invalid coin/proof, missing or mismatched commitment (bad nonce).
  Outcome<SignResult> sign_transcript(const PaymentTranscript& transcript,
                                      Timestamp now);

  /// Conflict resolution (paper §5): reveal the value v committed under
  /// h(v) so an arbiter can decide whether the witness knew of a prior
  /// spend when it committed.  Reveals the *latest* commitment for the coin.
  Outcome<CommittedValue> reveal_committed_value(const Hash256& coin_hash);

  /// Transferability extension: countersigns an ownership hand-off.  The
  /// presented coin (with its chain so far) must match this witness's
  /// recorded chain; `response` must open the coin's current commitments
  /// against transfer_challenge(coin, new_a, new_b, datetime).  On a stale
  /// chain or an already-spent coin the conflicting responses let us
  /// extract the current owner's secrets — the same self-incrimination as
  /// double spending.
  Outcome<std::variant<TransferLink, DoubleSpendProof>> sign_transfer(
      const Coin& coin, const bn::BigInt& new_a, const bn::BigInt& new_b,
      const nizk::Response& response, Timestamp datetime, Timestamp now);

  /// True if this witness has recorded a double-spend for the coin.
  bool has_double_spend_record(const Hash256& coin_hash) const;
  /// Proofs extracted against *stale* owners of transferred coins (their
  /// old commitments).  These incriminate the previous owner without
  /// invalidating the coin for its rightful current holder.  Returns a
  /// reference into live state: quiescent audit reads only, hence the
  /// analysis opt-out.
  const std::vector<DoubleSpendProof>& stale_owner_evidence() const
      P2P_NO_THREAD_SAFETY_ANALYSIS {
    return stale_owner_evidence_;
  }
  /// Number of coins this witness has countersigned (its "performance",
  /// which the broker feeds back into range sizes).
  std::uint64_t coins_signed() const {
    sync::MutexLock lock(mu_);
    return coins_signed_;
  }

  /// Fault injection for tests/benches: a faulty witness signs transcripts
  /// unconditionally, never reporting double-spends (the misbehaviour the
  /// broker's deposit protocol must catch and charge).
  void set_faulty(bool faulty) {
    sync::MutexLock lock(mu_);
    faulty_ = faulty;
  }

  // ---- crash recovery -------------------------------------------------
  //
  // A witness that forgets its spent-coin state after a crash would sign a
  // coin twice and be charged for it (Algorithm 3 case 2-b), so the state
  // must survive restarts.  snapshot_state() captures commitments, spent
  // records and double-spend proofs in canonical bytes; restore_state()
  // rebuilds them on a freshly constructed service (same key).  The bytes
  // are the store's checkpoint format (see attach_store).

  /// Serializes all double-spend-relevant state: a magic string, then one
  /// journal record per live entry (the same bytes the deltas use) and an
  /// end marker, so a prefix cut on a record boundary is still rejected.
  std::vector<std::uint8_t> snapshot_state() const;
  /// Replaces current state with a snapshot. Throws wire::DecodeError on
  /// malformed input, leaving the state unchanged.  If a store is
  /// attached, the restored state is checkpointed into it.
  void restore_state(std::span<const std::uint8_t> snapshot);

  // ---- durable store ---------------------------------------------------
  //
  // Same contract as Broker::attach_store: with a store attached, every
  // state transition (commitment issued, coin countersigned, double-spend
  // recorded, transfer chained) journals one atomic delta record under the
  // coin's stripe and commits it before the entry point returns.  An
  // acknowledged endorsement therefore survives a kill — the witness can
  // never be tricked into double-signing by crashing it.

  /// Attaches a store while the service is quiescent.  Empty store →
  /// genesis checkpoint; non-empty → state replaced by checkpoint + deltas,
  /// all decoded into staging first: a record that fails to decode throws
  /// wire::DecodeError and leaves the state unchanged.
  void attach_store(store::Store& store);
  /// Compacts the attached store to one checkpoint. No-op when detached.
  /// The runtime never calls it: logs grow until an explicit compaction.
  void checkpoint_store();
  bool has_store() const { return store_ != nullptr; }

 private:
  struct CommitmentRecord {
    WitnessCommitment commitment;
    CommittedValue value;
    /// Set once the committed transaction's transcript has been signed: the
    /// promise is fulfilled, so a new commitment may be issued (a later
    /// transcript can only trigger double-spend extraction).
    bool consumed = false;
  };
  struct SpentRecord {
    PaymentTranscript transcript;
    WitnessEndorsement endorsement;  // reissued on idempotent retries
  };
  struct DoubleSpentRecord {
    DoubleSpendProof proof;
  };

  /// Coin-keyed state is sharded by coin-hash prefix: the top kStripeBits
  /// of the hash's first byte pick the stripe.  Because the stripe index
  /// is the most-significant prefix, visiting stripes in order and each
  /// stripe's maps in order yields global Hash256 order, so a snapshot
  /// is canonical without merging the stripes.
  static constexpr std::size_t kStripeBits = 4;
  static constexpr std::size_t kStripeCount = std::size_t{1} << kStripeBits;

  struct Stripe {
    /// Every stripe shares one name and level (sync::level::kShard), so
    /// the runtime lock-order checker reports any attempt to hold two
    /// stripes at once — stripes may only be visited sequentially.
    mutable sync::Mutex mu{"ecash.witness_stripe", sync::level::kShard};
    std::map<Hash256, CommitmentRecord> commitments P2P_GUARDED_BY(mu);
    std::map<Hash256, SpentRecord> spent P2P_GUARDED_BY(mu);
    std::map<Hash256, DoubleSpentRecord> double_spent P2P_GUARDED_BY(mu);
    std::map<Hash256, std::vector<TransferLink>> chains P2P_GUARDED_BY(mu);
  };

  static std::size_t stripe_index(const Hash256& coin_hash) {
    return coin_hash[0] >> (8 - kStripeBits);
  }
  Stripe& stripe_for(const Hash256& coin_hash) {
    return stripes_[stripe_index(coin_hash)];
  }
  const Stripe& stripe_for(const Hash256& coin_hash) const {
    return stripes_[stripe_index(coin_hash)];
  }

  /// Finds this witness's entry index in the coin, verifying the witness
  /// point; nullopt if the coin is not ours.  Immutable inputs only.
  std::optional<std::size_t> own_entry_index(const Coin& coin,
                                             const Hash256& coin_hash) const;

  /// Verifies everything about a presented coin except spend state; on
  /// success returns the index of our witness entry.  Pure function of the
  /// coin and the service's immutable keys — called with no lock held.
  Outcome<std::size_t> check_presented_coin(const Coin& coin,
                                            const Hash256& coin_hash,
                                            Timestamp now) const;

  bool is_faulty() const {
    sync::MutexLock lock(mu_);
    return faulty_;
  }

  // ---- store journaling (see attach_store) ----
  //
  // Encoders are static over the record values (no stripe annotation
  // needed); callers journal while holding the coin's stripe, which is
  // legal because kStore sits below kShard.  One wire::Writer per entry
  // point → one log record → torn tails never persist half a transition.
  /// Appends `w` as one delta record; no-op when no store is attached.
  void journal(const wire::Writer& w);
  static void delta_commitment(wire::Writer& w, const Hash256& hash,
                               const CommitmentRecord& record);
  static void delta_spent(wire::Writer& w, const Hash256& hash,
                          const SpentRecord& record);
  static void delta_double_spent(wire::Writer& w, const Hash256& hash,
                                 const DoubleSpentRecord& record);
  static void delta_chain(wire::Writer& w, const Hash256& hash,
                          const std::vector<TransferLink>& chain);
  static void delta_spent_erase(wire::Writer& w, const Hash256& hash);
  static void delta_counters(wire::Writer& w, std::uint64_t coins_signed);

  /// Everything a checkpoint holds, staged lock-free by recovery: the
  /// delta_* encoders above are the only writers of each record's fields
  /// and decode_record the only reader (last-wins per key).  Installed
  /// under the locks only once every record has decoded.
  struct StripeTables {
    std::map<Hash256, CommitmentRecord> commitments;
    std::map<Hash256, SpentRecord> spent;
    std::map<Hash256, DoubleSpentRecord> double_spent;
    std::map<Hash256, std::vector<TransferLink>> chains;
  };
  struct Durable {
    std::array<StripeTables, kStripeCount> stripes;
    std::uint64_t coins_signed = 0;
  };
  /// Decodes a checkpoint: magic, records up to the end marker.
  static Durable decode_checkpoint(std::span<const std::uint8_t> snapshot);
  /// Decodes the sub-record tagged `tag` into `into`; throws
  /// wire::DecodeError on an unknown tag.
  static void decode_record(std::uint8_t tag, wire::Reader& r, Durable& into);
  /// Replaces the coin tables (one stripe lock at a time) and the counter.
  void install(Durable&& state);

  group::SchnorrGroup grp_;    // immutable shared parameters: no guard
  sig::PublicKey broker_key_;  // fixed at construction
  MerchantId id_;              // fixed at construction
  sig::KeyPair key_;           // fixed at construction
  bn::Rng& rng_;               // external; only drawn from under rng_mu_
  /// Set by attach_store while quiescent, then only read — unguarded reads
  /// never race (same contract as Broker::store_).
  store::Store* store_ = nullptr;
  /// Guards the scalar config/accounting fields.  Never acquired while a
  /// stripe is held (kService > kShard: service lock first or not at all).
  mutable sync::Mutex mu_{"ecash.witness", sync::level::kService};
  /// Guards draws from the shared rng_; taken inside a stripe when a
  /// countersignature needs a nonce (kShardRng < kShard).
  mutable sync::Mutex rng_mu_{"ecash.witness_rng", sync::level::kShardRng};
  Timestamp commitment_ttl_ P2P_GUARDED_BY(mu_) = 30'000;
  bool faulty_ P2P_GUARDED_BY(mu_) = false;
  std::uint64_t coins_signed_ P2P_GUARDED_BY(mu_) = 0;

  std::array<Stripe, kStripeCount> stripes_;
  std::vector<DoubleSpendProof> stale_owner_evidence_ P2P_GUARDED_BY(mu_);
};

}  // namespace p2pcash::ecash
