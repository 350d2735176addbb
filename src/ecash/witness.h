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
// Thread safety: a witness is the one serial authority for its coins, and
// its whole purpose is an atomic check-then-sign — two racing spends of
// one coin must yield exactly one endorsement.  As in Broker, one mutex
// guards all of its state.  The expensive cryptography (coin checks,
// NIZK/signature verification) runs on immutable inputs with no lock
// held; only the state transition itself happens under the lock, with the
// spend state re-checked there (check-outside / decide-under-lock).  The
// shared `rng` is only drawn from under the lock; it must not be used
// concurrently by other components.

#pragma once

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

  /// How long a commitment stays live (t_e - now): 30 s.
  static constexpr Timestamp commitment_ttl() { return 30'000; }

  /// Step 1 -> 2.  Refuses with kCommitmentOutstanding while an unexpired
  /// commitment for the same coin exists ("the witness must not issue new
  /// commitments on this coin_hash until this commitment expires").
  Outcome<WitnessCommitment> request_commitment(const Hash256& coin_hash,
                                                const Hash256& nonce,
                                                Timestamp now);

  /// Step 4 -> 5.  On first valid spend: endorsement. On a second spend
  /// with a different challenge: DoubleSpendProof. Refusals: wrong witness,
  /// invalid coin/proof, missing or mismatched commitment (bad nonce).
  /// The coin and NIZK checks run on `runner` (checks.h; empty = in order
  /// on this thread) with no lock held; the spend state machine runs on
  /// the calling thread after they all passed.
  Outcome<SignResult> sign_transcript(const PaymentTranscript& transcript,
                                      Timestamp now,
                                      const CheckRunner& runner = {});

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
  /// invalidating the coin for its rightful current holder.
  std::vector<DoubleSpendProof> stale_owner_evidence() const {
    sync::MutexLock lock(mu_);
    return stale_owner_evidence_;
  }
  /// Number of coins this witness has countersigned (its "performance",
  /// which the broker feeds back into range sizes).
  std::uint64_t coins_signed() const {
    sync::MutexLock lock(mu_);
    return state_.coins_signed;
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
  // lock and commits it before the entry point returns.  An acknowledged
  // endorsement therefore survives a kill — the witness can never be
  // tricked into double-signing by crashing it.

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

  /// Finds this witness's entry index in the coin, verifying the witness
  /// point; nullopt if the coin is not ours.  Immutable inputs only.
  std::optional<std::size_t> own_entry_index(const Coin& coin,
                                             const Hash256& coin_hash) const;

  /// Everything about a presented coin except spend state, as independent
  /// checks (checks.h), in order: the coin is ours (probe sequence, entry
  /// version), our entry's broker signature, expiry and the blind
  /// signature, the transfer chain.  Pure functions of the coin and the
  /// service's immutable keys — run with no lock held.  They borrow `coin`
  /// and `coin_hash`.
  std::vector<Check> presented_coin_checks(const Coin& coin,
                                           const Hash256& coin_hash,
                                           Timestamp now) const;

  // ---- store journaling (see attach_store) ----
  //
  // One wire::Writer per entry point → one log record → torn tails never
  // persist half a transition.  Encoders are static over the record
  // values; callers journal while holding mu_ (kStore sits below
  // kService).
  /// Appends `w` as one delta record; no-op when no store is attached.
  void journal(const wire::Writer& w) P2P_REQUIRES(mu_);
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

  /// Everything a checkpoint holds: the live state, and what recovery
  /// stages into lock-free.  The delta_* encoders above are the only
  /// writers of each record's fields and decode_record the only reader
  /// (last-wins per key).
  struct Durable {
    std::map<Hash256, CommitmentRecord> commitments;
    std::map<Hash256, SpentRecord> spent;
    std::map<Hash256, DoubleSpentRecord> double_spent;
    std::map<Hash256, std::vector<TransferLink>> chains;
    std::uint64_t coins_signed = 0;
  };
  std::vector<std::uint8_t> snapshot_locked() const P2P_REQUIRES(mu_);
  /// Decodes a checkpoint: magic, records up to the end marker.
  static Durable decode_checkpoint(std::span<const std::uint8_t> snapshot);
  /// Decodes the sub-record tagged `tag` into `into`; throws
  /// wire::DecodeError on an unknown tag.
  static void decode_record(std::uint8_t tag, wire::Reader& r, Durable& into);

  group::SchnorrGroup grp_;    // immutable shared parameters: no guard
  sig::PublicKey broker_key_;  // fixed at construction
  MerchantId id_;              // fixed at construction
  sig::KeyPair key_;           // fixed at construction
  bn::Rng& rng_;               // external; only drawn from under mu_
  /// Set by attach_store while quiescent, then only read — unguarded reads
  /// never race (same contract as Broker::store_).
  store::Store* store_ = nullptr;
  /// Serializes every state transition (see the thread-safety note in the
  /// header comment).  Never held across the checks' runner: kPool ranks
  /// above kService.
  mutable sync::Mutex mu_{"ecash.witness", sync::level::kService};
  bool faulty_ P2P_GUARDED_BY(mu_) = false;
  Durable state_ P2P_GUARDED_BY(mu_);
  std::vector<DoubleSpendProof> stale_owner_evidence_ P2P_GUARDED_BY(mu_);
};

}  // namespace p2pcash::ecash
