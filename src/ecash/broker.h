// broker.h — the broker B: coin issuing, witness-table publication, deposit
// clearing, witness punishment, and coin renewal.
//
// The broker is the only party that touches real money (the paper's bank
// interaction is "orthogonal"; we model it as simple cent ledgers).  It is
// explicitly *not* required to be online during payments — nothing in
// WitnessService or Merchant calls into Broker.
//
// Deposit clearing implements paper Algorithm 3 including the two
// double-deposit cases: a merchant re-depositing its own coin is refused;
// two different merchants depositing the same coin means the coin's witness
// signed twice, so the second merchant is paid out of the witness's
// security deposit and the witness is flagged with a two-signature proof.
//
// Renewal implements Algorithm 4.  We close the paper's deposit/renewal
// race with a grace window: deposits are accepted until soft_expiry +
// grace, renewals only after it, so a coin can never be both deposited and
// renewed legitimately.
//
// Thread safety: a real broker serves many clients at once, so every
// public entry point takes an internal mutex — concurrent withdrawals,
// deposits, renewals and table publications are serialized and the
// check-then-record sequences (deposit dedup, one-response-per-session)
// stay atomic.  Published tables live in a deque so references returned by
// current_table()/table() stay valid across later publications.  Accessors
// that return references into live state (witness_faults(),
// renewal_fraud_proofs()) require the broker to be quiescent.

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "blindsig/abe_okamoto.h"
#include "ecash/coin.h"
#include "ecash/transcript.h"
#include "ecash/witness_table.h"
#include "store/store.h"
#include "sync/annotated.h"

namespace p2pcash::ecash {

/// Evidence that a witness signed two transcripts for one coin.
struct WitnessFaultProof {
  Hash256 coin_hash{};
  SignedTranscript first;
  SignedTranscript second;
  MerchantId witness;
};

class Broker {
 public:
  struct Config {
    /// Coin lifetime: soft expiry = issue time + this.
    Timestamp soft_lifetime_ms = 30LL * 24 * 3600 * 1000;
    /// Hard expiry = soft expiry + this.
    Timestamp renewal_window_ms = 30LL * 24 * 3600 * 1000;
    /// Deposits accepted until soft_expiry + grace; renewals only after.
    Timestamp deposit_grace_ms = 24LL * 3600 * 1000;
    /// Witness policy stamped into new coins.
    std::uint8_t witness_n = 1;
    std::uint8_t witness_k = 1;
  };

  /// `rng` must outlive the broker.
  Broker(group::SchnorrGroup grp, bn::Rng& rng, Config config);
  Broker(group::SchnorrGroup grp, bn::Rng& rng)
      : Broker(std::move(grp), rng, Config{}) {}

  Config config() const {
    sync::MutexLock lock(mu_);
    return config_;
  }
  void set_config(const Config& config) {
    sync::MutexLock lock(mu_);
    config_ = config;
  }

  /// The broker's public key y = g^x — verifies both coin blind signatures
  /// and Sig_B on witness-range entries (one broker identity, as in the
  /// paper; the two uses are domain-separated in the hash).
  ///
  /// Unlocked on purpose: the key pair changes only in restore_state(),
  /// which requires the broker to be quiescent (no concurrent callers), so
  /// these reads never race with the write.
  sig::PublicKey coin_key() const P2P_NO_THREAD_SAFETY_ANALYSIS {
    return identity_.public_key();
  }
  const sig::PublicKey& identity_key() const P2P_NO_THREAD_SAFETY_ANALYSIS {
    return identity_.public_key();
  }

  // ---- merchant registration (paper §4: accounts + security deposits) ----

  /// Registers a merchant with its certified key and a security deposit.
  /// Re-registering updates key/deposit.
  void register_merchant(const MerchantId& id, const sig::PublicKey& key,
                         Cents security_deposit);
  bool is_registered(const MerchantId& id) const;

  struct MerchantAccount {
    sig::PublicKey key;
    Cents deposit_remaining = 0;   ///< security deposit left
    std::int64_t balance = 0;      ///< cleared e-cash earnings (cents)
    std::uint64_t weight = 1;      ///< witness-range weight (performance)
    bool flagged = false;          ///< caught double-signing
  };
  /// nullptr if unknown.
  const MerchantAccount* account(const MerchantId& id) const;
  /// Adjusts the range weight the next published table will use.
  void set_weight(const MerchantId& id, std::uint64_t weight);

  // ---- witness table publication ----

  /// Builds, signs and publishes a new table version over all registered,
  /// unflagged merchants. Returns the new table.
  const WitnessTable& publish_witness_table(Timestamp now);
  const WitnessTable& current_table() const;
  /// nullptr if that version was never published.
  const WitnessTable* table(std::uint32_t version) const;

  // ---- withdrawal (Algorithm 1, broker side) ----

  struct WithdrawalOffer {
    std::uint64_t session;
    CoinInfo info;                      ///< agreed public attachment
    blindsig::SignerFirstMessage first; ///< a, b
  };
  /// Step 0+1: fixes info (denomination, current list version, expiries)
  /// and sends the signer commitment. The client pays `denomination` fiat
  /// out of band.
  Outcome<WithdrawalOffer> start_withdrawal(Cents denomination, Timestamp now);

  /// Escrowed variant (src/escrow): the broker — who knows the payer from
  /// the payment rails — embeds Enc_authority(identity) into the coin's
  /// public info before blind-signing, making the coin traceable by the
  /// escrow authority (and only it).  See escrow.h for the anonymity
  /// trade-off.
  Outcome<WithdrawalOffer> start_withdrawal_escrowed(
      Cents denomination, const std::string& client_identity,
      const bn::BigInt& escrow_authority_y, Timestamp now);
  /// Step 3: answers the blinded challenge.  Each session is signed at most
  /// once, but the call is idempotent: retransmitting the *same* challenge
  /// (a client retry after a lost response) re-issues the recorded response;
  /// only a *different* challenge — an attempt at a second signature — is
  /// refused.
  Outcome<blindsig::SignerResponse> finish_withdrawal(std::uint64_t session,
                                                      const bn::BigInt& e);

  // ---- deposit (Algorithm 3) ----

  struct DepositReceipt {
    Cents credited = 0;
    /// True when this deposit was paid out of the witness's security
    /// deposit (double-signed coin, case 2-b).
    bool paid_from_witness_deposit = false;
  };
  Outcome<DepositReceipt> deposit(const MerchantId& depositor,
                                  const SignedTranscript& st, Timestamp now);

  // ---- renewal (Algorithm 4) ----

  struct RenewalOffer {
    std::uint64_t session;
    CoinInfo info;
    blindsig::SignerFirstMessage first;
  };
  /// Step 0+1: like withdrawal, but the new coin is paid for by the old
  /// one, which is checked and consumed in finish_renewal.
  Outcome<RenewalOffer> start_renewal(Cents denomination, Timestamp now);

  /// Step 2+3: the client presents the blinded challenge for the new coin
  /// together with the old coin (including any transfer chain) and a
  /// representation proof for its *current* commitments (challenge derived
  /// from (old coin, "renewal", datetime)).  On success the old coin is
  /// marked renewed and the response for the new coin is returned.  If the
  /// old coin was already deposited or renewed, returns a refusal; the
  /// extracted proof is stored and queryable.
  Outcome<blindsig::SignerResponse> finish_renewal(
      std::uint64_t session, const bn::BigInt& e, const Coin& old_coin,
      const nizk::Response& proof, Timestamp datetime, Timestamp now);

  /// Challenge used for renewal proofs (exposed so wallets compute the
  /// same value): d* = H0(old coin, "renewal", datetime).
  bn::BigInt renewal_challenge(const Coin& coin, Timestamp datetime) const;

  // ---- denomination exchange (making change) ----
  //
  // An extension in the spirit of §8's divisibility discussion: a client
  // swaps one coin for several smaller ones by *paying the coin to the
  // broker* — a regular witness-countersigned payment transcript with
  // merchant = kBrokerCounterparty — and withdrawing the change.  The
  // witness flow gives the exchange the same real-time double-spend
  // protection as any payment; the consumed coin enters the deposit
  // database, so a witness that also countersigned a merchant spend of the
  // same coin is caught and charged exactly as in Algorithm 3 case 2-b.

  /// Consumes the coin in `st` (merchant must be kBrokerCounterparty; all
  /// deposit-grade checks apply) and opens one withdrawal per entry of
  /// `denominations`, whose sum must equal the coin's value.  The client
  /// completes each returned offer exactly like a normal withdrawal.
  Outcome<std::vector<WithdrawalOffer>> exchange(
      const SignedTranscript& st, const std::vector<Cents>& denominations,
      Timestamp now);

  // ---- accounting / audit queries ----

  /// Witness-fault proofs collected from double deposits.  Returns a
  /// reference into live state: callers must hold no concurrent writers
  /// (quiescent audit reads only), hence the analysis opt-out.
  const std::vector<WitnessFaultProof>& witness_faults() const
      P2P_NO_THREAD_SAFETY_ANALYSIS {
    return witness_faults_;
  }
  /// Double-spend proofs extracted during renewal refusals.  Same
  /// quiescence contract as witness_faults().
  const std::vector<DoubleSpendProof>& renewal_fraud_proofs() const
      P2P_NO_THREAD_SAFETY_ANALYSIS {
    return renewal_fraud_proofs_;
  }
  std::uint64_t coins_issued() const {
    sync::MutexLock lock(mu_);
    return coins_issued_;
  }
  std::uint64_t coins_deposited() const {
    sync::MutexLock lock(mu_);
    return deposits_.size();
  }
  std::int64_t fiat_collected() const {
    sync::MutexLock lock(mu_);
    return fiat_collected_;
  }
  std::int64_t fiat_paid_out() const {
    sync::MutexLock lock(mu_);
    return fiat_paid_out_;
  }

  // ---- crash recovery --------------------------------------------------
  //
  // Losing the deposit database would let every outstanding coin be
  // deposited twice; losing the accounts would erase merchant balances.
  // snapshot_state() captures all durable state (including the signing
  // secret — at-rest encryption is a deployment concern); restore_state()
  // rebuilds a broker atomically.  Open withdrawal/renewal sessions are
  // deliberately NOT persisted: an unanswered session is simply retried by
  // the client, and never answering twice is exactly the safe failure mode.

  /// A checkpoint: a magic string, the signing secret x, then one journal
  /// record per live entry (the same bytes the deltas use) and an end
  /// marker, so a prefix cut on a record boundary is still rejected.
  std::vector<std::uint8_t> snapshot_state() const;
  /// Throws wire::DecodeError on malformed input; state unchanged on throw.
  /// If a store is attached, the restored state is checkpointed into it.
  void restore_state(std::span<const std::uint8_t> snapshot);

  // ---- durable store ---------------------------------------------------
  //
  // With a store attached, every mutating entry point journals one atomic
  // delta record describing all of its state changes and commits it
  // (group-commit fsync) before returning — an acknowledged deposit,
  // signature or table publication survives a process kill.  Recovery
  // decodes the checkpoint and then every delta through one decoder into a
  // staging copy; replay is last-wins per key, so reopening after any
  // crash point reproduces exactly the acknowledged prefix of operations.
  // Open sessions stay unpersisted as before.

  /// Attaches a store while the broker is quiescent (no concurrent
  /// callers).  An empty store receives a genesis checkpoint (making the
  /// signing key itself durable); a non-empty store is recovered from:
  /// the broker's entire state is replaced by checkpoint + deltas, or,
  /// if any record fails to decode (wire::DecodeError), left unchanged.
  void attach_store(store::Store& store);
  /// Compacts the attached store to one checkpoint of the current state.
  /// No-op when detached.  The runtime never calls it: logs grow until an
  /// explicit compaction.
  void checkpoint_store();
  bool has_store() const { return store_ != nullptr; }

 private:
  struct DepositRecord {
    SignedTranscript st;
    MerchantId depositor;
  };
  struct RenewalRecord {
    Coin coin;
    nizk::Response proof;
    Timestamp datetime;
  };

  CoinInfo make_info(Cents denomination, Timestamp now) const
      P2P_REQUIRES(mu_);
  /// Lock-free table lookup for use inside already-locked entry points.
  const WitnessTable* table_unlocked(std::uint32_t version) const
      P2P_REQUIRES(mu_);
  /// Validates witness entries against the broker's own published table.
  Outcome<std::monostate> check_witness_assignment(
      const Coin& coin, const Hash256& coin_hash) const P2P_REQUIRES(mu_);
  /// Deposit-grade validation of a signed transcript (windows, own blind
  /// signature, witness assignment, NIZK, >= witness_k valid endorsements).
  /// Returns the endorsing witnesses on success.
  Outcome<std::vector<MerchantId>> validate_signed_transcript(
      const SignedTranscript& st, const Hash256& coin_hash,
      Timestamp now) const P2P_REQUIRES(mu_);

  // ---- store journaling (see attach_store) ----
  //
  // Each mutating entry point gathers its sub-deltas into one wire::Writer
  // and appends them as ONE log record, so a torn tail can never persist
  // half an operation.  A checkpoint is the same sub-records, one per live
  // entry.  The delta_* encoders are the only writers of each record's
  // fields and decode_record the only reader; it is last-wins per key.

  /// Everything a checkpoint holds.  Recovery decodes into one of these
  /// and installs it only once every record has decoded.
  struct Durable {
    bn::BigInt secret;
    std::map<MerchantId, MerchantAccount> accounts;
    std::deque<WitnessTable> tables;
    std::map<Hash256, DepositRecord> deposits;
    std::map<Hash256, RenewalRecord> renewals;
    std::vector<WitnessFaultProof> witness_faults;
    std::vector<DoubleSpendProof> renewal_fraud_proofs;
    std::uint64_t next_session = 1;
    std::uint64_t coins_issued = 0;
    std::int64_t fiat_collected = 0;
    std::int64_t fiat_paid_out = 0;
  };
  std::vector<std::uint8_t> snapshot_locked() const P2P_REQUIRES(mu_);
  /// Decodes a checkpoint: header, records up to the end marker.
  static Durable decode_checkpoint(std::span<const std::uint8_t> snapshot);
  /// Decodes the sub-record tagged `tag` into `into`; throws
  /// wire::DecodeError on an unknown tag.
  static void decode_record(std::uint8_t tag, wire::Reader& r, Durable& into);
  /// Replaces the durable state (and drops open sessions); never throws
  /// on decoded input.
  void install(Durable&& state) P2P_REQUIRES(mu_);
  /// Appends `w` as one delta record; no-op when no store is attached.
  void journal(const wire::Writer& w) P2P_REQUIRES(mu_);
  void delta_account(wire::Writer& w, const MerchantId& id) const
      P2P_REQUIRES(mu_);
  void delta_counters(wire::Writer& w) const P2P_REQUIRES(mu_);
  void delta_deposit(wire::Writer& w, const Hash256& hash) const
      P2P_REQUIRES(mu_);
  void delta_renewal(wire::Writer& w, const Hash256& hash) const
      P2P_REQUIRES(mu_);
  static void delta_table(wire::Writer& w, const WitnessTable& table);
  static void delta_witness_fault(wire::Writer& w,
                                  const WitnessFaultProof& fault);
  static void delta_fraud_proof(wire::Writer& w,
                                const DoubleSpendProof& proof);

  group::SchnorrGroup grp_;  // immutable shared parameters: no guard
  bn::Rng& rng_;             // external; only drawn from under mu_
  /// Set by attach_store while quiescent (same contract as the key pair in
  /// identity_key()), then only read — so unguarded reads never race.
  store::Store* store_ = nullptr;
  /// Serializes every public entry point (see the thread-safety note in
  /// the header comment).  Private helpers assume it is already held.
  mutable sync::Mutex mu_{"ecash.broker", sync::level::kService};

  Config config_ P2P_GUARDED_BY(mu_);
  blindsig::BlindSigner signer_ P2P_GUARDED_BY(mu_);  // coin key (x, y)
  sig::KeyPair identity_ P2P_GUARDED_BY(mu_);  // table/entry signing key

  std::map<MerchantId, MerchantAccount> accounts_ P2P_GUARDED_BY(mu_);
  /// Deque, not vector: publish_witness_table appends while clients hold
  /// references from current_table()/table(), which must stay valid.
  std::deque<WitnessTable> tables_ P2P_GUARDED_BY(mu_);  // index i = v i+1

  std::uint64_t next_session_ P2P_GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, blindsig::BlindSigner::Session> withdrawal_sessions_
      P2P_GUARDED_BY(mu_);
  std::map<std::uint64_t, blindsig::BlindSigner::Session> renewal_sessions_
      P2P_GUARDED_BY(mu_);
  /// Answered withdrawal sessions, kept so a retried identical challenge is
  /// answered idempotently (exactly one signature per session either way).
  /// Like open sessions, not persisted across crashes: after a restart the
  /// client's retry gets kStaleRequest and simply withdraws afresh.
  struct CompletedWithdrawal {
    bn::BigInt e;
    blindsig::SignerResponse response;
  };
  std::map<std::uint64_t, CompletedWithdrawal> completed_withdrawals_
      P2P_GUARDED_BY(mu_);

  // Keyed by h(bare coin).
  std::map<Hash256, DepositRecord> deposits_ P2P_GUARDED_BY(mu_);
  std::map<Hash256, RenewalRecord> renewals_ P2P_GUARDED_BY(mu_);

  std::vector<WitnessFaultProof> witness_faults_ P2P_GUARDED_BY(mu_);
  std::vector<DoubleSpendProof> renewal_fraud_proofs_ P2P_GUARDED_BY(mu_);
  std::uint64_t coins_issued_ P2P_GUARDED_BY(mu_) = 0;
  std::int64_t fiat_collected_ P2P_GUARDED_BY(mu_) = 0;
  std::int64_t fiat_paid_out_ P2P_GUARDED_BY(mu_) = 0;
};

}  // namespace p2pcash::ecash
