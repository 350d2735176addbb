#include "ecash/witness.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

namespace p2pcash::ecash {

namespace {
constexpr std::string_view kCheckpointMagic = "p2pcash/witness-snapshot/v2";
// Sub-record tags, shared by journaled deltas (one record per state
// transition, applied atomically on replay) and checkpoints, whose
// records are closed by kCheckpointEnd.
constexpr std::uint8_t kCheckpointEnd = 0;
constexpr std::uint8_t kDeltaCommitment = 1;
constexpr std::uint8_t kDeltaSpent = 2;
constexpr std::uint8_t kDeltaDoubleSpent = 3;
constexpr std::uint8_t kDeltaChain = 4;
constexpr std::uint8_t kDeltaSpentErase = 5;
constexpr std::uint8_t kDeltaCounters = 6;
}  // namespace

WitnessService::WitnessService(group::SchnorrGroup grp,
                               sig::PublicKey broker_key, MerchantId id,
                               sig::KeyPair key, bn::Rng& rng)
    : grp_(std::move(grp)),
      broker_key_(std::move(broker_key)),
      id_(std::move(id)),
      key_(std::move(key)),
      rng_(rng) {}

Outcome<WitnessCommitment> WitnessService::request_commitment(
    const Hash256& coin_hash, const Hash256& nonce, Timestamp now) {
  store::StoreCommit store_commit(store_);
  sync::MutexLock lock(mu_);
  auto it = state_.commitments.find(coin_hash);
  if (it != state_.commitments.end() && now < it->second.commitment.expires &&
      !it->second.consumed && it->second.commitment.nonce != nonce &&
      !state_.spent.contains(coin_hash) &&
      !state_.double_spent.contains(coin_hash)) {
    // A different, still-pending transaction holds a live promise-to-sign
    // on this fresh coin ("must not issue new commitments ... until this
    // commitment expires").  Once the coin has a spend record the promise
    // is no longer dangerous — any further transcript can only yield a
    // double-spend proof — so new commitments are allowed.
    return Refusal{RefusalReason::kCommitmentOutstanding,
                   "live commitment exists until t_e"};
  }
  // Commit to what we currently know about the coin.
  CommittedValue value;
  if (auto ds = state_.double_spent.find(coin_hash);
      ds != state_.double_spent.end()) {
    value = CommittedValue::extracted(ds->second.proof.secrets);
  } else if (auto sp = state_.spent.find(coin_hash); sp != state_.spent.end()) {
    value = CommittedValue::prior_transcript(sp->second.transcript, rng_);
  } else {
    value = CommittedValue::fresh(rng_);
  }
  WitnessCommitment commitment;
  commitment.coin_hash = coin_hash;
  commitment.nonce = nonce;
  commitment.value_hash = value.hash();
  commitment.expires = now + commitment_ttl();
  commitment.witness = id_;
  commitment.witness_sig = key_.sign(commitment.signed_payload(), rng_);
  state_.commitments[coin_hash] =
      CommitmentRecord{commitment, std::move(value), /*consumed=*/false};
  wire::Writer w;
  delta_commitment(w, coin_hash, state_.commitments[coin_hash]);
  journal(w);
  return commitment;
}

std::optional<std::size_t> WitnessService::own_entry_index(
    const Coin& coin, const Hash256& coin_hash) const {
  if (!check_witness_probe_sequence(coin, coin_hash)) return std::nullopt;
  for (std::size_t i = 0; i < coin.witnesses.size(); ++i) {
    if (coin.witnesses[i].merchant == id_) return i;
  }
  return std::nullopt;
}

Outcome<SignResult> WitnessService::sign_transcript(
    const PaymentTranscript& transcript, Timestamp now,
    const CheckRunner& runner) {
  store::StoreCommit store_commit(store_);
  const Coin& coin = transcript.coin;
  const Hash256 coin_hash = coin.bare.coin_hash();

  // Fast path without crypto, peeked under the lock.
  {
    sync::MutexLock lock(mu_);
    // Coin already known double-spent — return the stored proof ("the
    // witness will either be spared all significant crypto operations").
    if (auto ds = state_.double_spent.find(coin_hash);
        ds != state_.double_spent.end() && !faulty_) {
      return SignResult{ds->second.proof};
    }
    // Idempotent retry of the very same transcript: re-issue the
    // endorsement rather than treating the retransmission as a second spend.
    if (auto sp = state_.spent.find(coin_hash);
        sp != state_.spent.end() && sp->second.transcript == transcript) {
      return SignResult{sp->second.endorsement};
    }
  }

  // Full verification of the presented coin (ours? valid? unexpired?) and
  // its payment NIZK (1 Hash for d + 3 Exp), as independent checks on
  // `runner`.  They read immutable inputs with no lock held (the runner
  // may hand them to the worker pool, whose lock ranks above ours); the
  // spend state is re-checked under the lock.
  std::vector<Check> checks = presented_coin_checks(coin, coin_hash, now);
  checks.emplace_back([this, &transcript]() -> Outcome<std::monostate> {
    if (!verify_transcript_proof(grp_, transcript))
      return Refusal{RefusalReason::kBadProof, "NIZK response invalid"};
    return std::monostate{};
  });
  if (auto ok = run_checks(checks, runner); !ok) return ok.refusal();

  sync::MutexLock lock(mu_);

  // Re-check the fast-path states: another payment of this coin may have
  // raced us between the unlocked verification and this lock.
  if (auto ds = state_.double_spent.find(coin_hash);
      ds != state_.double_spent.end()) {
    if (!faulty_) return SignResult{ds->second.proof};
  }
  if (auto sp = state_.spent.find(coin_hash);
      sp != state_.spent.end() && sp->second.transcript == transcript) {
    return SignResult{sp->second.endorsement};
  }

  // Transfer-chain consistency: the coin must answer to the commitments we
  // currently hold it to.  A previous owner spending a stale copy after
  // transferring the coin away incriminates itself: its payment response
  // and the recorded transfer-link response open the same commitments
  // under different challenges.
  static const std::vector<TransferLink> kEmptyChain;
  auto chain_it = state_.chains.find(coin_hash);
  const auto& recorded =
      chain_it == state_.chains.end() ? kEmptyChain : chain_it->second;
  if (coin.transfers != recorded) {
    const bool is_prefix =
        coin.transfers.size() < recorded.size() &&
        std::equal(coin.transfers.begin(), coin.transfers.end(),
                   recorded.begin());
    if (is_prefix && !faulty_) {
      const TransferLink& next = recorded[coin.transfers.size()];
      nizk::ChallengeResponse from_transfer{
          transfer_challenge(grp_, coin, next.new_a, next.new_b,
                             next.datetime),
          nizk::Response{next.r1, next.r2}};
      nizk::ChallengeResponse from_payment{
          payment_challenge(grp_, coin, transcript.merchant,
                            transcript.datetime),
          transcript.resp};
      if (auto extracted = nizk::extract(grp_, from_transfer, from_payment)) {
        // The proof opens the *stale* commitments: it incriminates the
        // previous owner but must not invalidate the coin for its current
        // holder — so it is kept as evidence, not as a double-spend
        // record.
        auto commitments = current_commitments(coin);
        DoubleSpendProof proof;
        proof.coin_hash = coin_hash;
        proof.a = commitments.a;
        proof.b = commitments.b;
        proof.secrets = *extracted;
        stale_owner_evidence_.push_back(proof);
        // The stale owner's commitment (if it obtained one) is discharged
        // by this refusal — it must not block the rightful current owner.
        if (auto commit_it = state_.commitments.find(coin_hash);
            commit_it != state_.commitments.end() &&
            payment_nonce(transcript.salt, transcript.merchant) ==
                commit_it->second.commitment.nonce) {
          commit_it->second.consumed = true;
          wire::Writer w;
          delta_commitment(w, coin_hash, commit_it->second);
          journal(w);
        }
        return SignResult{std::move(proof)};
      }
    }
    return Refusal{RefusalReason::kDoubleSpent,
                   "stale or divergent transfer chain"};
  }

  // Enforce the commitment binding: nonce must equal h(salt || I_M)
  // ("refusing transaction if this check fails").
  auto commit_it = state_.commitments.find(coin_hash);
  if (commit_it == state_.commitments.end())
    return Refusal{RefusalReason::kStaleRequest,
                   "no commitment requested for this coin"};
  const WitnessCommitment& commitment = commit_it->second.commitment;
  if (now >= commitment.expires)
    return Refusal{RefusalReason::kStaleRequest, "commitment expired"};
  if (payment_nonce(transcript.salt, transcript.merchant) != commitment.nonce)
    return Refusal{RefusalReason::kBadNonce,
                   "nonce does not bind this merchant"};

  // Double-spend check: a prior transcript with a different challenge lets
  // us extract the representations (paper §6 footnote 4).
  if (auto sp = state_.spent.find(coin_hash);
      sp != state_.spent.end() && !faulty_) {
    const PaymentTranscript& prior = sp->second.transcript;
    nizk::ChallengeResponse first{
        payment_challenge(grp_, prior.coin, prior.merchant, prior.datetime),
        prior.resp};
    nizk::ChallengeResponse second{
        payment_challenge(grp_, coin, transcript.merchant,
                          transcript.datetime),
        transcript.resp};
    auto extracted = nizk::extract(grp_, first, second);
    if (!extracted) {
      // Identical challenge but different transcript bytes: a malformed
      // replay; refuse without proof.
      return Refusal{RefusalReason::kDoubleSpent,
                     "coin already spent (identical challenge)"};
    }
    auto commitments = current_commitments(coin);
    DoubleSpendProof proof;
    proof.coin_hash = coin_hash;
    proof.a = commitments.a;
    proof.b = commitments.b;
    proof.secrets = *extracted;
    // Keep only the proof; drop the transcripts (privacy: do not reveal
    // where the coin was first spent).
    state_.double_spent[coin_hash] = DoubleSpentRecord{proof};
    state_.spent.erase(coin_hash);
    commit_it->second.consumed = true;  // promise discharged by the proof
    wire::Writer w;
    delta_double_spent(w, coin_hash, state_.double_spent[coin_hash]);
    delta_spent_erase(w, coin_hash);
    delta_commitment(w, coin_hash, commit_it->second);
    journal(w);
    return SignResult{std::move(proof)};
  }

  // First (or faulty-witness) spend: countersign the transcript.
  WitnessEndorsement endorsement;
  endorsement.witness = id_;
  endorsement.signature = key_.sign(transcript.signed_payload(), rng_);
  state_.spent[coin_hash] = SpentRecord{transcript, endorsement};
  // The commitment is fulfilled; keep the record (the arbiter may ask us to
  // reveal v during conflict resolution) but allow fresh commitments.
  commit_it->second.consumed = true;
  ++state_.coins_signed;
  // One record: the spend, its commitment and the counter recover together.
  wire::Writer w;
  delta_spent(w, coin_hash, state_.spent[coin_hash]);
  delta_commitment(w, coin_hash, commit_it->second);
  delta_counters(w, state_.coins_signed);
  journal(w);
  return SignResult{std::move(endorsement)};
}

std::vector<Check> WitnessService::presented_coin_checks(
    const Coin& coin, const Hash256& coin_hash, Timestamp now) const {
  using Ok = Outcome<std::monostate>;
  const CoinInfo& info = coin.bare.info;
  std::vector<Check> checks;
  checks.emplace_back([this, &coin, &coin_hash, &info]() -> Ok {
    auto index = own_entry_index(coin, coin_hash);
    if (!index)
      return Refusal{RefusalReason::kWrongWitness,
                     "coin is not assigned to this witness"};
    if (coin.witnesses[*index].version != info.list_version)
      return Refusal{RefusalReason::kInvalidCoin,
                     "entry/info version mismatch"};
    return std::monostate{};
  });
  // Our broker-signed range entry (1 Ver).  When we hold no entry the
  // check above refuses first, so this one passes.
  checks.emplace_back([this, &coin]() -> Ok {
    for (const SignedWitnessEntry& entry : coin.witnesses) {
      if (entry.merchant != id_) continue;
      if (!sig::verify(grp_, broker_key_, entry.signed_payload(),
                       entry.broker_sig))
        return Refusal{RefusalReason::kBadSignature,
                       "bad broker range signature"};
      break;
    }
    return std::monostate{};
  });
  // The bare coin's blind signature (4 Exp + 2 Hash): an invalid coin is
  // never countersigned.
  checks.emplace_back([this, &coin, &info, now]() -> Ok {
    if (now >= info.soft_expiry)
      return Refusal{RefusalReason::kExpired, "coin past soft expiry"};
    if (!blindsig::verify(grp_, broker_key_.y, info.bytes(),
                          coin.bare.blind_message(), coin.bare.sig))
      return Refusal{RefusalReason::kInvalidCoin,
                     "bad broker blind signature"};
    return std::monostate{};
  });
  checks.emplace_back(
      [this, &coin] { return verify_transfer_chain(grp_, coin); });
  return checks;
}

Outcome<std::variant<TransferLink, DoubleSpendProof>>
WitnessService::sign_transfer(const Coin& coin, const bn::BigInt& new_a,
                              const bn::BigInt& new_b,
                              const nizk::Response& response,
                              Timestamp datetime, Timestamp now) {
  using TransferResult = std::variant<TransferLink, DoubleSpendProof>;
  store::StoreCommit store_commit(store_);
  const Hash256 coin_hash = coin.bare.coin_hash();

  // Fast path without crypto: the coin is already known double-spent.
  {
    sync::MutexLock lock(mu_);
    if (auto ds = state_.double_spent.find(coin_hash);
        ds != state_.double_spent.end() && !faulty_) {
      return TransferResult{ds->second.proof};
    }
  }

  // Unlocked crypto on immutable inputs: the presented coin and the
  // ownership proof.  The proof verdict is only consulted on the
  // first-transfer branch, matching the original check order.
  if (auto ok = run_checks(presented_coin_checks(coin, coin_hash, now), {});
      !ok)
    return ok.refusal();
  // The checks found our entry, so the coin has one; slot 0 is ours iff
  // the first entry names us.
  if (coin.witnesses.front().merchant != id_)
    return Refusal{RefusalReason::kWrongWitness,
                   "transfers are endorsed by witness slot 0 only"};
  const bn::BigInt d = transfer_challenge(grp_, coin, new_a, new_b, datetime);
  const auto commitments = current_commitments(coin);
  const bool ownership_ok = nizk::verify_response(
      grp_, {commitments.a, commitments.b}, d, response);

  sync::MutexLock lock(mu_);

  // Re-check under the lock: a racing payment/transfer may have landed.
  if (auto ds = state_.double_spent.find(coin_hash);
      ds != state_.double_spent.end() && !faulty_) {
    return TransferResult{ds->second.proof};
  }

  // Chain consistency with our records.
  static const std::vector<TransferLink> kEmptyChain;
  auto chain_it = state_.chains.find(coin_hash);
  const auto& recorded =
      chain_it == state_.chains.end() ? kEmptyChain : chain_it->second;
  if (coin.transfers != recorded) {
    const bool is_prefix =
        coin.transfers.size() < recorded.size() &&
        std::equal(coin.transfers.begin(), coin.transfers.end(),
                   recorded.begin());
    if (!is_prefix)
      return Refusal{RefusalReason::kDoubleSpent,
                     "stale or divergent transfer chain"};
    const TransferLink& next = recorded[coin.transfers.size()];
    // Identical re-request (network retry): re-issue the recorded link.
    if (next.new_a == new_a && next.new_b == new_b &&
        next.datetime == datetime &&
        nizk::Response{next.r1, next.r2} == response) {
      return TransferResult{next};
    }
    if (faulty_) return Refusal{RefusalReason::kInternal, "faulty witness"};
    // Double transfer: the recorded link and this request answer the same
    // commitments under different challenges — extract.
    nizk::ChallengeResponse first{
        transfer_challenge(grp_, coin, next.new_a, next.new_b, next.datetime),
        nizk::Response{next.r1, next.r2}};
    nizk::ChallengeResponse second{d, response};
    if (auto extracted = nizk::extract(grp_, first, second)) {
      DoubleSpendProof proof;
      proof.coin_hash = coin_hash;
      proof.a = commitments.a;
      proof.b = commitments.b;
      proof.secrets = *extracted;
      state_.double_spent[coin_hash] = DoubleSpentRecord{proof};
      wire::Writer w;
      delta_double_spent(w, coin_hash, state_.double_spent[coin_hash]);
      journal(w);
      return TransferResult{std::move(proof)};
    }
    return Refusal{RefusalReason::kDoubleSpent,
                   "coin already transferred onward"};
  }

  // A spent coin cannot be transferred; the attempt incriminates the owner.
  if (auto sp = state_.spent.find(coin_hash);
      sp != state_.spent.end() && !faulty_) {
    const PaymentTranscript& prior = sp->second.transcript;
    nizk::ChallengeResponse from_payment{
        payment_challenge(grp_, prior.coin, prior.merchant, prior.datetime),
        prior.resp};
    nizk::ChallengeResponse from_transfer{d, response};
    if (auto extracted = nizk::extract(grp_, from_payment, from_transfer)) {
      DoubleSpendProof proof;
      proof.coin_hash = coin_hash;
      proof.a = commitments.a;
      proof.b = commitments.b;
      proof.secrets = *extracted;
      state_.double_spent[coin_hash] = DoubleSpentRecord{proof};
      state_.spent.erase(coin_hash);
      wire::Writer w;
      delta_double_spent(w, coin_hash, state_.double_spent[coin_hash]);
      delta_spent_erase(w, coin_hash);
      journal(w);
      return TransferResult{std::move(proof)};
    }
    return Refusal{RefusalReason::kDoubleSpent, "coin already spent"};
  }

  // Ownership proof for the hand-off (verified above, outside the lock).
  if (!ownership_ok)
    return Refusal{RefusalReason::kBadProof,
                   "transfer ownership proof invalid"};

  TransferLink link;
  link.new_a = new_a;
  link.new_b = new_b;
  link.r1 = response.r1;
  link.r2 = response.r2;
  link.datetime = datetime;
  link.witness = id_;
  auto position = static_cast<std::uint32_t>(coin.transfers.size());
  auto signature = key_.sign(link.signed_payload(coin_hash, position), rng_);
  link.sig_e = signature.e;
  link.sig_s = signature.s;
  auto& chain = state_.chains[coin_hash];
  chain = coin.transfers;
  chain.push_back(link);
  wire::Writer w;
  delta_chain(w, coin_hash, chain);
  journal(w);
  return TransferResult{std::move(link)};
}

Outcome<CommittedValue> WitnessService::reveal_committed_value(
    const Hash256& coin_hash) {
  sync::MutexLock lock(mu_);
  auto it = state_.commitments.find(coin_hash);
  if (it == state_.commitments.end())
    return Refusal{RefusalReason::kStaleRequest,
                   "no commitment stored for this coin"};
  return it->second.value;
}

bool WitnessService::has_double_spend_record(const Hash256& coin_hash) const {
  sync::MutexLock lock(mu_);
  return state_.double_spent.contains(coin_hash);
}

std::vector<std::uint8_t> WitnessService::snapshot_state() const {
  sync::MutexLock lock(mu_);
  return snapshot_locked();
}

std::vector<std::uint8_t> WitnessService::snapshot_locked() const {
  wire::Writer w;
  w.put_string(kCheckpointMagic);
  delta_counters(w, state_.coins_signed);
  for (const auto& [hash, record] : state_.commitments)
    delta_commitment(w, hash, record);
  for (const auto& [hash, record] : state_.spent) delta_spent(w, hash, record);
  for (const auto& [hash, record] : state_.double_spent)
    delta_double_spent(w, hash, record);
  for (const auto& [hash, chain] : state_.chains) delta_chain(w, hash, chain);
  w.put_u8(kCheckpointEnd);
  return w.take();
}

void WitnessService::restore_state(std::span<const std::uint8_t> snapshot) {
  Durable state = decode_checkpoint(snapshot);
  sync::MutexLock lock(mu_);
  state_ = std::move(state);
  // An externally supplied snapshot supersedes the journal: compact so the
  // store and the in-memory state agree again.
  if (store_ != nullptr) store_->checkpoint(snapshot_locked());
}

// ---- store journaling ------------------------------------------------------

void WitnessService::journal(const wire::Writer& w) {
  if (store_ != nullptr && w.size() > 0) store_->append(w.bytes());
}

void WitnessService::delta_commitment(wire::Writer& w, const Hash256& hash,
                                      const CommitmentRecord& record) {
  w.put_u8(kDeltaCommitment);
  w.put_bytes(hash);
  record.commitment.encode(w);
  record.value.encode(w);
  w.put_u8(record.consumed ? 1 : 0);
}

void WitnessService::delta_spent(wire::Writer& w, const Hash256& hash,
                                 const SpentRecord& record) {
  w.put_u8(kDeltaSpent);
  w.put_bytes(hash);
  record.transcript.encode(w);
  record.endorsement.encode(w);
}

void WitnessService::delta_double_spent(wire::Writer& w, const Hash256& hash,
                                        const DoubleSpentRecord& record) {
  w.put_u8(kDeltaDoubleSpent);
  w.put_bytes(hash);
  record.proof.encode(w);
}

void WitnessService::delta_chain(wire::Writer& w, const Hash256& hash,
                                 const std::vector<TransferLink>& chain) {
  w.put_u8(kDeltaChain);
  w.put_bytes(hash);
  w.put_u32(static_cast<std::uint32_t>(chain.size()));
  for (const auto& link : chain) link.encode(w);
}

void WitnessService::delta_spent_erase(wire::Writer& w, const Hash256& hash) {
  w.put_u8(kDeltaSpentErase);
  w.put_bytes(hash);
}

void WitnessService::delta_counters(wire::Writer& w,
                                    std::uint64_t coins_signed) {
  w.put_u8(kDeltaCounters);
  w.put_u64(coins_signed);
}

WitnessService::Durable WitnessService::decode_checkpoint(
    std::span<const std::uint8_t> snapshot) {
  wire::Reader r(snapshot);
  if (r.get_string() != kCheckpointMagic)
    throw wire::DecodeError("witness checkpoint: bad magic");
  Durable state;
  for (std::uint8_t tag = r.get_u8(); tag != kCheckpointEnd; tag = r.get_u8())
    decode_record(tag, r, state);
  r.expect_end();
  return state;
}

void WitnessService::decode_record(std::uint8_t tag, wire::Reader& r,
                                   Durable& into) {
  if (tag == kDeltaCounters) {
    into.coins_signed = r.get_u64();
    return;
  }
  // Every other record is keyed by its coin hash.
  const Hash256 hash = read_hash256(r);
  switch (tag) {
    case kDeltaCommitment: {
      CommitmentRecord record;
      record.commitment = WitnessCommitment::decode(r);
      record.value = CommittedValue::decode(r);
      record.consumed = r.get_u8() != 0;
      into.commitments[hash] = std::move(record);
      break;
    }
    case kDeltaSpent: {
      SpentRecord record;
      record.transcript = PaymentTranscript::decode(r);
      record.endorsement = WitnessEndorsement::decode(r);
      into.spent[hash] = std::move(record);
      break;
    }
    case kDeltaDoubleSpent:
      into.double_spent[hash] = DoubleSpentRecord{DoubleSpendProof::decode(r)};
      break;
    case kDeltaChain: {
      std::vector<TransferLink> chain;
      for (std::uint32_t j = 0, m = r.get_u32(); j < m; ++j)
        chain.push_back(TransferLink::decode(r));
      into.chains[hash] = std::move(chain);
      break;
    }
    case kDeltaSpentErase:
      into.spent.erase(hash);
      break;
    default:
      throw wire::DecodeError("witness record: unknown tag");
  }
}

void WitnessService::attach_store(store::Store& store) {
  sync::MutexLock lock(mu_);
  // Re-attach after a crash/restart: the previous store may already be
  // destroyed, so drop the pointer before anything can journal through
  // it.
  store_ = nullptr;
  if (store.empty()) {
    // Fresh store: a genesis checkpoint makes the (empty but versioned)
    // snapshot durable before the first operation is acknowledged.
    store_ = &store;
    store.checkpoint(snapshot_locked());
    return;
  }
  store::Recovered rec = store.recover();
  Durable state = decode_checkpoint(rec.snapshot);
  for (const auto& delta : rec.deltas) {
    wire::Reader r(delta);
    while (!r.at_end()) decode_record(r.get_u8(), r, state);
  }
  state_ = std::move(state);
  store_ = &store;
}

void WitnessService::checkpoint_store() {
  sync::MutexLock lock(mu_);
  if (store_ != nullptr) store_->checkpoint(snapshot_locked());
}

}  // namespace p2pcash::ecash
