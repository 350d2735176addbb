#include "ecash/broker.h"

#include "escrow/elgamal.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

namespace p2pcash::ecash {

using bn::BigInt;

namespace {
constexpr std::string_view kCheckpointMagic = "p2pcash/broker-snapshot/v2";
// Sub-record tags, shared by journaled deltas (one record per mutating
// entry point, applied atomically on replay) and checkpoints, whose
// records are closed by kCheckpointEnd.
constexpr std::uint8_t kCheckpointEnd = 0;
constexpr std::uint8_t kDeltaAccount = 1;
constexpr std::uint8_t kDeltaTable = 2;
constexpr std::uint8_t kDeltaCounters = 3;
constexpr std::uint8_t kDeltaDeposit = 4;
constexpr std::uint8_t kDeltaRenewal = 5;
constexpr std::uint8_t kDeltaWitnessFault = 6;
constexpr std::uint8_t kDeltaFraudProof = 7;
}  // namespace

namespace {
// The broker has a single key pair (x, y = g^x) like the paper's B: it
// blind-signs coins and plain-signs witness-range entries with the same
// key (the two uses are domain-separated by their hash tags).
bn::BigInt broker_secret(const group::SchnorrGroup& grp, bn::Rng& rng) {
  return grp.random_scalar(rng);
}
}  // namespace

Broker::Broker(group::SchnorrGroup grp, bn::Rng& rng, Config config)
    : grp_(grp),
      rng_(rng),
      config_(config),
      signer_(grp, broker_secret(grp, rng)),
      identity_(sig::KeyPair::from_secret(grp, signer_.secret_x())) {}

void Broker::register_merchant(const MerchantId& id, const sig::PublicKey& key,
                               Cents security_deposit) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  auto& account = accounts_[id];
  account.key = key;
  account.deposit_remaining = security_deposit;
  wire::Writer w;
  delta_account(w, id);
  journal(w);
}

bool Broker::is_registered(const MerchantId& id) const {
  sync::MutexLock lock(mu_);
  return accounts_.contains(id);
}

const Broker::MerchantAccount* Broker::account(const MerchantId& id) const {
  sync::MutexLock lock(mu_);
  auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

void Broker::set_weight(const MerchantId& id, std::uint64_t weight) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  auto it = accounts_.find(id);
  if (it == accounts_.end())
    throw std::invalid_argument("Broker::set_weight: unknown merchant");
  if (weight == 0)
    throw std::invalid_argument("Broker::set_weight: zero weight");
  it->second.weight = weight;
  wire::Writer w;
  delta_account(w, id);
  journal(w);
}

const WitnessTable& Broker::publish_witness_table(Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  std::vector<WitnessTable::Participant> participants;
  for (const auto& [id, account] : accounts_) {
    if (account.flagged) continue;  // caught cheating: out of the rotation
    participants.push_back({id, account.key, account.weight});
  }
  if (participants.empty())
    throw std::logic_error("Broker: no eligible witnesses to publish");
  auto version = static_cast<std::uint32_t>(tables_.size() + 1);
  tables_.push_back(
      WitnessTable::build(version, now, participants, identity_, rng_));
  wire::Writer w;
  delta_table(w, tables_.back());
  journal(w);
  return tables_.back();
}

const WitnessTable& Broker::current_table() const {
  sync::MutexLock lock(mu_);
  if (tables_.empty())
    throw std::logic_error("Broker: no witness table published yet");
  return tables_.back();
}

const WitnessTable* Broker::table(std::uint32_t version) const {
  sync::MutexLock lock(mu_);
  return table_unlocked(version);
}

const WitnessTable* Broker::table_unlocked(std::uint32_t version) const {
  if (version == 0 || version > tables_.size()) return nullptr;
  return &tables_[version - 1];
}

CoinInfo Broker::make_info(Cents denomination, Timestamp now) const {
  CoinInfo info;
  info.denomination = denomination;
  // Callers hold mu_ and have checked tables_ is non-empty.
  info.list_version = tables_.back().version();
  info.soft_expiry = now + config_.soft_lifetime_ms;
  info.hard_expiry = info.soft_expiry + config_.renewal_window_ms;
  info.witness_n = config_.witness_n;
  info.witness_k = config_.witness_k;
  return info;
}

Outcome<Broker::WithdrawalOffer> Broker::start_withdrawal(Cents denomination,
                                                          Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  if (tables_.empty())
    return Refusal{RefusalReason::kInternal, "no witness table published"};
  if (denomination == 0)
    return Refusal{RefusalReason::kInternal, "zero denomination"};
  WithdrawalOffer offer;
  offer.session = next_session_++;
  offer.info = make_info(denomination, now);
  auto session = signer_.start(offer.info.bytes(), rng_);
  offer.first = session.first;
  withdrawal_sessions_.emplace(offer.session, std::move(session));
  fiat_collected_ += denomination;  // client pays out of band (card/deposit)
  wire::Writer w;
  delta_counters(w);
  journal(w);
  return offer;
}

Outcome<Broker::WithdrawalOffer> Broker::start_withdrawal_escrowed(
    Cents denomination, const std::string& client_identity,
    const bn::BigInt& escrow_authority_y, Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  if (tables_.empty())
    return Refusal{RefusalReason::kInternal, "no witness table published"};
  if (denomination == 0)
    return Refusal{RefusalReason::kInternal, "zero denomination"};
  if (client_identity.empty())
    return Refusal{RefusalReason::kInternal, "empty identity to escrow"};
  WithdrawalOffer offer;
  offer.session = next_session_++;
  offer.info = make_info(denomination, now);
  offer.info.escrow_tag = escrow::make_escrow_tag(
      grp_, escrow_authority_y, client_identity, rng_);
  auto session = signer_.start(offer.info.bytes(), rng_);
  offer.first = session.first;
  withdrawal_sessions_.emplace(offer.session, std::move(session));
  fiat_collected_ += denomination;
  wire::Writer w;
  delta_counters(w);
  journal(w);
  return offer;
}

Outcome<blindsig::SignerResponse> Broker::finish_withdrawal(
    std::uint64_t session, const BigInt& e) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  auto it = withdrawal_sessions_.find(session);
  if (it == withdrawal_sessions_.end()) {
    // Idempotent retry: the same challenge on an answered session re-issues
    // the recorded response (the client's copy was lost in transit).  A
    // *different* challenge is a bid for a second signature — refused.
    auto done = completed_withdrawals_.find(session);
    if (done == completed_withdrawals_.end())
      return Refusal{RefusalReason::kStaleRequest,
                     "unknown withdrawal session"};
    if (done->second.e != e)
      return Refusal{RefusalReason::kStaleRequest,
                     "session already answered a different challenge"};
    return done->second.response;
  }
  auto response = signer_.respond(it->second, e);
  withdrawal_sessions_.erase(it);  // one signature per session, ever
  completed_withdrawals_.emplace(session, CompletedWithdrawal{e, response});
  ++coins_issued_;
  wire::Writer w;
  delta_counters(w);
  journal(w);
  return response;
}

Outcome<std::monostate> Broker::check_witness_assignment(
    const Coin& coin, const Hash256& coin_hash) const {
  const WitnessTable* tbl = table_unlocked(coin.bare.info.list_version);
  if (!tbl)
    return Refusal{RefusalReason::kInvalidCoin, "unknown table version"};
  if (coin.witnesses.size() != coin.bare.info.witness_n)
    return Refusal{RefusalReason::kInvalidCoin, "witness entry count"};
  // The broker checks entries against its own records rather than
  // verifying its own signatures (no Ver cost — Table 1 deposit row),
  // following the same distinct-witness probe sequence as everyone else.
  std::size_t next = 0;
  for (std::uint8_t idx = 0;
       idx < kMaxWitnessProbes && next < coin.witnesses.size(); ++idx) {
    auto expected = tbl->lookup(witness_point(coin_hash, idx));
    if (!expected)
      return Refusal{RefusalReason::kInternal, "witness table has a gap"};
    bool collision = false;
    for (std::size_t j = 0; j < next; ++j) {
      if (coin.witnesses[j].merchant == expected->merchant) collision = true;
    }
    if (collision) continue;
    if (coin.witnesses[next] != *expected)
      return Refusal{RefusalReason::kWrongWitness,
                     "witness entry does not match published table"};
    ++next;
  }
  if (next != coin.witnesses.size())
    return Refusal{RefusalReason::kWrongWitness,
                   "witness assignment incomplete"};
  return std::monostate{};
}

Outcome<std::vector<MerchantId>> Broker::validate_signed_transcript(
    const SignedTranscript& st, const Hash256& coin_hash,
    Timestamp now) const {
  const PaymentTranscript& t = st.transcript;
  const CoinInfo& info = t.coin.bare.info;

  // Coin validity and deposit window: payments happen before soft expiry;
  // deposits are accepted until soft expiry + grace (after which renewal
  // opens — the windows are disjoint by construction).
  if (t.datetime >= info.soft_expiry)
    return Refusal{RefusalReason::kExpired, "payment after soft expiry"};
  if (now > info.soft_expiry + config_.deposit_grace_ms)
    return Refusal{RefusalReason::kExpired, "deposit window closed"};

  // Broker's own blind signature (secret-key fast path: 3 Exp + 2 Hash).
  if (auto ok = verify_bare_coin_with_secret(grp_, signer_.secret_x(),
                                             t.coin.bare);
      !ok)
    return ok.refusal();

  // Witness assignment per the broker's own table records.
  if (auto ok = check_witness_assignment(t.coin, coin_hash); !ok)
    return ok.refusal();

  // The payment NIZK (1 Hash + 3 Exp).
  if (!verify_transcript_proof(grp_, t))
    return Refusal{RefusalReason::kBadProof, "NIZK response invalid"};

  // Required witness endorsements: at least witness_k distinct witnesses
  // from the coin's assignment, each signature valid (1 Ver each).
  std::vector<MerchantId> endorsers;
  for (const auto& endorsement : st.endorsements) {
    auto entry_it = std::find_if(
        t.coin.witnesses.begin(), t.coin.witnesses.end(),
        [&](const SignedWitnessEntry& e) {
          return e.merchant == endorsement.witness;
        });
    if (entry_it == t.coin.witnesses.end()) continue;
    if (std::find(endorsers.begin(), endorsers.end(), endorsement.witness) !=
        endorsers.end())
      continue;  // duplicate endorser
    if (!sig::verify(grp_, entry_it->witness_key, t.signed_payload(),
                     endorsement.signature))
      return Refusal{RefusalReason::kBadSignature,
                     "witness endorsement signature invalid"};
    endorsers.push_back(endorsement.witness);
  }
  if (endorsers.size() < info.witness_k)
    return Refusal{RefusalReason::kBadSignature,
                   "insufficient witness endorsements"};
  return endorsers;
}

Outcome<Broker::DepositReceipt> Broker::deposit(const MerchantId& depositor,
                                                const SignedTranscript& st,
                                                Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  const PaymentTranscript& t = st.transcript;
  const CoinInfo& info = t.coin.bare.info;

  // Only registered merchants hold accounts to credit (paper §3: merchants
  // are long-term, legitimate members).
  auto account_it = accounts_.find(depositor);
  if (account_it == accounts_.end())
    return Refusal{RefusalReason::kUnknownMerchant, "depositor not registered"};
  if (t.merchant != depositor)
    return Refusal{RefusalReason::kBadProof,
                   "transcript names a different merchant"};

  // h(bare coin): computed once, keys both the witness check and the
  // deposit database (matching the paper's 4-Hash deposit row).
  const Hash256 coin_hash = t.coin.bare.coin_hash();

  auto endorsers_outcome = validate_signed_transcript(st, coin_hash, now);
  if (!endorsers_outcome) return endorsers_outcome.refusal();
  std::vector<MerchantId> endorsers = std::move(endorsers_outcome).value();

  // A renewed coin can no longer be deposited (disjoint windows make this
  // unreachable for honest parties; see header).
  if (renewals_.contains(coin_hash))
    return Refusal{RefusalReason::kDoubleSpent, "coin was renewed"};

  auto prior = deposits_.find(coin_hash);
  if (prior == deposits_.end()) {
    // Case 2-a: first deposit. Credit and store until hard expiry.
    deposits_.emplace(coin_hash, DepositRecord{st, depositor});
    account_it->second.balance += info.denomination;
    fiat_paid_out_ += info.denomination;
    wire::Writer w;
    delta_deposit(w, coin_hash);
    delta_account(w, depositor);
    delta_counters(w);
    journal(w);
    return DepositReceipt{info.denomination, false};
  }

  if (prior->second.depositor == depositor)
    // Case 2-b(i): same merchant re-deposits — refused, no credit.
    return Refusal{RefusalReason::kAlreadyDeposited,
                   "this merchant already deposited this coin"};

  // Case 2-b(ii): a different merchant deposits the same coin — some
  // witness signed two transcripts.  The merchant is still paid, out of
  // that witness's security deposit; the proof is two witness signatures
  // over different transcripts of one coin.
  std::vector<MerchantId> prior_endorsers;
  for (const auto& e : prior->second.st.endorsements)
    prior_endorsers.push_back(e.witness);
  MerchantId culprit;
  for (const auto& id : endorsers) {
    if (std::find(prior_endorsers.begin(), prior_endorsers.end(), id) !=
        prior_endorsers.end()) {
      culprit = id;
      break;
    }
  }
  if (culprit.empty()) {
    // No common endorser (possible under k-of-n with disjoint sets): charge
    // the first endorser of the second deposit — it still signed a coin
    // that the assignment says it shares responsibility for.
    culprit = endorsers.front();
  }
  witness_faults_.push_back(
      WitnessFaultProof{coin_hash, prior->second.st, st, culprit});
  auto culprit_it = accounts_.find(culprit);
  Cents amount = info.denomination;
  if (culprit_it != accounts_.end()) {
    culprit_it->second.flagged = true;
    Cents charge = std::min<Cents>(amount, culprit_it->second.deposit_remaining);
    culprit_it->second.deposit_remaining -= charge;
  }
  account_it->second.balance += amount;
  fiat_paid_out_ += amount;
  wire::Writer w;
  delta_witness_fault(w, witness_faults_.back());
  if (culprit_it != accounts_.end()) delta_account(w, culprit);
  delta_account(w, depositor);
  delta_counters(w);
  journal(w);
  return DepositReceipt{amount, true};
}

Outcome<std::vector<Broker::WithdrawalOffer>> Broker::exchange(
    const SignedTranscript& st, const std::vector<Cents>& denominations,
    Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  const PaymentTranscript& t = st.transcript;
  const CoinInfo& info = t.coin.bare.info;
  if (t.merchant != kBrokerCounterparty)
    return Refusal{RefusalReason::kBadProof,
                   "exchange transcript must name the broker"};
  if (denominations.empty())
    return Refusal{RefusalReason::kBadProof, "no change requested"};
  Cents total = 0;
  for (Cents d : denominations) {
    if (d == 0)
      return Refusal{RefusalReason::kBadProof, "zero denomination"};
    total += d;
  }
  if (total != info.denomination)
    return Refusal{RefusalReason::kBadProof,
                   "change does not sum to the coin's value"};

  const Hash256 coin_hash = t.coin.bare.coin_hash();
  if (auto endorsers = validate_signed_transcript(st, coin_hash, now);
      !endorsers)
    return endorsers.refusal();

  if (renewals_.contains(coin_hash))
    return Refusal{RefusalReason::kDoubleSpent, "coin was renewed"};
  if (deposits_.contains(coin_hash))
    return Refusal{RefusalReason::kDoubleSpent,
                   "coin was already deposited or exchanged"};

  // Consume the coin: it enters the deposit database under the broker's
  // own name, so any later merchant deposit of the same coin triggers the
  // standard double-deposit handling (the witness double-signed and pays).
  deposits_.emplace(coin_hash, DepositRecord{st, kBrokerCounterparty});

  // Issue the change: one blind-signature session per new coin.  No fiat
  // moves — the consumed coin funds the new ones exactly.
  std::vector<WithdrawalOffer> offers;
  offers.reserve(denominations.size());
  for (Cents d : denominations) {
    WithdrawalOffer offer;
    offer.session = next_session_++;
    offer.info = make_info(d, now);
    auto session = signer_.start(offer.info.bytes(), rng_);
    offer.first = session.first;
    withdrawal_sessions_.emplace(offer.session, std::move(session));
    offers.push_back(std::move(offer));
  }
  wire::Writer w;
  delta_deposit(w, coin_hash);
  delta_counters(w);
  journal(w);
  return offers;
}

BigInt Broker::renewal_challenge(const Coin& coin,
                                 Timestamp datetime) const {
  wire::Writer w;
  w.put_string("p2pcash/renewal-challenge/v1");
  coin.encode(w);
  w.put_i64(datetime);
  return grp_.hash_to_zq(w.take());
}

Outcome<Broker::RenewalOffer> Broker::start_renewal(Cents denomination,
                                                    Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  if (tables_.empty())
    return Refusal{RefusalReason::kInternal, "no witness table published"};
  RenewalOffer offer;
  offer.session = next_session_++;
  offer.info = make_info(denomination, now);
  auto session = signer_.start(offer.info.bytes(), rng_);
  offer.first = session.first;
  renewal_sessions_.emplace(offer.session, std::move(session));
  wire::Writer w;
  delta_counters(w);
  journal(w);
  return offer;
}

Outcome<blindsig::SignerResponse> Broker::finish_renewal(
    std::uint64_t session, const BigInt& e, const Coin& old_coin,
    const nizk::Response& proof, Timestamp datetime, Timestamp now) {
  store::StoreCommit commit(store_);
  sync::MutexLock lock(mu_);
  auto it = renewal_sessions_.find(session);
  if (it == renewal_sessions_.end())
    return Refusal{RefusalReason::kStaleRequest, "unknown renewal session"};
  // The new coin must match the old coin's value (renewal is an exchange,
  // not a purchase).  The session fixed the new coin's info at start time.
  const CoinInfo new_info =
      wire::decode<CoinInfo>(std::span<const std::uint8_t>(it->second.info));
  if (new_info.denomination != old_coin.bare.info.denomination)
    return Refusal{RefusalReason::kBadProof,
                   "renewal denomination mismatch"};

  // Renewal window: after the deposit grace closes, before hard expiry.
  if (now < old_coin.bare.info.soft_expiry + config_.deposit_grace_ms)
    return Refusal{RefusalReason::kStaleRequest,
                   "renewal opens after the deposit window closes"};
  if (now >= old_coin.bare.info.hard_expiry)
    return Refusal{RefusalReason::kExpired, "coin past hard expiry"};

  // Old coin authenticity (secret-key fast path) and, for transferred
  // coins, the witness-endorsed ownership chain.
  if (auto ok = verify_bare_coin_with_secret(grp_, signer_.secret_x(),
                                             old_coin.bare);
      !ok)
    return ok.refusal();
  if (auto chain = verify_transfer_chain(grp_, old_coin); !chain)
    return chain.refusal();

  // Ownership proof: response to d* = H0(old coin, "renewal", datetime),
  // under the coin's *current* commitments.
  BigInt d_star = renewal_challenge(old_coin, datetime);
  const auto current = current_commitments(old_coin);
  nizk::Commitments comm{current.a, current.b};
  if (!nizk::verify_response(grp_, comm, d_star, proof))
    return Refusal{RefusalReason::kBadProof, "renewal ownership proof invalid"};

  const Hash256 coin_hash = old_coin.bare.coin_hash();

  // Already deposited? Extract the representations from the deposit's
  // transcript plus this renewal proof and refuse (Algorithm 4 step 3).
  if (auto dep = deposits_.find(coin_hash); dep != deposits_.end()) {
    const PaymentTranscript& t = dep->second.st.transcript;
    nizk::ChallengeResponse first{
        payment_challenge(grp_, t.coin, t.merchant, t.datetime), t.resp};
    nizk::ChallengeResponse second{d_star, proof};
    if (auto extracted = nizk::extract(grp_, first, second)) {
      DoubleSpendProof ds;
      ds.coin_hash = coin_hash;
      ds.a = current.a;
      ds.b = current.b;
      ds.secrets = *extracted;
      if (ds.verify(grp_)) {
        renewal_fraud_proofs_.push_back(ds);
        wire::Writer w;
        delta_fraud_proof(w, renewal_fraud_proofs_.back());
        journal(w);
      }
    }
    return Refusal{RefusalReason::kDoubleSpent, "coin was already deposited"};
  }
  // Already renewed?
  if (auto ren = renewals_.find(coin_hash); ren != renewals_.end()) {
    nizk::ChallengeResponse first{
        renewal_challenge(ren->second.coin, ren->second.datetime),
        ren->second.proof};
    nizk::ChallengeResponse second{d_star, proof};
    if (auto extracted = nizk::extract(grp_, first, second)) {
      DoubleSpendProof ds;
      ds.coin_hash = coin_hash;
      ds.a = current.a;
      ds.b = current.b;
      ds.secrets = *extracted;
      if (ds.verify(grp_)) {
        renewal_fraud_proofs_.push_back(ds);
        wire::Writer w;
        delta_fraud_proof(w, renewal_fraud_proofs_.back());
        journal(w);
      }
    }
    return Refusal{RefusalReason::kDoubleSpent, "coin was already renewed"};
  }

  // Mark renewed (stored until the old coin's hard expiry) and answer the
  // blind challenge for the new coin.
  renewals_.emplace(coin_hash, RenewalRecord{old_coin, proof, datetime});
  auto response = signer_.respond(it->second, e);
  renewal_sessions_.erase(it);
  ++coins_issued_;
  wire::Writer w;
  delta_renewal(w, coin_hash);
  delta_counters(w);
  journal(w);
  return response;
}


std::vector<std::uint8_t> Broker::snapshot_state() const {
  sync::MutexLock lock(mu_);
  return snapshot_locked();
}

std::vector<std::uint8_t> Broker::snapshot_locked() const {
  wire::Writer w;
  w.put_string(kCheckpointMagic);
  w.put_bigint(signer_.secret_x());
  delta_counters(w);
  for (const auto& [id, account] : accounts_) delta_account(w, id);
  for (const auto& table : tables_) delta_table(w, table);
  for (const auto& [hash, record] : deposits_) delta_deposit(w, hash);
  for (const auto& [hash, record] : renewals_) delta_renewal(w, hash);
  for (const auto& fault : witness_faults_) delta_witness_fault(w, fault);
  for (const auto& proof : renewal_fraud_proofs_) delta_fraud_proof(w, proof);
  w.put_u8(kCheckpointEnd);
  return w.take();
}

void Broker::restore_state(std::span<const std::uint8_t> snapshot) {
  Durable state = decode_checkpoint(snapshot);
  sync::MutexLock lock(mu_);
  install(std::move(state));
  // An externally supplied snapshot supersedes the journal: compact so the
  // store and the in-memory state agree again.
  if (store_ != nullptr) store_->checkpoint(snapshot_locked());
}

void Broker::install(Durable&& state) {
  signer_ = blindsig::BlindSigner(grp_, state.secret);
  identity_ = sig::KeyPair::from_secret(grp_, state.secret);
  next_session_ = state.next_session;
  coins_issued_ = state.coins_issued;
  fiat_collected_ = state.fiat_collected;
  fiat_paid_out_ = state.fiat_paid_out;
  accounts_ = std::move(state.accounts);
  tables_ = std::move(state.tables);
  deposits_ = std::move(state.deposits);
  renewals_ = std::move(state.renewals);
  witness_faults_ = std::move(state.witness_faults);
  renewal_fraud_proofs_ = std::move(state.renewal_fraud_proofs);
  withdrawal_sessions_.clear();
  completed_withdrawals_.clear();
  renewal_sessions_.clear();
}

// ---- store journaling ------------------------------------------------------

void Broker::journal(const wire::Writer& w) {
  if (store_ != nullptr && w.size() > 0) store_->append(w.bytes());
}

void Broker::delta_account(wire::Writer& w, const MerchantId& id) const {
  const MerchantAccount& a = accounts_.at(id);
  w.put_u8(kDeltaAccount);
  w.put_string(id);
  w.put_bigint(a.key.y);
  w.put_u32(a.deposit_remaining);
  w.put_i64(a.balance);
  w.put_u64(a.weight);
  w.put_u8(a.flagged ? 1 : 0);
}

void Broker::delta_counters(wire::Writer& w) const {
  w.put_u8(kDeltaCounters);
  w.put_u64(next_session_);
  w.put_u64(coins_issued_);
  w.put_i64(fiat_collected_);
  w.put_i64(fiat_paid_out_);
}

void Broker::delta_deposit(wire::Writer& w, const Hash256& hash) const {
  const DepositRecord& record = deposits_.at(hash);
  w.put_u8(kDeltaDeposit);
  w.put_bytes(hash);
  record.st.encode(w);
  w.put_string(record.depositor);
}

void Broker::delta_renewal(wire::Writer& w, const Hash256& hash) const {
  const RenewalRecord& record = renewals_.at(hash);
  w.put_u8(kDeltaRenewal);
  w.put_bytes(hash);
  record.coin.encode(w);
  w.put_bigint(record.proof.r1);
  w.put_bigint(record.proof.r2);
  w.put_i64(record.datetime);
}

void Broker::delta_table(wire::Writer& w, const WitnessTable& table) {
  w.put_u8(kDeltaTable);
  table.encode(w);
}

void Broker::delta_witness_fault(wire::Writer& w,
                                 const WitnessFaultProof& fault) {
  w.put_u8(kDeltaWitnessFault);
  w.put_bytes(fault.coin_hash);
  fault.first.encode(w);
  fault.second.encode(w);
  w.put_string(fault.witness);
}

void Broker::delta_fraud_proof(wire::Writer& w,
                               const DoubleSpendProof& proof) {
  w.put_u8(kDeltaFraudProof);
  proof.encode(w);
}

Broker::Durable Broker::decode_checkpoint(
    std::span<const std::uint8_t> snapshot) {
  wire::Reader r(snapshot);
  if (r.get_string() != kCheckpointMagic)
    throw wire::DecodeError("broker checkpoint: bad magic");
  Durable state;
  state.secret = r.get_bigint();
  for (std::uint8_t tag = r.get_u8(); tag != kCheckpointEnd; tag = r.get_u8())
    decode_record(tag, r, state);
  r.expect_end();
  return state;
}

void Broker::decode_record(std::uint8_t tag, wire::Reader& r,
                           Durable& into) {
  switch (tag) {
    case kDeltaAccount: {
      MerchantId id = r.get_string();
      MerchantAccount a;
      a.key.y = r.get_bigint();
      a.deposit_remaining = r.get_u32();
      a.balance = r.get_i64();
      a.weight = r.get_u64();
      a.flagged = r.get_u8() != 0;
      into.accounts[id] = std::move(a);
      break;
    }
    case kDeltaTable: {
      WitnessTable table = WitnessTable::decode(r);
      // Tables are append-only in version order; a replayed record for a
      // version we already hold (checkpoint raced ahead) is last-wins.
      auto& tables = into.tables;
      if (table.version() == tables.size() + 1)
        tables.push_back(std::move(table));
      else if (table.version() >= 1 && table.version() <= tables.size())
        tables[table.version() - 1] = std::move(table);
      else
        throw wire::DecodeError("broker record: table version gap");
      break;
    }
    case kDeltaCounters: {
      into.next_session = r.get_u64();
      into.coins_issued = r.get_u64();
      into.fiat_collected = r.get_i64();
      into.fiat_paid_out = r.get_i64();
      break;
    }
    case kDeltaDeposit: {
      Hash256 hash = read_hash256(r);
      DepositRecord record;
      record.st = SignedTranscript::decode(r);
      record.depositor = r.get_string();
      into.deposits[hash] = std::move(record);
      break;
    }
    case kDeltaRenewal: {
      Hash256 hash = read_hash256(r);
      RenewalRecord record;
      record.coin = Coin::decode(r);
      record.proof.r1 = r.get_bigint();
      record.proof.r2 = r.get_bigint();
      record.datetime = r.get_i64();
      into.renewals[hash] = std::move(record);
      break;
    }
    case kDeltaWitnessFault: {
      WitnessFaultProof fault;
      fault.coin_hash = read_hash256(r);
      fault.first = SignedTranscript::decode(r);
      fault.second = SignedTranscript::decode(r);
      fault.witness = r.get_string();
      into.witness_faults.push_back(std::move(fault));
      break;
    }
    case kDeltaFraudProof: {
      into.renewal_fraud_proofs.push_back(DoubleSpendProof::decode(r));
      break;
    }
    default:
      throw wire::DecodeError("broker record: unknown tag");
  }
}

void Broker::attach_store(store::Store& store) {
  sync::MutexLock lock(mu_);
  // Re-attach after a crash/restart: the previous store may already be
  // destroyed, so drop the pointer before anything can journal through
  // it.
  store_ = nullptr;
  if (store.empty()) {
    // Fresh store: write a genesis checkpoint so the signing key itself is
    // durable before the first operation is acknowledged.
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
  install(std::move(state));
  store_ = &store;
}

void Broker::checkpoint_store() {
  sync::MutexLock lock(mu_);
  if (store_ != nullptr) store_->checkpoint(snapshot_locked());
}

}  // namespace p2pcash::ecash
