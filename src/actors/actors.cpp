#include "actors/actors.h"

#include <algorithm>

#include "overlay/chord.h"
#include "wire/codec.h"

namespace p2pcash::actors {

using bn::BigInt;
using ecash::Hash256;
using ecash::Outcome;
using ecash::read_hash256;
using ecash::Refusal;
using ecash::RefusalReason;
using metrics::OpCounters;
using Counters = metrics::ResilienceCounters;
using metrics::ScopedOpCounting;
using wire::Reader;
using wire::Writer;

// ---------------------------------------------------------------------------
// ProtocolActor
// ---------------------------------------------------------------------------

void ProtocolActor::send_after_cost(const OpCounters& ops, Message msg) {
  send_after_cost(ops, std::move(msg), obs::TraceContext{});
}

void ProtocolActor::send_after_cost(const OpCounters& ops, Message msg,
                                    obs::TraceContext span) {
  const SimTime cost = cost_.sample_cost_ms(ops, rng());
  if (cost <= 0) {
    if (auto* tr = tracer()) tr->end_span(span);
    tx_.send(std::move(msg));
    return;
  }
  schedule(cost,
                      [this, span, msg = std::move(msg)]() mutable {
                        if (auto* tr = tracer()) tr->end_span(span);
                        tx_.send(std::move(msg));
                      });
}

void ProtocolActor::send_now(Message msg) { tx_.send(std::move(msg)); }

obs::TraceContext ProtocolActor::start_span(const obs::TraceContext& parent,
                                            std::string_view name) {
  auto* tr = tracer();
  return tr ? tr->start_child(parent, name, id()) : obs::TraceContext{};
}

void ProtocolActor::trace_note(const obs::TraceContext& ctx,
                               std::string_view name,
                               std::string_view detail) {
  if (auto* tr = tracer()) tr->event(ctx, name, detail);
}

void ProtocolActor::note(std::uint64_t metrics::ResilienceCounters::*counter,
                         const obs::TraceContext& ctx, std::string_view event,
                         std::string_view detail) {
  ++(resilience_.*counter);
  trace_note(ctx, event, detail);
}

template <class Find, class OnSilence, class Resend>
void ProtocolActor::retry_on_silence(const RetryPolicy& policy,
                                     std::size_t sent, Find find,
                                     OnSilence on_silence, Resend resend) {
  schedule(policy.attempt_timeout_ms, [=, this, &policy] {
    const auto [request, attempts] = find();
    if (!request || attempts->sent != sent || !on_silence(*request)) return;
    attempts->prev_backoff = policy.next_backoff(attempts->prev_backoff, rng());
    schedule(attempts->prev_backoff, [=, this, &policy] {
      const auto [current, current_attempts] = find();
      if (!current || current_attempts->sent != sent || resend(*current))
        return;
      retry_on_silence(policy, sent, find, on_silence, resend);  // declined
    });
  });
}

// ---------------------------------------------------------------------------
// BrokerActor
// ---------------------------------------------------------------------------

void BrokerActor::on_message(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "withdraw.start") {
    const std::uint64_t req_id = r.get_u64();
    const Cents denomination = r.get_u32();
    const auto span = start_span(msg.trace, "broker_withdraw_offer");
    OpCounters ops;
    Message reply{id(), msg.from, "", {}, msg.trace};
    {
      ScopedOpCounting guard(ops);
      auto offer = broker_.start_withdrawal(denomination, now());
      Writer w;
      w.put_u64(req_id);
      if (offer) {
        reply.type = "withdraw.offer";
        w.put_u64(offer.value().session);
        offer.value().info.encode(w);
        w.put_bigint(offer.value().first.a);
        w.put_bigint(offer.value().first.b);
      } else {
        reply.type = "withdraw.refused";
        w.put_string(offer.refusal().detail);
      }
      reply.payload = w.take();
    }
    send_after_cost(ops, std::move(reply), span);
  } else if (msg.type == "withdraw.challenge") {
    const std::uint64_t session = r.get_u64();
    const BigInt e = r.get_bigint();
    const auto span = start_span(msg.trace, "broker_withdraw_finish");
    OpCounters ops;
    Message reply{id(), msg.from, "", {}, msg.trace};
    {
      ScopedOpCounting guard(ops);
      // finish_withdrawal is idempotent for a retransmitted identical
      // challenge, so client retries after a lost response are safe.
      auto response = broker_.finish_withdrawal(session, e);
      Writer w;
      w.put_u64(session);
      if (response) {
        reply.type = "withdraw.response";
        w.put_bigint(response.value().r);
        w.put_bigint(response.value().c);
        w.put_bigint(response.value().s);
      } else {
        reply.type = "withdraw.refused";
        w.put_string(response.refusal().detail);
      }
      reply.payload = w.take();
    }
    send_after_cost(ops, std::move(reply), span);
  } else if (msg.type == "deposit.submit") {
    auto st = ecash::SignedTranscript::decode(r);
    // The paper's final phase: the broker reconciles the deposit against
    // its spent-coin ledger and credits the merchant.
    const auto span = start_span(msg.trace, "reconcile");
    OpCounters ops;
    Message reply{id(), msg.from, "", {}, msg.trace};
    {
      ScopedOpCounting guard(ops);
      // The depositor is authenticated by its network endpoint here; a real
      // deployment would use a transport-level credential.
      auto receipt =
          broker_.deposit(st.transcript.merchant, st, now());
      Writer w;
      w.put_bytes(st.transcript.coin.bare.coin_hash());
      if (receipt) {
        reply.type = "deposit.receipt";
        w.put_u32(receipt.value().credited);
        w.put_u8(receipt.value().paid_from_witness_deposit ? 1 : 0);
      } else {
        reply.type = "deposit.refused";
        // Machine-readable reason first: kAlreadyDeposited tells a retrying
        // depositor that an earlier copy landed and only the receipt was
        // lost, which is an ack rather than an error.
        w.put_u8(static_cast<std::uint8_t>(receipt.refusal().reason));
        w.put_string(receipt.refusal().detail);
      }
      reply.payload = w.take();
    }
    send_after_cost(ops, std::move(reply), span);
  }
}

// ---------------------------------------------------------------------------
// MerchantActor
// ---------------------------------------------------------------------------

void MerchantActor::on_message(const Message& msg) {
  if (msg.type == "pay.commit_req") {
    handle_commit_request(msg);
  } else if (msg.type == "pay.transcript") {
    handle_transcript(msg);
  } else if (msg.type == "pay.sign_req") {
    handle_sign_request(msg);
  } else if (msg.type == "pay.endorse" || msg.type == "pay.double_spend" ||
             msg.type == "pay.sign_refused") {
    handle_sign_reply(msg);
  } else if (msg.type == "deposit.receipt" || msg.type == "deposit.refused") {
    handle_deposit_receipt(msg);
  }
}

void MerchantActor::handle_commit_request(const Message& msg) {
  Reader r(msg.payload);
  const Hash256 coin_hash = read_hash256(r);
  const Hash256 nonce = read_hash256(r);
  const auto span = start_span(msg.trace, "witness_commit");
  OpCounters ops;
  Message reply{id(), msg.from, "", {}, msg.trace};
  {
    ScopedOpCounting guard(ops);
    auto commitment = witness_.request_commitment(coin_hash, nonce, now());
    Writer w;
    if (commitment) {
      reply.type = "pay.commit";
      commitment.value().encode(w);
    } else {
      reply.type = "pay.commit_refused";
      w.put_bytes(coin_hash);
      w.put_string(commitment.refusal().detail);
    }
    reply.payload = w.take();
  }
  send_after_cost(ops, std::move(reply), span);
}

void MerchantActor::handle_transcript(const Message& msg) {
  Reader r(msg.payload);
  auto transcript = ecash::PaymentTranscript::decode(r);
  const std::uint8_t n = r.get_u8();
  std::vector<ecash::WitnessCommitment> commitments;
  commitments.reserve(n);
  for (std::uint8_t i = 0; i < n; ++i)
    commitments.push_back(ecash::WitnessCommitment::decode(r));

  const Hash256 coin_hash = transcript.coin.bare.coin_hash();

  // Idempotent retransmission handling: the client resends the same bytes
  // until it hears back, so a duplicate must converge on the same outcome
  // instead of a "coin already presented" refusal.
  if (merchant_.already_serviced(coin_hash)) {
    // Service was already delivered and the pay.service ack was lost in
    // transit; re-acknowledge.  The transcript only completes once — the
    // deposit queue and service counters are untouched.
    note(&Counters::duplicates_suppressed, msg.trace, "dup.suppressed",
         "transcript for serviced coin");
    Writer w;
    w.put_bytes(coin_hash);
    send_now(Message{id(), msg.from, "pay.service", w.take(), msg.trace});
    return;
  }
  if (auto it = in_flight_.find(coin_hash); it != in_flight_.end()) {
    if (it->second.client == msg.from) {
      // Same client retransmitted while witnesses are still being gathered:
      // re-drive the sign requests.  Witnesses re-issue endorsements for an
      // identical transcript idempotently, and duplicate endorsements are
      // suppressed in handle_sign_reply.
      note(&Counters::duplicates_suppressed, msg.trace, "dup.suppressed",
           "transcript re-drive");
      it->second.trace = msg.trace;  // latest retransmission owns the phase
      Writer w;
      transcript.encode(w);
      auto payload = w.take();
      for (const auto& witness : it->second.witnesses) {
        auto node = directory_.merchants.find(witness);
        if (node == directory_.merchants.end()) continue;
        send_now(
            Message{id(), node->second, "pay.sign_req", payload, msg.trace});
      }
      return;
    }
    // A different client presenting the same coin is a concurrent spend
    // attempt; fall through and let receive_payment refuse it.
  }

  const auto span = start_span(msg.trace, "merchant_validate");
  OpCounters ops;
  std::optional<Refusal> refusal;
  {
    ScopedOpCounting guard(ops);
    auto accepted = merchant_.receive_payment(transcript, commitments, now());
    if (!accepted) refusal = accepted.refusal();
  }
  if (refusal) {
    Writer w;
    w.put_bytes(coin_hash);
    w.put_string(refusal->detail);
    send_after_cost(
        ops, Message{id(), msg.from, "pay.refused", w.take(), msg.trace},
        span);
    return;
  }
  InFlight record;
  record.client = msg.from;
  record.trace = msg.trace;
  record.witnesses.reserve(commitments.size());
  for (const auto& commitment : commitments)
    record.witnesses.push_back(commitment.witness);
  in_flight_[coin_hash] = std::move(record);
  // Forward the transcript to every committing witness for countersigning.
  Writer w;
  transcript.encode(w);
  auto payload = w.take();
  bool first = true;
  for (const auto& commitment : commitments) {
    auto node = directory_.merchants.find(commitment.witness);
    if (node == directory_.merchants.end()) continue;
    Message sign_req{id(), node->second, "pay.sign_req", payload, msg.trace};
    if (first)
      send_after_cost(ops, std::move(sign_req), span);
    else
      send_after_cost(ops, std::move(sign_req));
    first = false;
    ops = OpCounters{};  // charge validation cost only once
  }
  // No reachable witness at all: the span would otherwise never close.
  if (first && tracer()) tracer()->end_span(span, "no reachable witness");
}

void MerchantActor::handle_sign_request(const Message& msg) {
  Reader r(msg.payload);
  auto transcript = ecash::PaymentTranscript::decode(r);
  const Hash256 coin_hash = transcript.coin.bare.coin_hash();
  const auto span = start_span(msg.trace, "witness_countersign");
  OpCounters ops;
  Message reply{id(), msg.from, "", {}, msg.trace};
  {
    ScopedOpCounting guard(ops);
    auto result = witness_.sign_transcript(transcript, now());
    Writer w;
    if (!result) {
      reply.type = "pay.sign_refused";
      w.put_bytes(coin_hash);
      w.put_string(result.refusal().detail);
    } else if (auto* endorsement =
                   std::get_if<ecash::WitnessEndorsement>(&result.value())) {
      reply.type = "pay.endorse";
      w.put_bytes(coin_hash);
      endorsement->encode(w);
    } else {
      reply.type = "pay.double_spend";
      std::get<ecash::DoubleSpendProof>(result.value()).encode(w);
    }
    reply.payload = w.take();
  }
  send_after_cost(ops, std::move(reply), span);
}

void MerchantActor::handle_sign_reply(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "pay.double_spend") {
    auto proof = ecash::DoubleSpendProof::decode(r);
    auto client = in_flight_.find(proof.coin_hash);
    if (client == in_flight_.end()) {
      note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
           "double-spend proof");
      return;
    }
    OpCounters ops;
    Message reply{id(), client->second.client, "", {},
                  client->second.trace};
    {
      ScopedOpCounting guard(ops);
      auto verified = merchant_.handle_double_spend(proof.coin_hash, proof);
      Writer w;
      if (verified) {
        reply.type = "pay.refused_double_spend";
        verified.value().encode(w);
      } else {
        // Witness answered with a bogus proof: from the client's view the
        // payment failed; the merchant can escalate to the arbiter.
        reply.type = "pay.refused";
        w.put_bytes(proof.coin_hash);
        w.put_string(verified.refusal().detail);
      }
      reply.payload = w.take();
    }
    in_flight_.erase(client);
    send_after_cost(ops, std::move(reply));
    return;
  }

  const Hash256 coin_hash = read_hash256(r);
  auto client = in_flight_.find(coin_hash);
  if (client == in_flight_.end()) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         msg.type);
    return;
  }

  if (msg.type == "pay.sign_refused") {
    const std::string detail = r.get_string();
    merchant_.abandon(coin_hash);
    Writer w;
    w.put_bytes(coin_hash);
    w.put_string("witness refused: " + detail);
    send_now(Message{id(), client->second.client, "pay.refused", w.take(),
                     client->second.trace});
    in_flight_.erase(client);
    return;
  }

  // pay.endorse
  auto endorsement = ecash::WitnessEndorsement::decode(r);
  const obs::TraceContext payment_trace = client->second.trace;
  OpCounters ops;
  std::optional<Message> reply;
  bool serviced = false;
  {
    ScopedOpCounting guard(ops);
    auto done = merchant_.add_endorsement(coin_hash, endorsement);
    Writer w;
    if (!done) {
      if (done.refusal().reason == RefusalReason::kDuplicate) {
        // A re-driven sign request produced a second identical endorsement;
        // not a protocol failure, just a duplicate delivery.
        note(&Counters::duplicates_suppressed, payment_trace, "dup.suppressed",
             "duplicate endorsement");
        return;
      }
      w.put_bytes(coin_hash);
      w.put_string(done.refusal().detail);
      reply = Message{id(), client->second.client, "pay.refused", w.take(),
                      payment_trace};
    } else if (done.value()) {
      w.put_bytes(coin_hash);
      reply = Message{id(), client->second.client, "pay.service", w.take(),
                      payment_trace};
      serviced = true;
    }
    // else: keep waiting for more endorsements (k-of-n).
  }
  if (reply) {
    if (serviced) {
      // Remember the payment's trace so the eventual deposit of this coin
      // (driven by flush_deposits, possibly much later) joins the same trace.
      deposit_trace_[coin_hash] = payment_trace;
    }
    in_flight_.erase(client);
    send_after_cost(ops, std::move(*reply));
  }
}

void MerchantActor::flush_deposits() {
  for (auto& st : merchant_.drain_deposit_queue()) {
    Writer w;
    st.encode(w);
    const Hash256 coin_hash = st.transcript.coin.bare.coin_hash();
    PendingDeposit pd;
    pd.payload = w.take();
    if (auto it = deposit_trace_.find(coin_hash);
        it != deposit_trace_.end()) {
      pd.parent = it->second;
      deposit_trace_.erase(it);
    }
    pending_deposits_[coin_hash] = std::move(pd);
  }
  // Collect keys first: send_deposit arms timers but never mutates the map,
  // still, iterate defensively over a stable key list.
  std::vector<Hash256> to_send;
  for (auto& [coin_hash, pd] : pending_deposits_) {
    if (pd.attempts.sent > 0 && !pd.exhausted) continue;  // loop is running
    pd.exhausted = false;
    pd.attempts = {};
    to_send.push_back(coin_hash);
  }
  for (const auto& coin_hash : to_send) send_deposit(coin_hash);
}

void MerchantActor::send_deposit(const Hash256& coin_hash) {
  auto it = pending_deposits_.find(coin_hash);
  if (it == pending_deposits_.end()) return;
  PendingDeposit& pd = it->second;
  if (!pd.span.valid()) pd.span = start_span(pd.parent, "deposit");
  ++pd.attempts.sent;
  send_now(Message{id(), directory_.broker, "deposit.submit", pd.payload,
                   pd.span});
  retry_on_silence(
      retry_, pd.attempts.sent,
      [this, coin_hash,
       restart_gen = restart_generation_]() -> Found<PendingDeposit> {
        auto found = pending_deposits_.find(coin_hash);
        if (restart_gen != restart_generation_ ||
            found == pending_deposits_.end() || found->second.exhausted)
          return {};
        return {&found->second, &found->second.attempts};
      },
      [this](PendingDeposit& deposit) {
        trace_note(deposit.span, "rpc.silence", "no receipt from the broker");
        if (deposit.attempts.sent < retry_.max_attempts) return true;
        // Keep the transcript; a later flush_deposits() re-submits it.
        deposit.exhausted = true;
        note(&Counters::timeouts, deposit.span, "rpc.exhausted",
             "deposit retries exhausted; parked for next flush");
        if (auto* tr = tracer()) tr->end_span(deposit.span, "exhausted");
        deposit.span = obs::TraceContext{};
        return false;
      },
      [this, coin_hash](PendingDeposit& deposit) {
        note(&Counters::retries, deposit.span, "rpc.retry",
             "deposit attempt timed out; resending");
        send_deposit(coin_hash);
        return true;
      });
}

void MerchantActor::handle_deposit_receipt(const Message& msg) {
  Reader r(msg.payload);
  const Hash256 coin_hash = read_hash256(r);
  auto it = pending_deposits_.find(coin_hash);
  if (it == pending_deposits_.end()) return;  // manual submission or dup ack
  std::string status = "ok";
  if (msg.type == "deposit.refused") {
    const auto reason = static_cast<RefusalReason>(r.get_u8());
    if (reason == RefusalReason::kAlreadyDeposited) {
      // An earlier retry landed and only the receipt was lost: that is an
      // ack, not an error.
      note(&Counters::duplicates_suppressed, it->second.span, "dup.suppressed",
           "already deposited: lost receipt, not an error");
    } else {
      status = "refused";
    }
    // Any other refusal is definitive (the broker validated and said no);
    // retrying the same bytes cannot change it.
  }
  if (auto* tr = tracer()) tr->end_span(it->second.span, status);
  pending_deposits_.erase(it);
}

void MerchantActor::on_restart() {
  // Volatile per-payment state is gone — clients re-drive or time out.
  in_flight_.clear();
  ++restart_generation_;  // orphan all armed timers
  // Deposit submissions are journaled with the durable storefront state.
  // The node is still down while this hook runs, so mark them for
  // re-submission by the next flush_deposits() instead of resending here.
  for (auto& [coin_hash, pd] : pending_deposits_) {
    pd.exhausted = true;
    trace_note(pd.span, "node.restart", "merchant restarted mid-deposit");
    if (auto* tr = tracer()) tr->end_span(pd.span, "restart");
    pd.span = obs::TraceContext{};
  }
}

// ---------------------------------------------------------------------------
// ClientActor
// ---------------------------------------------------------------------------

ClientActor::ClientActor(transport::Transport& tx, simnet::CostModel cost,
                         const group::SchnorrGroup& grp,
                         sig::PublicKey broker_key,
                         const ecash::WitnessTable& table,
                         const Directory& directory, std::uint64_t seed,
                         const RetryPolicy& retry,
                         const PeerHealth::Config& breaker)
    : ProtocolActor(tx, cost),
      grp_(grp),
      broker_key_(broker_key),
      table_(table),
      directory_(directory),
      rng_(seed),
      wallet_(grp, broker_key, broker_key, rng_),
      retry_(retry),
      health_(breaker) {}

void ClientActor::withdraw(Cents denomination, WithdrawCallback done,
                           SimTime deadline_ms) {
  const std::uint64_t req_id = next_request_++;
  PendingWithdrawal pending;
  pending.done = std::move(done);
  pending.generation = ++withdraw_generation_;
  if (auto* tr = tracer()) pending.span = tr->start_root("withdraw", id());
  Writer w;
  w.put_u64(req_id);
  w.put_u32(denomination);
  pending.last_type = "withdraw.start";
  pending.last_payload = w.take();
  const std::uint64_t generation = pending.generation;
  if (deadline_ms > 0) {
    pending.deadline = now_ms() + deadline_ms;
    // Overall deadline: fail with a clean refusal if still unresolved.
    schedule(deadline_ms, [this, generation]() {
      auto fail_in = [&](std::map<std::uint64_t, PendingWithdrawal>& m) {
        for (auto it = m.begin(); it != m.end(); ++it) {
          if (it->second.generation != generation) continue;
          auto cb = std::move(it->second.done);
          const auto span = it->second.span;
          m.erase(it);
          note(&Counters::timeouts, span, "rpc.timeout",
               "withdrawal deadline expired");
          if (auto* tr = tracer()) tr->end_span(span, "timeout");
          cb(Refusal{RefusalReason::kInternal, "timeout"});
          return true;
        }
        return false;
      };
      if (!fail_in(withdrawal_requests_)) fail_in(withdrawal_sessions_);
    });
  }
  auto payload = pending.last_payload;
  const obs::TraceContext span = pending.span;
  withdrawal_requests_[req_id] = std::move(pending);
  send_now(Message{id(), directory_.broker, "withdraw.start",
                   std::move(payload), span});
  if (deadline_ms > 0) retry_withdrawal(false, req_id, generation, 1);
}

void ClientActor::retry_withdrawal(bool by_session, std::uint64_t key,
                                   std::uint64_t generation, std::size_t sent) {
  retry_on_silence(
      retry_, sent,
      [this, by_session, key, generation]() -> Found<PendingWithdrawal> {
        auto& map = by_session ? withdrawal_sessions_ : withdrawal_requests_;
        auto found = map.find(key);
        if (found == map.end() || found->second.generation != generation)
          return {};
        return {&found->second, &found->second.attempts};
      },
      [this](PendingWithdrawal& w) {
        trace_note(w.span, "rpc.silence", "no broker reply before timeout");
        if (health_.record_failure(directory_.broker, now_ms())) {
          note(&Counters::breaker_trips, w.span, "breaker.trip",
               "broker circuit opened");
        }
        if (w.attempts.sent < retry_.max_attempts) return true;
        trace_note(w.span, "rpc.exhausted",
                   "broker attempt budget spent; the deadline decides");
        return false;
      },
      [this, by_session, key, generation](PendingWithdrawal& w) {
        // Breaker open: decline, so the loop re-arms and resumes with the
        // half-open probe.
        if (!health_.allow(directory_.broker, now_ms())) return false;
        ++w.attempts.sent;
        note(&Counters::retries, w.span, "rpc.retry",
             "resending " + w.last_type);
        send_now(Message{id(), directory_.broker, w.last_type, w.last_payload,
                         w.span});
        retry_withdrawal(by_session, key, generation, w.attempts.sent);
        return true;
      });
}

void ClientActor::handle_withdraw_offer(const Message& msg) {
  Reader r(msg.payload);
  const std::uint64_t req_id = r.get_u64();
  auto it = withdrawal_requests_.find(req_id);
  if (it == withdrawal_requests_.end()) {
    // Duplicate offer (retransmitted start, duplicated delivery) — the
    // first copy won and this request id is gone.
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         "withdraw.offer");
    return;
  }

  ecash::Broker::WithdrawalOffer offer;
  offer.session = r.get_u64();
  offer.info = ecash::CoinInfo::decode(r);
  offer.first.a = r.get_bigint();
  offer.first.b = r.get_bigint();

  health_.record_success(directory_.broker);
  OpCounters ops;
  Message reply{id(), directory_.broker, "withdraw.challenge", {},
                it->second.span};
  {
    ScopedOpCounting guard(ops);
    it->second.state = wallet_.begin_withdrawal(offer);
    Writer w;
    w.put_u64(it->second.state->session);
    w.put_bigint(it->second.state->e);
    reply.payload = w.take();
  }
  // Move the pending record to the by-session map for the response phase.
  auto pending = std::move(it->second);
  withdrawal_requests_.erase(it);
  const std::uint64_t session = pending.state->session;
  const std::uint64_t generation = pending.generation;
  const bool retries = pending.deadline > 0;
  pending.last_type = "withdraw.challenge";
  pending.last_payload = reply.payload;
  pending.attempts = Attempts{.sent = 1};
  withdrawal_sessions_[session] = std::move(pending);
  send_after_cost(ops, std::move(reply));
  if (retries) retry_withdrawal(true, session, generation, 1);
}

void ClientActor::handle_withdraw_response(const Message& msg) {
  Reader r(msg.payload);
  const std::uint64_t id = r.get_u64();
  auto it = withdrawal_sessions_.find(id);
  if (it == withdrawal_sessions_.end() && msg.type == "withdraw.refused") {
    // A refusal straight after withdraw.start carries our request id.
    it = withdrawal_requests_.find(id);
    if (it == withdrawal_requests_.end()) {
      note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
           "withdraw.refused");
      return;
    }
    auto pending = std::move(it->second);
    withdrawal_requests_.erase(it);
    if (auto* tr = tracer()) tr->end_span(pending.span, "refused");
    pending.done(Refusal{RefusalReason::kInternal, r.get_string()});
    return;
  }
  if (it == withdrawal_sessions_.end()) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         msg.type);
    return;
  }
  auto pending = std::move(it->second);
  withdrawal_sessions_.erase(it);

  if (msg.type == "withdraw.refused") {
    if (auto* tr = tracer()) tr->end_span(pending.span, "refused");
    pending.done(Refusal{RefusalReason::kInternal, r.get_string()});
    return;
  }
  health_.record_success(directory_.broker);
  blindsig::SignerResponse response;
  response.r = r.get_bigint();
  response.c = r.get_bigint();
  response.s = r.get_bigint();
  OpCounters ops;
  Outcome<ecash::WalletCoin> coin =
      Refusal{RefusalReason::kInternal, "unset"};
  {
    ScopedOpCounting guard(ops);
    coin = wallet_.complete_withdrawal(*pending.state, response, table_);
  }
  // Charge the unblinding cost before reporting completion.
  schedule(cost_.sample_cost_ms(ops, rng()),
                      [this, span = pending.span,
                       done = std::move(pending.done),
                       coin = std::move(coin)]() mutable {
                        if (auto* tr = tracer())
                          tr->end_span(span, coin ? "ok" : "refused");
                        done(std::move(coin));
                      });
}

void ClientActor::pay(const ecash::WalletCoin& coin,
                      const MerchantId& merchant, PayCallback done,
                      SimTime timeout_ms) {
  // One in-flight payment per coin per client: replies are correlated by
  // coin hash.  (An attacker wanting concurrent spends runs two clients —
  // see the actors test; the witness still serializes them.)
  {
    metrics::ScopedSuspendOpCounting suspend;
    const auto hash = coin.coin.bare.coin_hash();
    if (payments_.contains(hash)) {
      PayResult result;
      result.error = "payment already in flight for this coin";
      done(std::move(result));
      return;
    }
  }
  auto merchant_node = directory_.merchants.find(merchant);
  if (merchant_node == directory_.merchants.end()) {
    PayResult result;
    result.error = "unknown merchant";
    done(std::move(result));
    return;
  }
  PendingPayment p;
  p.coin = coin;
  p.merchant = merchant;
  p.merchant_node = merchant_node->second;
  p.started = now_ms();
  p.deadline = p.started + timeout_ms;
  p.generation = ++pay_generation_;
  p.done = std::move(done);
  if (auto* tr = tracer()) {
    p.trace_root = tr->start_root("payment", id());
    p.phase = tr->start_child(p.trace_root, "assign_witness", id());
  }

  OpCounters ops;
  {
    ScopedOpCounting guard(ops);
    p.intent = wallet_.prepare_payment(coin, merchant);
  }
  {
    // The coin's n witness entries are its replica set.  Order them the way
    // a chord successor-list lookup would try replicas from the coin's
    // primary witness point: nearest clockwise range first, then onward
    // around the ring.  (Suspended counting: witness_point re-hashes the
    // coin, which is bookkeeping, not protocol work.)
    metrics::ScopedSuspendOpCounting suspend;
    const bn::BigInt key = coin.coin.bare.witness_point(0);
    std::vector<bn::BigInt> points;
    points.reserve(coin.coin.witnesses.size());
    for (const auto& entry : coin.coin.witnesses) points.push_back(entry.lo);
    for (std::size_t idx : overlay::failover_order(key, points)) {
      const auto& entry = coin.coin.witnesses[idx];
      auto node = directory_.merchants.find(entry.merchant);
      if (node == directory_.merchants.end()) continue;
      WitnessAttempt attempt;
      attempt.witness = entry.merchant;
      attempt.node = node->second;
      p.plan.push_back(std::move(attempt));
    }
  }
  Writer w;
  w.put_bytes(p.intent.coin_hash);
  w.put_bytes(p.intent.nonce);
  p.commit_payload = w.take();

  const Hash256 coin_hash = p.intent.coin_hash;
  const std::uint64_t generation = p.generation;
  payments_[coin_hash] = std::move(p);

  // Step 1: engage the first witness_k admissible witnesses in failover
  // order, after charging the preparation cost once.  The rest of the plan
  // is spare capacity for failover.
  auto engage = [this, coin_hash, generation]() {
    PendingPayment* found = find_payment(coin_hash, generation);
    if (!found) return;
    PendingPayment& payment = *found;
    // Witness selection done: move the trace into the commit phase.
    if (auto* tr = tracer()) {
      tr->end_span(payment.phase);
      payment.phase = tr->start_child(payment.trace_root, "payment_commit",
                                      id());
    }
    const std::size_t need = payment.coin.coin.bare.info.witness_k;
    std::size_t engaged = 0;
    for (std::size_t i = 0; i < payment.plan.size() && engaged < need; ++i) {
      if (!admit_witness(payment, payment.plan[i].node)) continue;
      send_commit_req(payment, i);
      ++engaged;
    }
  };
  const SimTime prep_cost = cost_.sample_cost_ms(ops, rng());
  if (prep_cost > 0) {
    schedule(prep_cost, engage);
  } else {
    engage();
  }

  schedule(timeout_ms, [this, coin_hash, generation]() {
    PendingPayment* payment = find_payment(coin_hash, generation);
    if (!payment) return;
    PayResult result;
    result.accepted = false;
    result.elapsed_ms = now_ms() - payment->started;
    result.error = "timeout";
    note(&Counters::timeouts, payment->phase, "rpc.timeout",
         "payment deadline expired");
    finish_payment(*payment, std::move(result));
  });
}

ClientActor::PendingPayment* ClientActor::find_payment(
    const Hash256& coin_hash, std::uint64_t generation) {
  auto it = payments_.find(coin_hash);
  if (it == payments_.end() || it->second.generation != generation)
    return nullptr;
  return &it->second;
}

bool ClientActor::admit_witness(const PendingPayment& p, NodeId node) {
  if (health_.allow(node, now_ms())) return true;
  trace_note(p.phase, "breaker.skip", "witness node " + std::to_string(node));
  return false;
}

void ClientActor::send_commit_req(PendingPayment& p, std::size_t index) {
  WitnessAttempt& attempt = p.plan[index];
  ++attempt.attempts.sent;
  send_now(Message{id(), attempt.node, "pay.commit_req", p.commit_payload,
                   p.phase});
  retry_on_silence(
      retry_, attempt.attempts.sent,
      [this, coin_hash = p.intent.coin_hash, generation = p.generation,
       index]() -> Found<PendingPayment> {
        PendingPayment* payment = find_payment(coin_hash, generation);
        // Answered: the commit stage is over, or this witness is settled.
        if (!payment || !payment->transcript_payload.empty()) return {};
        WitnessAttempt& a = payment->plan[index];
        if (a.committed || a.refused || a.exhausted) return {};
        return {payment, &a.attempts};
      },
      [this, index](PendingPayment& payment) {
        // Silence: the witness (or the path to it) is failing.  Hedge with
        // the next replica immediately, and retry this one with backoff
        // until its attempt budget runs out.
        WitnessAttempt& a = payment.plan[index];
        const std::string node = "witness node " + std::to_string(a.node);
        trace_note(payment.phase, "rpc.silence", "no commit from " + node);
        if (health_.record_failure(a.node, now_ms())) {
          note(&Counters::breaker_trips, payment.phase, "breaker.trip",
               node + " circuit opened");
        }
        engage_next_witness(payment);
        if (a.attempts.sent < retry_.max_attempts) return true;
        a.exhausted = true;
        trace_note(payment.phase, "rpc.exhausted",
                   node + " attempt budget spent");
        check_commit_possibility(payment, "witness unreachable");
        return false;
      },
      [this, index](PendingPayment& payment) {
        note(&Counters::retries, payment.phase, "rpc.retry",
             "re-requesting commitment from witness node " +
                 std::to_string(payment.plan[index].node));
        send_commit_req(payment, index);
        return true;
      });
}

void ClientActor::engage_next_witness(PendingPayment& p) {
  for (std::size_t i = 0; i < p.plan.size(); ++i) {
    WitnessAttempt& attempt = p.plan[i];
    if (attempt.attempts.sent > 0 || attempt.refused || attempt.exhausted)
      continue;
    if (!admit_witness(p, attempt.node)) continue;
    note(&Counters::failovers, p.phase, "rpc.failover",
         "engaging spare witness node " + std::to_string(attempt.node));
    send_commit_req(p, i);
    return;
  }
}

void ClientActor::check_commit_possibility(PendingPayment& p,
                                           const std::string& detail) {
  const std::size_t need = p.coin.coin.bare.info.witness_k;
  if (p.commitments.size() >= need) return;
  std::size_t possible = 0;
  for (const auto& attempt : p.plan) {
    if (!attempt.refused && !attempt.exhausted) ++possible;
  }
  if (possible >= need) return;
  PayResult result;
  result.elapsed_ms = now_ms() - p.started;
  result.error = detail;
  finish_payment(p, std::move(result));
}

void ClientActor::handle_commit(const Message& msg) {
  Reader r(msg.payload);
  auto commitment = ecash::WitnessCommitment::decode(r);
  auto it = payments_.find(commitment.coin_hash);
  if (it == payments_.end()) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         "pay.commit");
    return;
  }
  PendingPayment& p = it->second;
  if (commitment.nonce != p.intent.nonce) {
    // A commitment from an earlier, abandoned payment of this coin — its
    // nonce binds a different (salt, merchant) pair.
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         "stale-nonce commitment");
    return;
  }
  auto plan_it = std::find_if(p.plan.begin(), p.plan.end(),
                              [&](const WitnessAttempt& a) {
                                return a.witness == commitment.witness;
                              });
  if (plan_it == p.plan.end()) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         "unknown witness");
    return;
  }
  if (plan_it->committed) {
    // Duplicated delivery or resend echo.
    note(&Counters::duplicates_suppressed, p.phase, "dup.suppressed",
         "duplicate commitment");
    return;
  }
  plan_it->committed = true;
  health_.record_success(plan_it->node);
  const std::uint8_t need = p.coin.coin.bare.info.witness_k;
  if (p.commitments.size() >= need) return;  // hedged extra; already moving on
  p.commitments.push_back(std::move(commitment));
  if (p.commitments.size() < need) return;

  // k commitments gathered: the commit phase is over, the witness-sign
  // phase (transcript build, merchant validation, countersignatures) opens.
  if (auto* tr = tracer()) {
    tr->end_span(p.phase);
    p.phase = tr->start_child(p.trace_root, "witness_sign", id());
  }

  // Step 3: build and send the transcript (this is where the client's Ver
  // of the commitment signature and the NIZK response happen).
  OpCounters ops;
  Outcome<ecash::PaymentTranscript> transcript =
      Refusal{RefusalReason::kInternal, "unset"};
  {
    ScopedOpCounting guard(ops);
    transcript = wallet_.build_transcript(p.coin, p.intent, p.commitments,
                                          now());
  }
  if (!transcript) {
    PayResult result;
    result.elapsed_ms = now_ms() - p.started;
    result.error = transcript.refusal().detail;
    finish_payment(p, std::move(result));
    return;
  }
  Writer w;
  transcript.value().encode(w);
  w.put_u8(static_cast<std::uint8_t>(p.commitments.size()));
  for (const auto& c : p.commitments) c.encode(w);
  p.transcript_payload = w.take();

  const Hash256 coin_hash = p.intent.coin_hash;
  const std::uint64_t generation = p.generation;
  const SimTime build_cost = cost_.sample_cost_ms(ops, rng());
  auto deliver = [this, coin_hash, generation]() {
    if (PendingPayment* payment = find_payment(coin_hash, generation))
      send_transcript(*payment);
  };
  if (build_cost > 0) {
    schedule(build_cost, deliver);
  } else {
    deliver();
  }
}

void ClientActor::send_transcript(PendingPayment& p) {
  ++p.transcript.sent;
  send_now(Message{id(), p.merchant_node, "pay.transcript",
                   p.transcript_payload, p.phase});
  retry_on_silence(
      retry_, p.transcript.sent,
      [this, coin_hash = p.intent.coin_hash,
       generation = p.generation]() -> Found<PendingPayment> {
        PendingPayment* payment = find_payment(coin_hash, generation);
        if (!payment) return {};
        return {payment, &payment->transcript};
      },
      [this](PendingPayment& payment) {
        trace_note(payment.phase, "rpc.silence",
                   "no merchant reply to transcript");
        if (health_.record_failure(payment.merchant_node, now_ms())) {
          note(&Counters::breaker_trips, payment.phase, "breaker.trip",
               "merchant circuit opened");
        }
        if (payment.transcript.sent < retry_.max_attempts) return true;
        // The merchant is the one fixed counterparty — no failover target.
        trace_note(payment.phase, "rpc.exhausted",
                   "merchant attempt budget spent");
        PayResult result;
        result.elapsed_ms = now_ms() - payment.started;
        result.error = "merchant unreachable";
        finish_payment(payment, std::move(result));
        return false;
      },
      [this](PendingPayment& payment) {
        note(&Counters::retries, payment.phase, "rpc.retry",
             "resending transcript");
        send_transcript(payment);
        return true;
      });
}

void ClientActor::handle_pay_reply(const Message& msg) {
  Reader r(msg.payload);
  if (msg.type == "pay.refused_double_spend") {
    auto proof = ecash::DoubleSpendProof::decode(r);
    auto it = payments_.find(proof.coin_hash);
    if (it == payments_.end()) {
      note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
           "double-spend refusal");
      return;
    }
    if (msg.from != it->second.merchant_node) {
      note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
           "wrong merchant");
      return;
    }
    trace_note(it->second.phase, "pay.double_spend",
               "merchant returned a double-spend proof");
    PayResult result;
    result.elapsed_ms = now_ms() - it->second.started;
    result.double_spend_proof = std::move(proof);
    result.error = "double spend detected";
    finish_payment(it->second, std::move(result));
    return;
  }
  const Hash256 coin_hash = read_hash256(r);
  auto it = payments_.find(coin_hash);
  if (it == payments_.end()) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         msg.type);
    return;
  }
  PendingPayment& p = it->second;

  if (msg.type == "pay.commit_refused") {
    // One witness refused to commit; under k-of-n others may still carry
    // the payment.  Fail only when k successes are no longer reachable.
    auto plan_it = std::find_if(p.plan.begin(), p.plan.end(),
                                [&](const WitnessAttempt& a) {
                                  return a.node == msg.from;
                                });
    if (plan_it == p.plan.end()) {
      note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
           "refusal from non-plan node");
      return;
    }
    plan_it->refused = true;
    health_.record_success(plan_it->node);  // it answered; it is alive
    trace_note(p.phase, "commit.refused",
               "witness node " + std::to_string(plan_it->node) + " refused");
    engage_next_witness(p);
    check_commit_possibility(p, "commitment refused: " + r.get_string());
    return;
  }

  // pay.service / pay.refused come from the payment's merchant; anything
  // else is a stray or stale delivery.
  if (msg.from != p.merchant_node) {
    note(&Counters::late_replies_ignored, msg.trace, "late_reply.ignored",
         "reply from wrong node");
    return;
  }
  PayResult result;
  result.elapsed_ms = now_ms() - p.started;
  if (msg.type == "pay.service") {
    health_.record_success(p.merchant_node);
    result.accepted = true;
  } else {
    result.error = r.get_string();
  }
  finish_payment(p, std::move(result));
}

void ClientActor::finish_payment(PendingPayment& p, PayResult result) {
  result.trace_id = p.trace_root.trace;
  if (auto* tr = tracer()) {
    const std::string status =
        result.accepted ? "ok" : result.error.value_or("failed");
    tr->end_span(p.phase, status);
    tr->end_span(p.trace_root, status);
  }
  auto done = std::move(p.done);
  payments_.erase(p.intent.coin_hash);
  done(std::move(result));
}

void ClientActor::on_message(const Message& msg) {
  if (msg.type == "withdraw.offer") {
    handle_withdraw_offer(msg);
  } else if (msg.type == "withdraw.response" ||
             msg.type == "withdraw.refused") {
    handle_withdraw_response(msg);
  } else if (msg.type == "pay.commit") {
    handle_commit(msg);
  } else if (msg.type == "pay.service" || msg.type == "pay.refused" ||
             msg.type == "pay.refused_double_spend" ||
             msg.type == "pay.commit_refused") {
    handle_pay_reply(msg);
  }
}

}  // namespace p2pcash::actors
