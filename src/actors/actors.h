// actors.h — the four protocol roles as message-passing actors.
//
// The protocol objects an ecash::Deployment builds (Broker, Merchant,
// WitnessService) plus Wallet, but every protocol step is a network message
// over simnet, and every handler charges virtual compute time from a
// CostModel based on the crypto ops it actually performed (recorded by the
// metrics layer).  This is the harness behind Table 2: payment wall-clock
// and per-role bytes under PlanetLab latencies with python/openssl costs.
//
// Message flow (payment, n=k=1):
//   client  -> witness : pay.commit_req (coin_hash, nonce)
//   witness -> client  : pay.commit     (signed commitment)
//   client  -> merchant: pay.transcript (transcript + commitments)
//   merchant-> witness : pay.sign_req   (transcript)
//   witness -> merchant: pay.endorse / pay.double_spend
//   merchant-> client  : pay.service / pay.refused
// — 3 round trips, matching the paper's "payment requires 3 rounds of
// message exchange (2 for payment, and 1 for commitment)".

#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "actors/retry.h"
#include "crypto/chacha.h"
#include "ecash/broker.h"
#include "ecash/merchant.h"
#include "ecash/wallet.h"
#include "ecash/witness.h"
#include "simnet/net.h"
#include "transport/transport.h"

namespace p2pcash::actors {

using ecash::Cents;
using ecash::MerchantId;
using ecash::Timestamp;
using simnet::Message;
using simnet::NodeId;
using simnet::SimTime;

/// Where each role lives on the simulated network.
struct Directory {
  NodeId broker = 0;
  std::map<MerchantId, NodeId> merchants;  // storefront + witness co-located
};

/// Base for protocol actors: cost-charged replies and current time as a
/// protocol Timestamp.
///
/// Actors are written against transport::Transport, never a concrete
/// network: over SimnetTransport they behave byte-for-byte as they always
/// did on simnet; over TcpNet the same handlers run on real sockets and
/// worker threads.  The strand contract (transport.h) is what makes the
/// actors' lock-free state safe there: all of one actor's handlers,
/// timers and posts are mutually serialized by the transport.
class ProtocolActor : public simnet::Node {
 public:
  ProtocolActor(transport::Transport& tx, simnet::CostModel cost)
      : tx_(tx), cost_(cost) {}

  Timestamp now() const { return static_cast<Timestamp>(tx_.now()); }

  /// Retry/failover/duplicate accounting for this actor.
  const metrics::ResilienceCounters& resilience() const { return resilience_; }

 protected:
  /// Sends `msg` after charging the compute time for `ops`.
  void send_after_cost(const metrics::OpCounters& ops, Message msg);
  /// Same, but also closes `span` at the moment the message actually
  /// leaves, so the handler span's duration covers the compute charge.
  void send_after_cost(const metrics::OpCounters& ops, Message msg,
                       obs::TraceContext span);
  /// Sends with no compute charge.
  void send_now(Message msg);

  /// Current transport time in milliseconds (sim-time or wall-clock).
  SimTime now_ms() const { return tx_.now(); }
  /// Runs `fn` on this actor's strand after `delay_ms`.
  void schedule(SimTime delay_ms, std::function<void()> fn) {
    tx_.schedule_on(id(), delay_ms, std::move(fn));
  }
  /// This actor's strand-confined RNG (retry jitter, cost sampling).
  bn::Rng& rng() { return tx_.rng(id()); }

  /// The transport's tracer, or nullptr when tracing is off.  All span
  /// state in the actors is plain TraceContext values; with no tracer
  /// attached they stay invalid and every call on them no-ops.
  obs::Tracer* tracer() const { return tx_.tracer(); }
  /// Opens a child span of `parent` on this node (invalid when tracing is
  /// off or the parent is untraced).
  obs::TraceContext start_span(const obs::TraceContext& parent,
                               std::string_view name);
  /// Records a point-in-time annotation on `ctx`'s span.
  void trace_note(const obs::TraceContext& ctx, std::string_view name,
                  std::string_view detail = {});
  /// Records one resilience event: bumps `counter` and annotates `ctx`'s
  /// span with `event`, so the counters and the trace never disagree.
  void note(std::uint64_t metrics::ResilienceCounters::*counter,
            const obs::TraceContext& ctx, std::string_view event,
            std::string_view detail = {});

  /// What a retry loop's lookup returns: the request and its Attempts.
  template <class Request>
  using Found = std::pair<Request*, Attempts*>;

  /// The one retry loop behind every resilient RPC (retry.h).  Arms the
  /// silence timer for send number `sent`.  When it fires, `find()`
  /// re-finds the request as a {request*, Attempts*} pair — {} once it was
  /// answered, abandoned or orphaned by a restart; a newer send makes it
  /// stale too.  `on_silence(request)` is the caller's policy (breaker
  /// bookkeeping, hedging, what a spent budget means) and returns false to
  /// end the loop.  Otherwise, one decorrelated-jitter backoff later, the
  /// request is re-found and `resend(request)` sends it again and re-arms
  /// this loop, or returns false to decline (breaker open) and the silence
  /// timer is re-armed without a send.
  /// (Defined in actors.cpp, whose actors are its only callers.)
  template <class Find, class OnSilence, class Resend>
  void retry_on_silence(const RetryPolicy& policy, std::size_t sent,
                        Find find, OnSilence on_silence, Resend resend);

  transport::Transport& tx_;
  simnet::CostModel cost_;

 private:
  metrics::ResilienceCounters resilience_;
};

/// The broker as an actor: withdrawal, deposit and renewal services.
class BrokerActor final : public ProtocolActor {
 public:
  BrokerActor(transport::Transport& tx, simnet::CostModel cost,
              ecash::Broker& broker)
      : ProtocolActor(tx, cost), broker_(broker) {}

  void on_message(const Message& msg) override;

  ecash::Broker& broker() { return broker_; }

 private:
  ecash::Broker& broker_;
};

/// A merchant machine: storefront and witness service behind one node.
class MerchantActor final : public ProtocolActor {
 public:
  MerchantActor(transport::Transport& tx, simnet::CostModel cost,
                ecash::Merchant& merchant, ecash::WitnessService& witness,
                const Directory& directory, const RetryPolicy& retry)
      : ProtocolActor(tx, cost),
        merchant_(merchant),
        witness_(witness),
        directory_(directory),
        retry_(retry) {}

  void on_message(const Message& msg) override;

  ecash::Merchant& merchant() { return merchant_; }
  ecash::WitnessService& witness() { return witness_; }

  /// Drains the storefront's deposit queue and submits every transcript to
  /// the broker, retrying with backoff until a receipt (or a definitive
  /// refusal) arrives.  kAlreadyDeposited counts as an ack — it means an
  /// earlier retry landed and only the receipt was lost.  Transcripts whose
  /// retries are exhausted stay queued here; a later call re-submits them.
  void flush_deposits();
  /// Deposits submitted but not yet acknowledged by the broker.
  std::size_t deposits_outstanding() const { return pending_deposits_.size(); }

  /// Crash recovery: volatile per-payment actor state is gone; the durable
  /// Merchant/WitnessService state was restored by the owner.  Clients
  /// retry or time out cleanly.
  void on_restart();

 private:
  void handle_commit_request(const Message& msg);
  void handle_transcript(const Message& msg);
  void handle_sign_request(const Message& msg);
  void handle_sign_reply(const Message& msg);
  void handle_deposit_receipt(const Message& msg);

  /// Submits (or resubmits) a pending deposit and arms its retry loop.
  void send_deposit(const ecash::Hash256& coin_hash);

  ecash::Merchant& merchant_;
  ecash::WitnessService& witness_;
  const Directory& directory_;
  RetryPolicy retry_;

  /// Payments awaiting witness replies, with enough context to re-drive the
  /// witnesses when the client retransmits the transcript.
  struct InFlight {
    NodeId client = 0;
    std::vector<MerchantId> witnesses;  ///< committing witnesses (sign_req targets)
    obs::TraceContext trace;  ///< the payment's causal context
  };
  std::map<ecash::Hash256, InFlight> in_flight_;

  /// Deposit submissions awaiting broker receipts.
  struct PendingDeposit {
    std::vector<std::uint8_t> payload;  ///< encoded SignedTranscript
    Attempts attempts;
    bool exhausted = false;  ///< retries used up; re-armed by flush_deposits
    obs::TraceContext parent;  ///< the originating payment's context
    obs::TraceContext span;    ///< open "deposit" span (invalid = none yet)
  };
  std::map<ecash::Hash256, PendingDeposit> pending_deposits_;
  /// Payment contexts remembered at service time so the (later, batched)
  /// deposit submission continues the same trace.
  std::map<ecash::Hash256, obs::TraceContext> deposit_trace_;
  std::uint64_t restart_generation_ = 0;  ///< invalidates timers on restart
};

/// The client as an actor: asynchronous withdraw/pay with completion
/// callbacks, timeouts, and a resilient RPC discipline — per-attempt
/// timeouts with decorrelated-jitter backoff, idempotent resends of the
/// same bytes, failover along the coin's witness replica set (chord
/// successor order), and a per-peer circuit breaker.
class ClientActor final : public ProtocolActor {
 public:
  ClientActor(transport::Transport& tx, simnet::CostModel cost,
              const group::SchnorrGroup& grp, sig::PublicKey broker_key,
              const ecash::WitnessTable& table, const Directory& directory,
              std::uint64_t seed, const RetryPolicy& retry,
              const PeerHealth::Config& breaker);

  void on_message(const Message& msg) override;

  ecash::Wallet& wallet() { return wallet_; }

  /// Starts a withdrawal; `done` fires with the coin or a refusal.  With
  /// deadline_ms > 0 the two broker RPCs are retried with backoff until the
  /// deadline; the default 0 sends each message exactly once and never
  /// schedules a timer (a silent broker leaves the callback unfired).
  using WithdrawCallback =
      std::function<void(ecash::Outcome<ecash::WalletCoin>)>;
  void withdraw(Cents denomination, WithdrawCallback done,
                SimTime deadline_ms = 0);

  struct PayResult {
    bool accepted = false;
    SimTime elapsed_ms = 0;
    std::optional<ecash::DoubleSpendProof> double_spend_proof;
    std::optional<std::string> error;
    /// The payment's trace id when tracing was on (0 otherwise); the key
    /// into TraceSink::trace_jsonl for this payment's full causal history.
    obs::TraceId trace_id = 0;
  };
  using PayCallback = std::function<void(PayResult)>;
  /// Runs the full payment protocol for `coin` at `merchant`.  Engages the
  /// coin's witnesses in replica (failover) order, retries silent peers and
  /// fails over to the next assigned witness; fails with "timeout" at
  /// timeout_ms, or earlier with a specific diagnostic when no k-subset of
  /// witnesses can still commit.
  void pay(const ecash::WalletCoin& coin, const MerchantId& merchant,
           PayCallback done, SimTime timeout_ms = 60'000);

 private:
  struct PendingWithdrawal {
    std::optional<ecash::Wallet::Withdrawal> state;
    WithdrawCallback done;
    SimTime deadline = 0;  ///< absolute; 0 = retries disabled
    std::uint64_t generation = 0;
    Attempts attempts{.sent = 1};  ///< of last_type, first send included
    /// The exact bytes/type of the last request, for idempotent resends.
    std::string last_type;
    std::vector<std::uint8_t> last_payload;
    obs::TraceContext span;  ///< root "withdraw" span
  };
  /// One witness in the payment's failover plan.
  struct WitnessAttempt {
    MerchantId witness;
    NodeId node = 0;
    Attempts attempts;  ///< commit_req sends (sent == 0: not engaged)
    bool committed = false;
    bool refused = false;
    bool exhausted = false;  ///< max_attempts spent without an answer
  };
  struct PendingPayment {
    ecash::WalletCoin coin;
    MerchantId merchant;
    NodeId merchant_node = 0;
    ecash::Wallet::PaymentIntent intent;
    std::vector<ecash::WitnessCommitment> commitments;
    /// The coin's witnesses in chord failover order (see overlay::failover_order).
    std::vector<WitnessAttempt> plan;
    std::vector<std::uint8_t> commit_payload;      ///< resent verbatim
    std::vector<std::uint8_t> transcript_payload;  ///< non-empty once built
    Attempts transcript;  ///< pay.transcript sends
    SimTime started = 0;
    SimTime deadline = 0;
    std::uint64_t generation = 0;  // guards timeout/retry events
    PayCallback done;
    obs::TraceContext trace_root;  ///< root "payment" span
    /// Currently open phase span (assign_witness -> payment_commit ->
    /// witness_sign); outgoing messages carry this context.
    obs::TraceContext phase;
  };

  void handle_withdraw_offer(const Message& msg);
  void handle_withdraw_response(const Message& msg);
  void handle_commit(const Message& msg);
  void handle_pay_reply(const Message& msg);
  void finish_payment(PendingPayment& p, PayResult result);

  // -- resilient RPC machinery --
  /// Arms the retry loop for the withdrawal's current broker request, held
  /// in withdrawal_sessions_ (by_session) or withdrawal_requests_ at `key`.
  void retry_withdrawal(bool by_session, std::uint64_t key,
                        std::uint64_t generation, std::size_t sent);
  /// The payment of `coin_hash` if it is still the one from `generation`.
  PendingPayment* find_payment(const ecash::Hash256& coin_hash,
                               std::uint64_t generation);
  /// health_.allow(node); a refusal is annotated "breaker.skip" on the
  /// payment's trace.
  bool admit_witness(const PendingPayment& p, NodeId node);
  /// Sends commit_req to plan[index] (first engagement or resend) and arms
  /// its retry loop.
  void send_commit_req(PendingPayment& p, std::size_t index);
  /// Engages the next never-engaged witness in the plan, if any.
  void engage_next_witness(PendingPayment& p);
  /// Fails the payment early when fewer than witness_k commitments remain
  /// reachable; `detail` explains the last straw.
  void check_commit_possibility(PendingPayment& p, const std::string& detail);
  /// Sends (or resends) the transcript and arms its retry loop.
  void send_transcript(PendingPayment& p);

  const group::SchnorrGroup& grp_;
  sig::PublicKey broker_key_;
  const ecash::WitnessTable& table_;
  const Directory& directory_;
  crypto::ChaChaRng rng_;
  ecash::Wallet wallet_;
  RetryPolicy retry_;
  PeerHealth health_;

  std::uint64_t next_request_ = 1;
  /// Withdrawals awaiting the broker's offer, keyed by our request id.
  std::map<std::uint64_t, PendingWithdrawal> withdrawal_requests_;
  /// Withdrawals awaiting the broker's response, keyed by broker session
  /// (a separate map: the two id spaces are unrelated and may collide).
  std::map<std::uint64_t, PendingWithdrawal> withdrawal_sessions_;
  std::map<ecash::Hash256, PendingPayment> payments_;  // by coin hash
  std::uint64_t pay_generation_ = 0;
  std::uint64_t withdraw_generation_ = 0;
};

}  // namespace p2pcash::actors
