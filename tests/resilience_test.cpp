// The resilient RPC layer: retry policy, circuit breaker, idempotent
// re-requests at every role (witness transfer links, broker withdrawals and
// deposits, merchant crash recovery) and the deposit retry loop over the
// network.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "actors/retry.h"
#include "actors/world.h"
#include "ecash_fixture.h"

namespace p2pcash {
namespace {

using actors::ClientActor;
using actors::PeerHealth;
using actors::RetryPolicy;
using actors::SimWorld;
using simnet::NodeId;
using simnet::SimTime;

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicy, FirstBackoffIsExactlyTheBase) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff");
  // prev=0 collapses uniform(base, max(base, 0)) to the base itself.
  EXPECT_DOUBLE_EQ(policy.next_backoff(0, rng), policy.backoff_base_ms);
}

TEST(RetryPolicy, DecorrelatedJitterStaysInBounds) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff2");
  for (int i = 0; i < 200; ++i) {
    const auto b = policy.next_backoff(1'000, rng);
    EXPECT_GE(b, policy.backoff_base_ms);
    EXPECT_LE(b, 3'000.0);
  }
}

TEST(RetryPolicy, BackoffIsCapped) {
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff3");
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(policy.next_backoff(1'000'000, rng), policy.backoff_cap_ms);
  }
}

TEST(RetryPolicy, BackoffStaysFiniteForPathologicalPrev) {
  // Regression: prev_ms must be clamped to the cap BEFORE the 3x multiply.
  // SimTime is a double, so 3 * DBL_MAX (or 3 * inf from a caller feeding
  // accumulated sim time) is non-finite; the sampled backoff must still be
  // a finite value in [base, cap].
  RetryPolicy policy;
  crypto::ChaChaRng rng("backoff4");
  for (const double prev : {std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::infinity(),
                            policy.backoff_cap_ms * 1e12}) {
    for (int i = 0; i < 20; ++i) {
      const auto b = policy.next_backoff(prev, rng);
      ASSERT_TRUE(std::isfinite(b)) << "prev=" << prev;
      ASSERT_GE(b, policy.backoff_base_ms);
      ASSERT_LE(b, policy.backoff_cap_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// PeerHealth (circuit breaker)
// ---------------------------------------------------------------------------

TEST(PeerHealth, StaysClosedUnderThresholdAndSuccessResets) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 3,
                                       .open_ms = 1'000});
  EXPECT_FALSE(health.record_failure(7, 0));
  EXPECT_FALSE(health.record_failure(7, 10));
  EXPECT_TRUE(health.allow(7, 20));
  health.record_success(7);
  // Counter reset: two more failures still do not trip.
  EXPECT_FALSE(health.record_failure(7, 30));
  EXPECT_FALSE(health.record_failure(7, 40));
  EXPECT_TRUE(health.allow(7, 50));
  EXPECT_EQ(health.trips(), 0u);
}

TEST(PeerHealth, TripsAtConsecutiveFailuresAndBlocks) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 3,
                                       .open_ms = 1'000});
  health.record_failure(7, 0);
  health.record_failure(7, 10);
  EXPECT_TRUE(health.record_failure(7, 20));  // the tripping transition
  EXPECT_TRUE(health.is_open(7, 100));
  EXPECT_FALSE(health.allow(7, 100));   // open window
  EXPECT_TRUE(health.allow(8, 100));    // per-peer: others unaffected
  EXPECT_EQ(health.trips(), 1u);
}

TEST(PeerHealth, HalfOpenAdmitsOneProbeThenClosesOnSuccess) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 1,
                                       .open_ms = 1'000});
  EXPECT_TRUE(health.record_failure(7, 0));
  EXPECT_FALSE(health.allow(7, 500));
  EXPECT_TRUE(health.allow(7, 1'500));   // the single half-open probe
  EXPECT_FALSE(health.allow(7, 1'600));  // no second concurrent probe
  health.record_success(7);
  EXPECT_TRUE(health.allow(7, 1'700));
  EXPECT_FALSE(health.is_open(7, 1'700));
}

TEST(PeerHealth, FailedProbeReopensAndCountsASecondTrip) {
  PeerHealth health(PeerHealth::Config{.failure_threshold = 1,
                                       .open_ms = 1'000});
  EXPECT_TRUE(health.record_failure(7, 0));
  EXPECT_TRUE(health.allow(7, 1'200));          // probe admitted
  EXPECT_TRUE(health.record_failure(7, 1'250)); // probe failed: re-trip
  EXPECT_FALSE(health.allow(7, 2'000));         // new open window from 1250
  EXPECT_TRUE(health.allow(7, 2'300));          // 1250 + 1000 elapsed
  EXPECT_EQ(health.trips(), 2u);
}

// ---------------------------------------------------------------------------
// Idempotent re-requests at the protocol layer
// ---------------------------------------------------------------------------

class ResilienceEcashTest : public ecash::testing::EcashTest {};

TEST_F(ResilienceEcashTest, MerchantDropPendingAllowsCleanClientRetry) {
  using namespace ecash;
  auto coin = withdraw();
  auto merchant_id = non_witness_merchant(coin);
  Merchant& merchant = *dep_.node(merchant_id).merchant;

  auto intent = wallet_->prepare_payment(coin, merchant_id);
  std::vector<WitnessCommitment> commitments;
  for (const auto& entry : coin.coin.witnesses) {
    auto c = dep_.node(entry.merchant)
                 .witness->request_commitment(intent.coin_hash, intent.nonce,
                                              2'000);
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    commitments.push_back(std::move(c).value());
  }
  auto transcript = wallet_->build_transcript(coin, intent, commitments, 2'000);
  ASSERT_TRUE(transcript.ok());

  ASSERT_TRUE(
      merchant.receive_payment(transcript.value(), commitments, 2'000).ok());
  EXPECT_NE(merchant.pending(intent.coin_hash), nullptr);

  // Crash recovery drops the half-done payment but keeps everything else.
  EXPECT_EQ(merchant.drop_pending(), 1u);
  EXPECT_EQ(merchant.pending(intent.coin_hash), nullptr);
  EXPECT_EQ(merchant.drop_pending(), 0u);
  EXPECT_EQ(merchant.deposit_queue_size(), 0u);
  EXPECT_EQ(merchant.services_delivered(), 0u);
  EXPECT_FALSE(merchant.already_serviced(intent.coin_hash));

  // The client retries the identical transcript from scratch and the
  // payment completes: the witness re-validates and endorses.
  ASSERT_TRUE(
      merchant.receive_payment(transcript.value(), commitments, 2'100).ok());
  for (const auto& entry : coin.coin.witnesses) {
    auto signed_result = dep_.node(entry.merchant)
                             .witness->sign_transcript(transcript.value(),
                                                       2'100);
    ASSERT_TRUE(signed_result.ok()) << signed_result.refusal().detail;
    auto* endorsement =
        std::get_if<WitnessEndorsement>(&signed_result.value());
    ASSERT_NE(endorsement, nullptr);
    auto done = merchant.add_endorsement(intent.coin_hash, *endorsement);
    ASSERT_TRUE(done.ok()) << done.refusal().detail;
  }
  EXPECT_EQ(merchant.services_delivered(), 1u);
  EXPECT_TRUE(merchant.already_serviced(intent.coin_hash));
}

TEST_F(ResilienceEcashTest, WitnessReissuesTransferLinkUnderRetryStorm) {
  using namespace ecash;
  auto coin = withdraw();
  WitnessService& witness =
      *dep_.node(coin.coin.witnesses[0].merchant).witness;
  auto bob = dep_.make_wallet();

  auto intent = bob->prepare_receive();
  auto response =
      wallet_->respond_transfer(coin, intent.comm.a, intent.comm.b, 2'000);
  auto first = witness.sign_transfer(coin.coin, intent.comm.a, intent.comm.b,
                                     response, 2'000, 2'000);
  ASSERT_TRUE(first.ok()) << first.refusal().detail;
  auto* link = std::get_if<TransferLink>(&first.value());
  ASSERT_NE(link, nullptr);

  // A retry storm replays the identical request: every reply must be the
  // recorded link, byte for byte, and none may be misread as a double
  // transfer (the witness.cpp identical-re-request path).
  for (int i = 0; i < 10; ++i) {
    auto again = witness.sign_transfer(coin.coin, intent.comm.a,
                                       intent.comm.b, response, 2'000,
                                       2'000 + i);
    ASSERT_TRUE(again.ok()) << again.refusal().detail;
    auto* relink = std::get_if<TransferLink>(&again.value());
    ASSERT_NE(relink, nullptr);
    EXPECT_EQ(*relink, *link);
  }
  EXPECT_FALSE(witness.has_double_spend_record(coin.coin.bare.coin_hash()));
  EXPECT_TRUE(witness.stale_owner_evidence().empty());

  // The re-issued link is still spendable by the recipient.
  auto received = bob->accept_transfer(coin.coin, *link, intent);
  ASSERT_TRUE(received.ok()) << received.refusal().detail;
}

// ---------------------------------------------------------------------------
// Resilient RPC over the simulated network
// ---------------------------------------------------------------------------

SimWorld::Options net_options() {
  SimWorld::Options opt;
  opt.merchants = 6;
  opt.seed = 99;
  opt.cost = simnet::free_cost();
  return opt;
}

TEST(Resilience, WithdrawRetriesThroughLossyBrokerLink) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  // Everything the broker says is lost for the first 3 seconds; the client
  // must re-drive the withdrawal with the same request bytes.
  world.faults().schedule_link_fault(world.directory().broker, client.id(),
                                     simnet::LinkFault{.drop = 1.0},
                                     /*at=*/0, /*clear_at=*/3'000);
  int callbacks = 0;
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100,
                  [&](ecash::Outcome<ecash::WalletCoin> c) {
                    ++callbacks;
                    ASSERT_TRUE(c.ok()) << c.refusal().detail;
                    coin = std::move(c).value();
                  },
                  /*deadline_ms=*/30'000);
  world.sim().run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(coin.has_value());
  EXPECT_EQ(coin->coin.bare.info.denomination, 100u);
  EXPECT_GE(client.resilience().retries, 1u);
  EXPECT_EQ(world.broker().coins_issued(), 1u);
}

TEST(Resilience, DuplicatedBrokerRepliesAreSuppressed) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  world.net().set_link_fault(world.directory().broker, client.id(),
                             simnet::LinkFault{.duplicate = 1.0});
  int callbacks = 0;
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
    ++callbacks;
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    coin = std::move(c).value();
  });
  world.sim().run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(coin.has_value());
  // Both the duplicated offer and the duplicated response were ignored.
  EXPECT_EQ(client.resilience().late_replies_ignored, 2u);
  EXPECT_EQ(world.broker().coins_issued(), 1u);
}

// ---------------------------------------------------------------------------
// Where each retry loop ends when its peer stays silent
// ---------------------------------------------------------------------------

ecash::WalletCoin withdraw_coin(SimWorld& world, ClientActor& client) {
  std::optional<ecash::WalletCoin> coin;
  client.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
    ASSERT_TRUE(c.ok()) << c.refusal().detail;
    coin = std::move(c).value();
  });
  world.sim().run();
  EXPECT_TRUE(coin.has_value());
  return std::move(*coin);
}

ecash::MerchantId non_witness_merchant(SimWorld& world,
                                       const ecash::WalletCoin& coin) {
  for (const auto& id : world.merchant_ids()) {
    bool is_witness = false;
    for (const auto& w : coin.coin.witnesses)
      if (w.merchant == id) is_witness = true;
    if (!is_witness) return id;
  }
  ADD_FAILURE() << "every merchant witnesses the coin";
  return {};
}

TEST(RetryLoopEnds, SilentMerchantFailsAfterTheTranscriptBudget) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  auto coin = withdraw_coin(world, client);
  const auto target = non_witness_merchant(world, coin);
  // The commit phase talks only to the witness; the merchant is silent
  // from the transcript on.
  world.set_merchant_down(target, true);
  const auto sent_before = world.net().messages_sent(client.id());
  std::optional<ClientActor::PayResult> result;
  client.pay(coin, target,
             [&](ClientActor::PayResult r) { result = std::move(r); });
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->error.value_or(""), "merchant unreachable");
  const std::size_t max_attempts = RetryPolicy{}.max_attempts;
  // One commit_req, then exactly max_attempts transcript sends.
  EXPECT_EQ(world.net().messages_sent(client.id()) - sent_before,
            1 + max_attempts);
  EXPECT_EQ(client.resilience().retries, max_attempts - 1);
  EXPECT_EQ(client.resilience().timeouts, 0u);  // not the payment deadline
}

TEST(RetryLoopEnds, OnlyWitnessDownFailsBeforeTheDeadline) {
  auto& grp = group::SchnorrGroup::test_256();
  auto opt = net_options();
  opt.broker.witness_n = 1;
  opt.broker.witness_k = 1;
  opt.trace = true;
  SimWorld world(grp, opt);
  auto& client = world.add_client();
  auto coin = withdraw_coin(world, client);
  ASSERT_EQ(coin.coin.witnesses.size(), 1u);
  world.set_merchant_down(coin.coin.witnesses[0].merchant, true);
  const SimTime timeout_ms = 60'000;
  std::optional<ClientActor::PayResult> result;
  client.pay(coin, non_witness_merchant(world, coin),
             [&](ClientActor::PayResult r) { result = std::move(r); },
             timeout_ms);
  world.sim().run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_EQ(result->error.value_or(""), "witness unreachable");
  EXPECT_LT(result->elapsed_ms, timeout_ms);
  EXPECT_EQ(client.resilience().timeouts, 0u);
  const std::string trace = world.trace_sink().trace_jsonl(result->trace_id);
  EXPECT_NE(trace.find("\"name\":\"rpc.exhausted\""), std::string::npos)
      << trace;
}

TEST(RetryLoopEnds, WitnessSkippedForAnOpenBreakerIsOnThePaymentTrace) {
  auto& grp = group::SchnorrGroup::test_256();
  auto opt = net_options();
  opt.trace = true;
  SimWorld world(grp, opt);
  auto& client = world.add_client();
  auto coin = withdraw_coin(world, client);
  ASSERT_EQ(coin.coin.witnesses.size(), 1u);
  world.set_merchant_down(coin.coin.witnesses[0].merchant, true);
  const auto target = non_witness_merchant(world, coin);
  // The first payment's silent attempts trip the witness's breaker; a
  // second payment started while it is open sends nothing and idles to
  // its deadline, and its own trace says why.
  std::uint64_t sent_before_second = 0;
  std::optional<ClientActor::PayResult> second;
  client.pay(coin, target, [&](ClientActor::PayResult first) {
    EXPECT_EQ(first.error.value_or(""), "witness unreachable");
    EXPECT_EQ(client.resilience().breaker_trips, 1u);
    sent_before_second = world.net().messages_sent(client.id());
    client.pay(coin, target,
               [&](ClientActor::PayResult r) { second = std::move(r); },
               /*timeout_ms=*/1'000);
  });
  world.sim().run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->error.value_or(""), "timeout");
  EXPECT_EQ(world.net().messages_sent(client.id()), sent_before_second);
  const std::string trace = world.trace_sink().trace_jsonl(second->trace_id);
  EXPECT_NE(trace.find("\"name\":\"breaker.skip\""), std::string::npos)
      << trace;
}

TEST(RetryLoopEnds, BrokerBreakerDefersWithdrawResendsUntilItHeals) {
  auto& grp = group::SchnorrGroup::test_256();
  SimWorld world(grp, net_options());
  auto& client = world.add_client();
  const NodeId broker = world.directory().broker;
  const RetryPolicy policy;
  const PeerHealth::Config breaker;
  // Three silent attempts trip the breaker: 3 timeouts plus two backoffs,
  // the first exactly the base and the second at most 3x it.
  const SimTime trip_by = 3 * policy.attempt_timeout_ms +
                          4 * policy.backoff_base_ms;
  const SimTime trip_after = 3 * policy.attempt_timeout_ms +
                             2 * policy.backoff_base_ms;
  world.net().set_down(broker, true);
  world.sim().schedule(trip_by + 1'000,
                       [&] { world.net().set_down(broker, false); });
  // The link is healed, but the breaker is still open: nothing was sent
  // after the three silent attempts.
  std::uint64_t sent_while_open = 0;
  world.sim().schedule(trip_after + breaker.open_ms - 1, [&] {
    sent_while_open = world.net().messages_sent(client.id());
  });
  std::optional<ecash::Outcome<ecash::WalletCoin>> coin;
  SimTime done_at = 0;
  client.withdraw(
      100,
      [&](ecash::Outcome<ecash::WalletCoin> c) {
        coin = std::move(c);
        done_at = world.sim().now();
      },
      /*deadline_ms=*/60'000);
  world.sim().run();
  ASSERT_TRUE(coin.has_value());
  ASSERT_TRUE(coin->ok()) << coin->refusal().detail;
  EXPECT_EQ(client.resilience().breaker_trips, 1u);
  EXPECT_EQ(sent_while_open, 3u);
  EXPECT_GE(done_at, trip_after + breaker.open_ms);
  EXPECT_EQ(client.resilience().retries, policy.max_attempts - 1);
  EXPECT_EQ(world.broker().coins_issued(), 1u);
}

class DepositRetryTest : public ::testing::Test {
 protected:
  DepositRetryTest()
      : world_(group::SchnorrGroup::test_256(), net_options()),
        client_(world_.add_client()) {}

  /// Withdraws and completes one payment at a non-witness merchant so its
  /// deposit queue holds exactly one endorsed transcript.
  ecash::MerchantId complete_one_payment() {
    std::optional<ecash::WalletCoin> coin;
    client_.withdraw(100, [&](ecash::Outcome<ecash::WalletCoin> c) {
      EXPECT_TRUE(c.ok());
      coin = std::move(c).value();
    });
    world_.sim().run();
    EXPECT_TRUE(coin.has_value());
    auto witness_id = coin->coin.witnesses[0].merchant;
    ecash::MerchantId target;
    for (const auto& id : world_.merchant_ids()) {
      if (id != witness_id) {
        target = id;
        break;
      }
    }
    std::optional<ClientActor::PayResult> result;
    client_.pay(*coin, target,
                [&](ClientActor::PayResult r) { result = std::move(r); });
    world_.sim().run();
    EXPECT_TRUE(result && result->accepted);
    EXPECT_EQ(world_.merchant(target).deposit_queue_size(), 1u);
    return target;
  }

  SimWorld world_;
  ClientActor& client_;
};

TEST_F(DepositRetryTest, LostReceiptsRetryUntilAlreadyDepositedAck) {
  auto target = complete_one_payment();
  auto& actor = world_.merchant_actor(target);
  // Every broker -> merchant receipt is lost for 5 s after the flush: the
  // first submit lands (the broker credits it) but the merchant cannot know
  // and must retry; the broker's kAlreadyDeposited then acts as the ack.
  world_.net().set_link_fault(world_.directory().broker,
                              world_.merchant_node(target),
                              simnet::LinkFault{.drop = 1.0});
  world_.sim().schedule(5'000, [&] {
    world_.net().clear_link_fault(world_.directory().broker,
                                  world_.merchant_node(target));
  });
  actor.flush_deposits();
  EXPECT_EQ(actor.deposits_outstanding(), 1u);
  world_.sim().run();
  EXPECT_EQ(actor.deposits_outstanding(), 0u);
  EXPECT_EQ(world_.broker().coins_deposited(), 1u);  // credited exactly once
  EXPECT_GE(actor.resilience().retries, 2u);
  EXPECT_GE(actor.resilience().duplicates_suppressed, 1u);
}

TEST_F(DepositRetryTest, BrokerOutageExhaustsThenLaterFlushSucceeds) {
  auto target = complete_one_payment();
  auto& actor = world_.merchant_actor(target);
  world_.net().set_down(world_.directory().broker, true);
  actor.flush_deposits();
  world_.sim().run();
  // Retries exhausted, the transcript is retained for a later flush.
  EXPECT_EQ(actor.deposits_outstanding(), 1u);
  EXPECT_GE(actor.resilience().timeouts, 1u);
  EXPECT_EQ(world_.broker().coins_deposited(), 0u);

  world_.net().set_down(world_.directory().broker, false);
  actor.flush_deposits();
  world_.sim().run();
  EXPECT_EQ(actor.deposits_outstanding(), 0u);
  EXPECT_EQ(world_.broker().coins_deposited(), 1u);
}

}  // namespace
}  // namespace p2pcash
