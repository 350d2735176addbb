// A payment's independent checks (src/ecash/checks.h) overlapped on the
// worker pool must behave exactly like the same checks run inline, in
// order: the same refusal (the first failing check in list order), the same
// crypto op counts, and no lost liveness when the pool is small or busy.
// Labeled "transport" so the TSan lane runs the overlapped runner under
// the race detector.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actors/runtime.h"
#include "crypto/chacha.h"
#include "ecash_fixture.h"
#include "metrics/counters.h"
#include "simnet/models.h"
#include "simnet/net.h"
#include "simnet/sim.h"
#include "transport/simnet_transport.h"
#include "transport/tcp_net.h"
#include "verify/worker_pool.h"

namespace p2pcash::ecash::testing {
namespace {

using namespace std::chrono_literals;

Broker::Config three_of_five() {
  Broker::Config config;
  config.witness_n = 5;
  config.witness_k = 3;
  return config;
}

/// One payment as it reaches the storefront (step 3), ready to mutate.
struct Payment {
  PaymentTranscript transcript;
  std::vector<WitnessCommitment> commitments;
  MerchantId merchant;
  Timestamp now = 0;
};

/// A three-of-five deployment plus a pool-backed runner for the checks.
class ParallelChecksTest : public EcashTest {
 protected:
  static constexpr Timestamp kPayTime = 2000;

  ParallelChecksTest() : EcashTest(three_of_five()) {}

  /// Withdraws a coin and runs steps 1-2 at a non-witness merchant.
  Payment make_payment(Deployment& dep, Wallet& wallet) {
    auto withdrawn = dep.withdraw(wallet, 100, 1000);
    EXPECT_TRUE(withdrawn.ok());
    const WalletCoin coin = std::move(withdrawn).value();
    Payment p;
    p.merchant = non_witness_merchant(coin);
    p.now = kPayTime;
    auto intent = wallet.prepare_payment(coin, p.merchant);
    for (const auto& entry : coin.coin.witnesses) {
      if (p.commitments.size() >= coin.coin.bare.info.witness_k) break;
      if (std::any_of(p.commitments.begin(), p.commitments.end(),
                      [&](const WitnessCommitment& c) {
                        return c.witness == entry.merchant;
                      }))
        continue;
      auto c = dep.node(entry.merchant)
                   .witness->request_commitment(intent.coin_hash,
                                                intent.nonce, kPayTime);
      EXPECT_TRUE(c.ok());
      p.commitments.push_back(std::move(c).value());
    }
    auto transcript =
        wallet.build_transcript(coin, intent, p.commitments, kPayTime);
    EXPECT_TRUE(transcript.ok());
    p.transcript = std::move(transcript).value();
    return p;
  }
  Payment make_payment() { return make_payment(dep_, *wallet_); }

  Outcome<std::monostate> receive(const Payment& p,
                                  const CheckRunner& runner) {
    return dep_.node(p.merchant)
        .merchant->receive_payment(p.transcript, p.commitments, p.now, runner);
  }
  /// The first committing witness countersigns (or refuses).
  Outcome<SignResult> sign(const Payment& p, const CheckRunner& runner) {
    return dep_.node(p.commitments.front().witness)
        .witness->sign_transcript(p.transcript, p.now, runner);
  }

  verify::WorkerPool pool_{3};
  const CheckRunner pooled_ =
      [this](std::span<const std::function<bool()>> checks) {
        return pool_.run_checks(checks);
      };
  const CheckRunner inline_{};
};

void flip(bn::BigInt& x) { x = x + bn::BigInt(1); }

/// The index of the coin's entry for `merchant`.
std::size_t entry_of(const Coin& coin, const MerchantId& merchant) {
  for (std::size_t i = 0; i < coin.witnesses.size(); ++i)
    if (coin.witnesses[i].merchant == merchant) return i;
  ADD_FAILURE() << merchant << " holds no entry";
  return 0;
}

struct Fault {
  std::string name;
  std::function<void(Payment&)> apply;
  RefusalReason merchant_reason;
  /// Whether the witness's own checks catch it (commitment faults are the
  /// storefront's to find).
  bool witness_checks = true;
};

std::vector<Fault> single_faults() {
  return {
      {"bad blind signature",
       [](Payment& p) { flip(p.transcript.coin.bare.sig.rho); },
       RefusalReason::kInvalidCoin},
      {"bad entry signature",
       [](Payment& p) {
         Coin& coin = p.transcript.coin;
         flip(coin.witnesses[entry_of(coin, p.commitments.front().witness)]
                  .broker_sig.s);
       },
       RefusalReason::kBadSignature},
      {"bad probe sequence",
       [](Payment& p) {
         auto& entries = p.transcript.coin.witnesses;
         auto other = std::find_if(entries.begin() + 1, entries.end(),
                                   [&](const SignedWitnessEntry& e) {
                                     return e.merchant != entries[0].merchant;
                                   });
         ASSERT_NE(other, entries.end());
         std::swap(entries[0], *other);
       },
       RefusalReason::kWrongWitness},
      {"bad NIZK", [](Payment& p) { flip(p.transcript.resp.r1); },
       RefusalReason::kBadProof},
      {"bad commitment signature",
       [](Payment& p) { flip(p.commitments.back().witness_sig.s); },
       RefusalReason::kBadSignature, /*witness_checks=*/false},
      {"wrong nonce", [](Payment& p) { p.commitments.back().nonce[0] ^= 1; },
       RefusalReason::kBadNonce, /*witness_checks=*/false},
      {"expired coin",
       [](Payment& p) { p.now = p.transcript.coin.bare.info.soft_expiry; },
       RefusalReason::kExpired},
  };
}

TEST_F(ParallelChecksTest, EachSingleFaultGetsTheSameRefusalOnBothRunners) {
  const Payment valid = make_payment();
  for (const Fault& fault : single_faults()) {
    SCOPED_TRACE(fault.name);
    Payment p = valid;
    fault.apply(p);

    auto in_order = receive(p, inline_);
    auto overlapped = receive(p, pooled_);
    ASSERT_FALSE(in_order.ok());
    ASSERT_FALSE(overlapped.ok());
    EXPECT_EQ(in_order.refusal().reason, fault.merchant_reason)
        << in_order.refusal().detail;
    EXPECT_EQ(overlapped.refusal().reason, in_order.refusal().reason);
    EXPECT_EQ(overlapped.refusal().detail, in_order.refusal().detail);

    if (!fault.witness_checks) continue;
    auto signed_in_order = sign(p, inline_);
    auto signed_overlapped = sign(p, pooled_);
    ASSERT_FALSE(signed_in_order.ok());
    ASSERT_FALSE(signed_overlapped.ok());
    EXPECT_EQ(signed_overlapped.refusal().reason,
              signed_in_order.refusal().reason);
    EXPECT_EQ(signed_overlapped.refusal().detail,
              signed_in_order.refusal().detail);
  }
  // The untouched payment passes both sides on the overlapped runner.
  EXPECT_TRUE(receive(valid, pooled_).ok());
  EXPECT_TRUE(sign(valid, pooled_).ok());
}

TEST_F(ParallelChecksTest, TwoFaultsGetTheEarlierCheckInListOrder) {
  Payment p = make_payment();
  // The NIZK check precedes every commitment check; the blind signature
  // check precedes the NIZK.
  flip(p.commitments.back().witness_sig.s);
  flip(p.transcript.resp.r1);
  Payment both_coin_and_proof = p;
  flip(both_coin_and_proof.transcript.coin.bare.sig.omega);
  // Repeated, so the pool's helpers get every chance to finish a later
  // failing check before the earlier one.
  for (int round = 0; round < 16; ++round) {
    auto refused = receive(p, pooled_);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.refusal().detail, "NIZK response invalid");
    auto earliest = receive(both_coin_and_proof, pooled_);
    ASSERT_FALSE(earliest.ok());
    EXPECT_EQ(earliest.refusal().detail, "broker blind signature invalid");
  }
}

TEST_F(ParallelChecksTest, OpCountsMatchBetweenTcpNetAndTheSimulator) {
  // Two identical deployments (same seed) so both runs see the same coin
  // and the same commitments; one payment's storefront and witness
  // handlers run on each transport's runner.
  Deployment twin(group::SchnorrGroup::test_256(), kMerchants, 1234,
                  three_of_five());
  auto twin_wallet = twin.make_wallet();
  const Payment on_sim = make_payment();
  const Payment on_tcp = make_payment(twin, *twin_wallet);
  ASSERT_EQ(on_sim.transcript, on_tcp.transcript);

  auto run_payment = [](Deployment& dep, const Payment& p,
                        const CheckRunner& runner) {
    metrics::OpCounters ops;
    metrics::ScopedOpCounting counting(ops);
    EXPECT_TRUE(dep.node(p.merchant)
                    .merchant->receive_payment(p.transcript, p.commitments,
                                               p.now, runner)
                    .ok());
    for (const WitnessCommitment& c : p.commitments)
      EXPECT_TRUE(
          dep.node(c.witness).witness->sign_transcript(p.transcript, p.now,
                                                       runner).ok());
    return ops;
  };

  simnet::Simulator sim;
  crypto::ChaChaRng sim_rng(7);
  simnet::Network sim_net(sim, std::make_unique<simnet::ConstantLatency>(1),
                          sim_rng);
  transport::SimnetTransport sim_tx(sim_net);
  const metrics::OpCounters sim_ops = run_payment(
      dep_, on_sim, [&sim_tx](std::span<const std::function<bool()>> c) {
        return sim_tx.run_checks(c);
      });

  // On TcpNet the handlers run on a strand, as the actors' do, so the
  // caller-runs join takes part from a pool worker.
  struct Idle : simnet::Node {
    void on_message(const simnet::Message&) override {}
  } node;
  transport::TcpNet::Options options;
  options.worker_threads = 3;
  transport::TcpNet net(options);
  const simnet::NodeId id = net.attach(node);
  net.start();
  std::promise<metrics::OpCounters> tcp_ops;
  net.post(id, [&] {
    tcp_ops.set_value(run_payment(
        twin, on_tcp, [&net](std::span<const std::function<bool()>> c) {
          return net.run_checks(c);
        }));
  });
  const metrics::OpCounters tcp = tcp_ops.get_future().get();
  net.stop();

  EXPECT_GT(sim_ops.exp, 0u);
  EXPECT_EQ(tcp.exp, sim_ops.exp);
  EXPECT_EQ(tcp.hash, sim_ops.hash);
  EXPECT_EQ(tcp.sig, sim_ops.sig);
  EXPECT_EQ(tcp.ver, sim_ops.ver);
}

TEST(CheckRunner, TheEarlierFailureWinsEvenWhenItFinishesLast) {
  // Check 0 fails only after check 1 has failed, so two threads (the
  // caller and one helper) finish them in the opposite of list order.
  verify::WorkerPool pool(2);
  std::atomic<bool> later_failed{false};
  std::vector<std::function<bool()>> checks = {
      [&later_failed] {
        const auto give_up = std::chrono::steady_clock::now() + 10s;
        while (!later_failed.load() &&
               std::chrono::steady_clock::now() < give_up)
          std::this_thread::sleep_for(1ms);
        return false;
      },
      [&later_failed] {
        later_failed.store(true);
        return false;
      },
  };
  EXPECT_EQ(pool.run_checks(checks), 0u);
  EXPECT_TRUE(later_failed.load());
}

TEST(CheckRunner, BusyPoolLeavesTheCallerRunningEveryCheck) {
  // Both workers are occupied (one by the caller itself), so no helper can
  // claim a check: the caller must run them all rather than wait.
  verify::WorkerPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  std::promise<std::size_t> result;
  std::atomic<int> ran{0};
  pool.submit([&] {
    std::vector<std::function<bool()>> checks(
        8, [&ran] { return ++ran, true; });
    result.set_value(pool.run_checks(checks));
  });
  auto future = result.get_future();
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(), 8u);
  EXPECT_EQ(ran.load(), 8);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.drain();
}

/// 64 payments in flight at once over real TCP: 8 clients x 8 coins,
/// spread over 8 merchants, each coin needing 3 of its 5 witnesses.
void RunConcurrentPayments(std::size_t worker_threads) {
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kCoinsPerClient = 8;
  constexpr simnet::SimTime kDeadlineMs = 30'000;
  // Declared before the runtime so they outlive its strands.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::optional<actors::ClientActor::PayResult>> results(
      kClients * kCoinsPerClient);
  std::size_t done = 0;
  actors::NodeRuntime::Options opt;
  opt.merchants = 8;
  opt.worker_threads = worker_threads;
  opt.seed = 29;
  opt.broker = three_of_five();
  actors::NodeRuntime runtime(group::SchnorrGroup::test_256(), opt);
  std::vector<actors::ClientActor*> clients;
  for (std::size_t i = 0; i < kClients; ++i)
    clients.push_back(&runtime.add_client());
  runtime.start();

  std::vector<std::pair<actors::ClientActor*, WalletCoin>> coins;
  for (actors::ClientActor* client : clients) {
    for (std::size_t j = 0; j < kCoinsPerClient; ++j) {
      auto coin = runtime.withdraw(*client, 100);
      ASSERT_TRUE(coin.ok()) << coin.refusal().detail;
      coins.emplace_back(client, std::move(coin).value());
    }
  }

  const auto merchants = runtime.merchant_ids();
  for (std::size_t i = 0; i < coins.size(); ++i) {
    actors::ClientActor* client = coins[i].first;
    runtime.net().post(client->id(), [&, i, client] {
      client->pay(
          coins[i].second, merchants[i % merchants.size()],
          [&, i](actors::ClientActor::PayResult r) {
            std::lock_guard<std::mutex> lock(mu);
            results[i] = std::move(r);
            ++done;
            cv.notify_all();
          },
          kDeadlineMs);
    });
  }
  {
    // The actors fail a payment at its deadline, so waiting a little past
    // it can only time out if a handler is stuck.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::milliseconds(static_cast<int>(kDeadlineMs)) + 10s,
                            [&] { return done == coins.size(); }))
        << done << " of " << coins.size() << " payments finished";
  }
  runtime.stop();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i]->accepted)
        << "payment " << i << ": " << results[i]->error.value_or("");
    EXPECT_LT(results[i]->elapsed_ms, kDeadlineMs);
  }
}

TEST(ParallelChecksOverTcp, SixtyFourConcurrentPaymentsOnOneWorker) {
  RunConcurrentPayments(1);
}

TEST(ParallelChecksOverTcp, SixtyFourConcurrentPaymentsOnTwoWorkers) {
  RunConcurrentPayments(2);
}

}  // namespace
}  // namespace p2pcash::ecash::testing
