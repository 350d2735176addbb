// Concurrency stress: thread-local metrics isolation, concurrent broker
// withdrawals/deposits, and racing spends against one witness.  Run under
// -DP2PCASH_SANITIZE=thread this is the TSan proof that the broker's and
// witness's internal locking makes their check-then-record sequences atomic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "crypto/chacha.h"
#include "ecash/deployment.h"
#include "group/schnorr_group.h"
#include "metrics/counters.h"

namespace p2pcash::ecash {
namespace {

using bn::BigInt;

TEST(MetricsConcurrencyTest, ThreadLocalCountersAreIsolated) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 10'000;
  std::vector<metrics::OpCounters> counters(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters, t] {
      metrics::ScopedOpCounting scope(counters[static_cast<std::size_t>(t)]);
      for (std::uint64_t i = 0; i < kIters; ++i) {
        metrics::count_exp();
        metrics::count_hash(2);
        if (i % 2 == 0) {
          // Suspension nests and must only affect this thread.
          metrics::ScopedSuspendOpCounting suspend;
          metrics::count_sig();
        } else {
          metrics::count_sig();
        }
        metrics::count_ver();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& c : counters) {
    EXPECT_EQ(c.exp, kIters);
    EXPECT_EQ(c.hash, 2 * kIters);
    EXPECT_EQ(c.sig, kIters / 2);  // the suspended half was not counted
    EXPECT_EQ(c.ver, kIters);
  }
}

/// A Deployment over the fast test group, built single-threaded; the
/// threads in each test hammer its shared broker/witness objects.
class EcashConcurrencyTest : public ::testing::Test {
 protected:
  static constexpr int kMerchants = 4;
  static constexpr Timestamp kNow = 1000;

  EcashConcurrencyTest()
      : dep_(group::SchnorrGroup::test_256(), kMerchants, /*seed=*/2024),
        broker_(dep_.broker()) {}

  /// A wallet on a caller-owned (thread-private) RNG stream.
  std::unique_ptr<Wallet> make_wallet(bn::Rng& rng) {
    return std::make_unique<Wallet>(dep_.grp(), broker_.coin_key(),
                                    broker_.identity_key(), rng);
  }

  /// Full withdrawal against the shared broker (safe to call from any
  /// thread as long as `wallet`/`rng` are thread-private).
  Outcome<WalletCoin> withdraw(Wallet& wallet, Cents denomination) {
    auto offer = broker_.start_withdrawal(denomination, kNow);
    if (!offer) return offer.refusal();
    auto wd = wallet.begin_withdrawal(offer.value());
    auto resp = broker_.finish_withdrawal(wd.session, wd.e);
    if (!resp) return resp.refusal();
    return wallet.complete_withdrawal(wd, resp.value(),
                                      broker_.current_table());
  }

  WitnessService& witness_for(const WalletCoin& coin) {
    return *dep_.node(coin.coin.witnesses.at(0).merchant).witness;
  }

  Deployment dep_;
  Broker& broker_;
};

TEST_F(EcashConcurrencyTest, ConcurrentWithdrawalsAllComplete) {
  constexpr int kThreads = 4;
  constexpr int kCoinsPerThread = 3;
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &completed, &failed] {
      crypto::ChaChaRng rng("withdrawer/" + std::to_string(t));
      auto wallet = make_wallet(rng);
      for (int i = 0; i < kCoinsPerThread; ++i) {
        auto coin = withdraw(*wallet, 100);
        if (coin.ok())
          completed.fetch_add(1, std::memory_order_relaxed);
        else
          failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kCoinsPerThread);
  EXPECT_EQ(broker_.coins_issued(),
            static_cast<std::uint64_t>(kThreads * kCoinsPerThread));
  EXPECT_EQ(broker_.fiat_collected(), 100 * kThreads * kCoinsPerThread);
}

TEST_F(EcashConcurrencyTest, ConcurrentPaymentsAndDepositsClear) {
  constexpr int kThreads = 4;
  std::atomic<int> deposited{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &deposited, &failed] {
      crypto::ChaChaRng rng("payer/" + std::to_string(t));
      auto wallet = make_wallet(rng);
      // Every thread pays merchant number t, who then deposits — all four
      // stages (withdraw, commit, sign, deposit) run concurrently against
      // the shared broker and witness services.
      const MerchantId payee =
          merchant_name(static_cast<std::size_t>(t % kMerchants));
      auto coin = withdraw(*wallet, 100);
      if (!coin.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto intent = wallet->prepare_payment(coin.value(), payee);
      auto& witness = witness_for(coin.value());
      auto commitment =
          witness.request_commitment(intent.coin_hash, intent.nonce, kNow);
      if (!commitment.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto transcript = wallet->build_transcript(
          coin.value(), intent, {commitment.value()}, kNow + 1);
      if (!transcript.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto signed_result = witness.sign_transcript(transcript.value(), kNow + 1);
      if (!signed_result.ok() ||
          !std::holds_alternative<WitnessEndorsement>(signed_result.value())) {
        failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      SignedTranscript st{
          transcript.value(),
          {std::get<WitnessEndorsement>(signed_result.value())}};
      auto receipt = broker_.deposit(payee, st, kNow + 2);
      if (receipt.ok())
        deposited.fetch_add(1, std::memory_order_relaxed);
      else
        failed.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(deposited.load(), kThreads);
  EXPECT_EQ(broker_.coins_deposited(), static_cast<std::uint64_t>(kThreads));
}

TEST_F(EcashConcurrencyTest, RacingSpendsYieldOneEndorsementOneProof) {
  // Withdraw one coin, then race two spenders at different merchants
  // against the same witness.  The witness's one-live-commitment rule
  // makes the loser retry until the winner's spend consumes the
  // commitment; its own spend must then come back as a DoubleSpendProof.
  crypto::ChaChaRng rng("race/setup");
  auto wallet = make_wallet(rng);
  auto coin = withdraw(*wallet, 100);
  ASSERT_TRUE(coin.ok());
  auto& witness = witness_for(coin.value());

  std::atomic<int> endorsements{0};
  std::atomic<int> proofs{0};
  std::atomic<int> errors{0};
  auto spend_at = [&](const MerchantId& payee, Timestamp when) {
    crypto::ChaChaRng thread_rng("race/" + payee);
    auto thread_wallet = make_wallet(thread_rng);
    auto intent = thread_wallet->prepare_payment(coin.value(), payee);
    Outcome<WitnessCommitment> commitment =
        Refusal{RefusalReason::kInternal, "never requested"};
    for (int attempt = 0; attempt < 100'000; ++attempt) {
      commitment =
          witness.request_commitment(intent.coin_hash, intent.nonce, when);
      if (commitment.ok()) break;
      if (commitment.refusal().reason != RefusalReason::kCommitmentOutstanding) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
    if (!commitment.ok()) {  // the other spender never released it
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto transcript = thread_wallet->build_transcript(
        coin.value(), intent, {commitment.value()}, when);
    if (!transcript.ok()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto result = witness.sign_transcript(transcript.value(), when);
    if (!result.ok()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (std::holds_alternative<WitnessEndorsement>(result.value()))
      endorsements.fetch_add(1, std::memory_order_relaxed);
    else
      proofs.fetch_add(1, std::memory_order_relaxed);
  };
  // Distinct merchants and times give the two spends distinct challenges,
  // so the second one is a provable double spend, not an idempotent retry.
  std::thread first(spend_at, merchant_name(0), kNow + 10);
  std::thread second(spend_at, merchant_name(1), kNow + 20);
  first.join();
  second.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(endorsements.load(), 1);
  EXPECT_EQ(proofs.load(), 1);
  EXPECT_TRUE(
      witness.has_double_spend_record(coin.value().coin.bare.coin_hash()));
}

TEST_F(EcashConcurrencyTest, TableReferencesSurviveConcurrentPublication) {
  // current_table() hands out references; publishing new versions from
  // another thread must not invalidate them (tables_ is a deque).
  const WitnessTable& v1 = broker_.current_table();
  const std::uint32_t v1_version = v1.version();
  std::thread publisher([this] {
    for (int i = 0; i < 8; ++i) broker_.publish_witness_table(kNow + i);
  });
  std::thread reader([this, &v1, v1_version] {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(v1.version(), v1_version);
      EXPECT_GE(broker_.current_table().version(), v1_version);
    }
  });
  publisher.join();
  reader.join();
  EXPECT_EQ(broker_.table(v1_version), &v1);
}

// ---------------------------------------------------------------------------
// SchnorrGroup lazy-cache races (regression for the const-method caches)
// ---------------------------------------------------------------------------

// Threads hammer exp() with more recurring bases than the promotion cache
// holds (forcing concurrent promote + evict churn) and hash_to_group()
// with more inputs than the memo holds, while other threads read
// fixed_base_memory_bytes().  Every result is checked against a reference
// computed with the fast path disabled (the disable flag is thread-local,
// so workers still exercise the cached path).  Under TSan this pins the
// internal locking of the mutable caches behind the const API; under any
// build it pins the promote-outside-the-lock rework: a lost or duplicated
// table install returns a *wrong table* for a base, which the reference
// comparison catches.
TEST(GroupCacheConcurrencyTest, PromotionEvictionAndMemoChurnStayCorrect) {
  // Fresh group instance (same parameters as test_256) so this test churns
  // a private cache instead of polluting the shared singleton's.
  const group::SchnorrGroup& shared = group::SchnorrGroup::test_256();
  crypto::ChaChaRng rng("concurrency/group-cache");
  const group::SchnorrGroup grp = group::SchnorrGroup::from_params(
      shared.p(), shared.q(), shared.g(), shared.g1(), shared.g2(), rng);

  // More recurring bases than the promotion cache bound (64) and more
  // hash inputs than the memo bound (128), so eviction runs concurrently
  // with promotion and lookup.
  constexpr std::size_t kBases = 70;
  constexpr std::size_t kHashInputs = 140;
  constexpr std::size_t kExponents = 4;
  constexpr int kThreads = 8;
  constexpr std::size_t kIters = 400;

  std::vector<BigInt> bases, exponents, base_refs;
  bases.reserve(kBases);
  exponents.reserve(kExponents);
  for (std::size_t i = 0; i < kBases; ++i)
    bases.push_back(grp.exp_g(grp.random_scalar(rng)));
  for (std::size_t i = 0; i < kExponents; ++i)
    exponents.push_back(grp.random_scalar(rng));

  std::vector<std::vector<std::uint8_t>> hash_inputs(kHashInputs);
  for (std::size_t i = 0; i < kHashInputs; ++i)
    hash_inputs[i] = {static_cast<std::uint8_t>(i),
                      static_cast<std::uint8_t>(i >> 8), 0xAB};

  // References via the plain ladder / fresh hash (no caches involved).
  base_refs.reserve(kBases * kExponents);
  std::vector<BigInt> hash_refs;
  hash_refs.reserve(kHashInputs);
  {
    group::ScopedDisableFastExp plain;
    for (std::size_t b = 0; b < kBases; ++b)
      for (std::size_t e = 0; e < kExponents; ++e)
        base_refs.push_back(grp.exp(bases[b], exponents[e]));
    for (const auto& in : hash_inputs) hash_refs.push_back(grp.hash_to_group(in));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        // Stagger starting offsets so threads collide on *different* bases
        // simultaneously (promotion of one base races eviction of another).
        const std::size_t b =
            (static_cast<std::size_t>(t) * 17 + i) % kBases;
        const std::size_t e = i % kExponents;
        if (grp.exp(bases[b], exponents[e]) != base_refs[b * kExponents + e])
          mismatches.fetch_add(1, std::memory_order_relaxed);
        const std::size_t h =
            (static_cast<std::size_t>(t) * 31 + i) % kHashInputs;
        if (grp.hash_to_group(hash_inputs[h]) != hash_refs[h])
          mismatches.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) (void)grp.fixed_base_memory_bytes();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  // The generator tables plus promoted entries must be accounted for.
  EXPECT_GT(grp.fixed_base_memory_bytes(), 0u);
}

}  // namespace
}  // namespace p2pcash::ecash
