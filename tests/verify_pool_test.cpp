// The worker pool (TcpNet's strand executor) + the witness hot path.  Run
// under -DP2PCASH_SANITIZE=thread this is the TSan proof that the
// witness's one lock keeps check-then-sign atomic per coin while payments
// run concurrently through sign_transcript, the witness's one signing
// path, with their checks outside the lock.

#include "verify/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "ecash_fixture.h"

namespace p2pcash::ecash {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool semantics
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskAndDrainIsABarrier) {
  verify::WorkerPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 100);
  // A drained pool accepts new waves.
  pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_EQ(done.load(), 101);
}

TEST(WorkerPool, DrainWaitsForInFlightTasks) {
  verify::WorkerPool pool(2);
  std::atomic<bool> finished{false};
  pool.submit([&finished] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true, std::memory_order_release);
  });
  pool.drain();
  EXPECT_TRUE(finished.load(std::memory_order_acquire));
}

TEST(WorkerPool, DestructorRunsPendingTasks) {
  std::atomic<int> done{0};
  {
    verify::WorkerPool pool(1);
    for (int i = 0; i < 16; ++i)
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(WorkerPool, ZeroThreadsClampedToOne) {
  verify::WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.drain();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------------------------
// The witness signing path, alone and concurrent
// ---------------------------------------------------------------------------

class VerifyPoolTest : public ecash::testing::EcashTest {
 protected:
  struct Prepared {
    Wallet::PaymentIntent intent;
    WitnessCommitment commitment;
    PaymentTranscript transcript;
  };

  /// Steps 1-3 of a payment at the coin's slot-0 witness, unsubmitted.
  Prepared prepare(const WalletCoin& coin, const MerchantId& merchant,
                   Timestamp now) {
    Prepared p;
    p.intent = wallet_->prepare_payment(coin, merchant);
    auto commitment = witness_for(coin).request_commitment(p.intent.coin_hash,
                                                           p.intent.nonce, now);
    EXPECT_TRUE(commitment.ok());
    p.commitment = commitment.value();
    auto transcript =
        wallet_->build_transcript(coin, p.intent, {p.commitment}, now + 50);
    EXPECT_TRUE(transcript.ok());
    p.transcript = transcript.value();
    return p;
  }

  WitnessService& witness_for(const WalletCoin& coin) {
    return *dep_.node(coin.coin.witnesses[0].merchant).witness;
  }

  MerchantId witness_id(const WalletCoin& coin) {
    return coin.coin.witnesses[0].merchant;
  }
};

TEST_F(VerifyPoolTest, ForgedProofRefusedWithoutSpendingTheCoin) {
  // A transcript whose payment NIZK was tampered with must be refused with
  // kBadProof before it touches the spend state: no countersignature, no
  // spend record, and the honest transcript of the same coin still gets
  // endorsed afterwards.
  auto coin = withdraw(100, 1000);
  auto p = prepare(coin, non_witness_merchant(coin), 2000);
  auto& witness = witness_for(coin);
  const auto state_before = witness.snapshot_state();
  const std::uint64_t signed_before = witness.coins_signed();

  PaymentTranscript forged = p.transcript;
  forged.resp.r1 = bn::mod(forged.resp.r1 + bn::BigInt{1}, dep_.grp().q());
  auto refused = witness.sign_transcript(forged, 2100);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.refusal().reason, RefusalReason::kBadProof);
  EXPECT_EQ(witness.coins_signed(), signed_before);
  EXPECT_EQ(witness.snapshot_state(), state_before);
  EXPECT_FALSE(witness.has_double_spend_record(coin.coin.bare.coin_hash()));

  auto honest = witness.sign_transcript(p.transcript, 2100);
  ASSERT_TRUE(honest.ok()) << honest.refusal().detail;
  EXPECT_TRUE(std::holds_alternative<WitnessEndorsement>(honest.value()));
  EXPECT_EQ(witness.coins_signed(), signed_before + 1);
}

TEST_F(VerifyPoolTest, PooledSigningOfDisjointCoinsAllEndorse) {
  // The hot path end to end: independent payments pipelined through
  // the worker pool, several tasks inside each WitnessService at once:
  // their checks interleave outside the lock and every payment must still
  // endorse exactly once.
  constexpr int kPayments = 24;
  std::map<MerchantId, std::vector<PaymentTranscript>> waves;
  for (int i = 0; i < kPayments; ++i) {
    auto coin = withdraw(100, 1000);
    auto p = prepare(coin, non_witness_merchant(coin), 2000);
    waves[witness_id(coin)].push_back(p.transcript);
  }
  std::uint64_t signed_before = 0;
  for (const auto& [id, _] : waves)
    signed_before += dep_.node(id).witness->coins_signed();
  EXPECT_EQ(signed_before, 0u);

  verify::WorkerPool pool(8);
  std::atomic<int> endorsed{0};
  std::atomic<int> failures{0};
  for (auto& [id, transcripts] : waves) {
    WitnessService* witness = dep_.node(id).witness.get();
    for (const auto& transcript : transcripts) {
      pool.submit([witness, &transcript, &endorsed, &failures] {
        auto result = witness->sign_transcript(transcript, 2100);
        if (result.ok() &&
            std::holds_alternative<WitnessEndorsement>(result.value()))
          endorsed.fetch_add(1, std::memory_order_relaxed);
        else
          failures.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  pool.drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(endorsed.load(), kPayments);
  std::uint64_t signed_after = 0;
  for (const auto& [id, _] : waves)
    signed_after += dep_.node(id).witness->coins_signed();
  EXPECT_EQ(signed_after, static_cast<std::uint64_t>(kPayments));
}

TEST_F(VerifyPoolTest, RacingSpendsOfOneCoinYieldOneEndorsementOneProof) {
  // Two transcripts of the same coin raced through the pool: whatever the
  // interleaving, the witness's check-then-sign must admit exactly one
  // endorsement, and the loser must receive a publicly verifiable proof.
  auto coin = withdraw(100, 1000);
  auto p = prepare(coin, non_witness_merchant(coin), 2000);
  auto second =
      wallet_->build_transcript(coin, p.intent, {p.commitment}, 2075);
  ASSERT_TRUE(second.ok());
  std::vector<PaymentTranscript> racers{p.transcript, second.value()};
  auto& witness = witness_for(coin);

  verify::WorkerPool pool(2);
  std::atomic<int> endorsements{0};
  std::atomic<int> proofs{0};
  std::atomic<int> errors{0};
  for (const auto& transcript : racers) {
    pool.submit([&witness, &transcript, &endorsements, &proofs, &errors] {
      auto result = witness.sign_transcript(transcript, 2100);
      if (!result.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else if (std::holds_alternative<WitnessEndorsement>(result.value())) {
        endorsements.fetch_add(1, std::memory_order_relaxed);
      } else {
        proofs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  pool.drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(endorsements.load(), 1);
  EXPECT_EQ(proofs.load(), 1);
  EXPECT_TRUE(witness.has_double_spend_record(coin.coin.bare.coin_hash()));
}

TEST_F(VerifyPoolTest, SnapshotWhileSigningStaysConsistent) {
  // Snapshots are taken under the witness's lock; taking them while the
  // pool is signing must neither race (TSan) nor corrupt state — a final
  // quiescent snapshot must restore onto a fresh service byte-for-byte.
  constexpr int kPayments = 12;
  std::map<MerchantId, std::vector<PaymentTranscript>> waves;
  MerchantId any_witness;
  for (int i = 0; i < kPayments; ++i) {
    auto coin = withdraw(100, 1000);
    auto p = prepare(coin, non_witness_merchant(coin), 2000);
    waves[witness_id(coin)].push_back(p.transcript);
    any_witness = witness_id(coin);
  }
  verify::WorkerPool pool(4);
  for (auto& [id, transcripts] : waves) {
    WitnessService* witness = dep_.node(id).witness.get();
    for (const auto& transcript : transcripts)
      pool.submit([witness, &transcript] {
        (void)witness->sign_transcript(transcript, 2100);
      });
  }
  WitnessService& observed = *dep_.node(any_witness).witness;
  for (int i = 0; i < 20; ++i) {
    (void)observed.snapshot_state();  // concurrent with the signing wave
    std::this_thread::yield();
  }
  pool.drain();
  auto quiescent = observed.snapshot_state();
  observed.restore_state(quiescent);
  EXPECT_EQ(observed.snapshot_state(), quiescent);
}

}  // namespace
}  // namespace p2pcash::ecash
