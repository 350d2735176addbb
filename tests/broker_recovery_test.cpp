// Broker crash recovery: the deposit database, merchant ledgers and table
// history must survive restarts — a forgetful broker pays every coin twice.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "ecash_fixture.h"
#include "store/log_store.h"
#include "store/vfs.h"

namespace p2pcash::ecash {
namespace {

using testing::EcashTest;

/// When $P2PCASH_STORE_ARTIFACT names a directory, dumps the offending log
/// bytes and the record-boundary index there so CI can upload them as a
/// failure artifact.
void dump_store_artifact(const std::string& tag,
                         const std::vector<std::uint8_t>& log,
                         const std::vector<std::uint64_t>& bounds) {
  const char* dir = std::getenv("P2PCASH_STORE_ARTIFACT");
  if (dir == nullptr) return;
  std::ofstream raw(std::string(dir) + "/" + tag + ".log", std::ios::binary);
  raw.write(reinterpret_cast<const char*>(log.data()),
            static_cast<std::streamsize>(log.size()));
  std::ofstream idx(std::string(dir) + "/" + tag + ".idx");
  for (auto b : bounds) idx << b << "\n";
}

std::uint32_t be32_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  return (std::uint32_t{b[off]} << 24) | (std::uint32_t{b[off + 1]} << 16) |
         (std::uint32_t{b[off + 2]} << 8) | std::uint32_t{b[off + 3]};
}

class BrokerRecoveryTest : public EcashTest {
 protected:
  void crash_and_restore() {
    auto snapshot = dep_.broker().snapshot_state();
    // Simulate a process restart: wipe in-memory state by restoring onto
    // the same object (the ctor-fresh state is what a reboot would give).
    dep_.broker().restore_state(snapshot);
  }
};

TEST_F(BrokerRecoveryTest, SnapshotRoundTripsExactly) {
  auto coin = withdraw(100);
  auto merchant = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, merchant, 2000).accepted);
  ASSERT_EQ(dep_.deposit_all(merchant, 3000).accepted, 1u);
  auto snapshot = dep_.broker().snapshot_state();
  dep_.broker().restore_state(snapshot);
  EXPECT_EQ(dep_.broker().snapshot_state(), snapshot);
}

TEST_F(BrokerRecoveryTest, KeysSurviveSoOldCoinsStillVerify) {
  auto coin = withdraw(100);
  crash_and_restore();
  // Coins issued before the crash still verify under the restored key...
  EXPECT_TRUE(
      verify_coin(dep_.grp(), dep_.broker().coin_key(), coin.coin, 2000).ok());
  // ...and spend + deposit normally.
  auto merchant = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, merchant, 2000).accepted);
  EXPECT_EQ(dep_.deposit_all(merchant, 3000).credited, 100u);
}

TEST_F(BrokerRecoveryTest, DepositDatabaseSurvives) {
  auto coin = withdraw(100);
  auto merchant = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, merchant, 2000).accepted);
  auto queue = dep_.node(merchant).merchant->drain_deposit_queue();
  ASSERT_EQ(queue.size(), 1u);
  ASSERT_TRUE(dep_.broker().deposit(merchant, queue[0], 3000).ok());

  crash_and_restore();

  // Re-depositing after the restart must still be refused.
  auto again = dep_.broker().deposit(merchant, queue[0], 4000);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.refusal().reason, RefusalReason::kAlreadyDeposited);
  EXPECT_EQ(dep_.broker().account(merchant)->balance, 100);
}

TEST_F(BrokerRecoveryTest, RenewalDatabaseSurvives) {
  auto coin = withdraw(100, 1000);
  Timestamp when = coin.coin.bare.info.soft_expiry +
                   dep_.broker().config().deposit_grace_ms + 1000;
  ASSERT_TRUE(dep_.renew(*wallet_, coin, when).ok());
  crash_and_restore();
  auto second = dep_.renew(*wallet_, coin, when + 100);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.refusal().reason, RefusalReason::kDoubleSpent);
}

TEST_F(BrokerRecoveryTest, OpenSessionsAreDroppedSafely) {
  // A withdrawal in flight across the crash: the signer nonces are gone,
  // so the session must be refused — never answered from scratch (which
  // could let a blinded challenge be answered twice).
  auto offer = dep_.broker().start_withdrawal(100, 1000);
  ASSERT_TRUE(offer.ok());
  auto state = wallet_->begin_withdrawal(offer.value());
  crash_and_restore();
  auto response = dep_.broker().finish_withdrawal(state.session, state.e);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.refusal().reason, RefusalReason::kStaleRequest);
  // The client simply retries with a fresh session.
  auto coin = withdraw(100, 2000);
  EXPECT_EQ(coin.coin.bare.info.denomination, 100u);
}

TEST_F(BrokerRecoveryTest, FlagsAndFaultsSurvive) {
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  dep_.node(witness_id).witness->set_faulty(true);
  std::vector<MerchantId> victims;
  for (const auto& id : dep_.merchant_ids())
    if (id != witness_id && victims.size() < 2) victims.push_back(id);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, victims[0], 2000).accepted);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, victims[1], 3000).accepted);
  dep_.deposit_all(victims[0], 4000);
  dep_.deposit_all(victims[1], 4000);
  ASSERT_TRUE(dep_.broker().account(witness_id)->flagged);

  crash_and_restore();
  EXPECT_TRUE(dep_.broker().account(witness_id)->flagged);
  ASSERT_EQ(dep_.broker().witness_faults().size(), 1u);
  // The flagged witness stays out of post-restart tables.
  const auto& table = dep_.broker().publish_witness_table(5000);
  EXPECT_FALSE(table.find(witness_id).has_value());
}

TEST_F(BrokerRecoveryTest, CorruptSnapshotsRejectedAtomically) {
  auto coin = withdraw(100);
  auto merchant = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, merchant, 2000).accepted);
  dep_.deposit_all(merchant, 3000);
  auto snapshot = dep_.broker().snapshot_state();
  auto before = dep_.broker().snapshot_state();

  auto garbled = snapshot;
  garbled[5] ^= 0xff;  // inside the magic string
  EXPECT_THROW(dep_.broker().restore_state(garbled), wire::DecodeError);
  // Every proper prefix is rejected, including those that end exactly on
  // a record boundary (only the end marker closes a checkpoint).
  for (std::size_t cut = 0; cut < snapshot.size(); ++cut) {
    std::span<const std::uint8_t> prefix(snapshot.data(), cut);
    EXPECT_THROW(dep_.broker().restore_state(prefix), wire::DecodeError)
        << "cut " << cut;
  }
  // Failed restores left the broker untouched.
  EXPECT_EQ(dep_.broker().snapshot_state(), before);
}

TEST_F(BrokerRecoveryTest, BadDeltaLeavesTheBrokerUntouched) {
  // A log holding a genuine checkpoint, one valid delta and a CRC-valid,
  // committed delta with an unknown sub-record tag.  Recovery decodes all
  // of it into staging first, so the bad record aborts the attach before
  // anything is installed.
  store::MemVfs vfs;
  {
    store::LogStore log(vfs, "broker.log");
    crypto::ChaChaRng rng("bad-delta");
    Broker source(dep_.grp(), rng, dep_.broker().config());
    source.attach_store(log);  // genesis checkpoint
    source.register_merchant("late", dep_.broker().coin_key(), 10);
    log.append(std::vector<std::uint8_t>{0xee});
    log.commit();
  }
  store::LogStore reopened(vfs, "broker.log");

  // The target's state differs from that checkpoint (another key, coins,
  // a deposit), so any partial install would show in its snapshot.
  auto coin = withdraw(100);
  auto merchant = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, merchant, 2000).accepted);
  ASSERT_EQ(dep_.deposit_all(merchant, 3000).accepted, 1u);
  const auto before = dep_.broker().snapshot_state();

  EXPECT_THROW(dep_.broker().attach_store(reopened), wire::DecodeError);
  EXPECT_EQ(dep_.broker().snapshot_state(), before);
}

TEST_F(BrokerRecoveryTest, CrashPointMatrixLosesNoAcknowledgedOperation) {
  // The durable-log contract, enforced exhaustively: attach a LogStore,
  // drive a seeded workload, and for every acknowledged operation plant
  // the log exactly as a crash at that commit boundary would leave it —
  // recovery must reproduce the acknowledged state byte-for-byte.  Then
  // kill at every record boundary and at torn cuts inside the following
  // record: truncate-to-last-valid, never a crash, never half a record.
  store::MemVfs vfs;
  store::LogStore log(vfs, "broker.log");
  dep_.broker().attach_store(log);

  struct Ack {
    std::uint64_t offset;
    std::vector<std::uint8_t> snapshot;
  };
  std::vector<Ack> acks;
  auto mark = [&]() {
    acks.push_back({vfs.contents("broker.log").size(),
                    dep_.broker().snapshot_state()});
  };
  mark();  // genesis checkpoint

  // Seeded workload: withdrawals, a manual deposit (kept for the
  // exactly-once probe), deposit waves, an exchange, a renewal and a table
  // publication — every broker delta kind fires at least once.
  std::vector<WalletCoin> coins;
  for (int i = 0; i < 10; ++i) {
    coins.push_back(withdraw(100));
    mark();
  }
  const auto m0 = non_witness_merchant(coins[0]);
  ASSERT_TRUE(dep_.pay(*wallet_, coins[0], m0, 2000).accepted);
  auto queue = dep_.node(m0).merchant->drain_deposit_queue();
  ASSERT_FALSE(queue.empty());
  ASSERT_TRUE(dep_.broker().deposit(m0, queue[0], 2500).ok());
  mark();
  for (int i = 1; i < 6; ++i)
    ASSERT_TRUE(dep_.pay(*wallet_, coins[i], non_witness_merchant(coins[i]),
                         2000 + i)
                    .accepted);
  for (const auto& id : dep_.merchant_ids()) {
    dep_.deposit_all(id, 3000);
    mark();
  }
  ASSERT_TRUE(dep_.exchange(*wallet_, coins[6], {60, 40}, 4000).ok());
  mark();
  Timestamp when = coins[7].coin.bare.info.soft_expiry +
                   dep_.broker().config().deposit_grace_ms + 1000;
  ASSERT_TRUE(dep_.renew(*wallet_, coins[7], when).ok());
  mark();
  dep_.broker().publish_witness_table(5000);
  mark();

  const auto final_log = vfs.contents("broker.log");

  // Record boundaries straight from the length-prefixed frames.
  std::vector<std::uint64_t> bounds{0};
  for (std::size_t off = 0;
       off + store::kFrameHeaderBytes <= final_log.size();) {
    off += store::kFrameHeaderBytes + be32_at(final_log, off);
    ASSERT_LE(off, final_log.size());
    bounds.push_back(off);
  }
  ASSERT_EQ(bounds.back(), final_log.size());

  auto recover_at = [&](std::uint64_t cut) {
    store::MemVfs crashed;
    crashed.set_contents(
        "broker.log",
        std::vector<std::uint8_t>(
            final_log.begin(),
            final_log.begin() + static_cast<std::ptrdiff_t>(cut)));
    store::LogStore reopened(crashed, "broker.log");
    crypto::ChaChaRng rng("crash-matrix");
    Broker reborn(dep_.grp(), rng, dep_.broker().config());
    reborn.attach_store(reopened);
    return reborn.snapshot_state();
  };

  // 1. Zero lost acknowledged operations: every commit boundary recovers
  //    to the exact acknowledged state.
  for (std::size_t i = 0; i < acks.size(); ++i)
    EXPECT_EQ(recover_at(acks[i].offset), acks[i].snapshot) << "ack " << i;

  // 2. Kill at every record boundary and inside every following record:
  //    a torn tail recovers to the boundary state (records are atomic).
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    auto at_boundary = recover_at(bounds[i]);
    const std::uint64_t next = bounds[i + 1];
    for (std::uint64_t cut :
         {bounds[i] + 1, (bounds[i] + next) / 2, next - 1}) {
      if (cut <= bounds[i] || cut >= next) continue;
      EXPECT_EQ(recover_at(cut), at_boundary) << "record " << i;
    }
  }

  // 3. Exactly-once detection across the reboot: the already-credited
  //    endorsement is refused, not paid twice, and balances are intact.
  {
    store::MemVfs last;
    last.set_contents("broker.log", final_log);
    store::LogStore reopened(last, "broker.log");
    crypto::ChaChaRng rng("crash-matrix-final");
    Broker reborn(dep_.grp(), rng, dep_.broker().config());
    reborn.attach_store(reopened);
    EXPECT_EQ(reborn.snapshot_state(), dep_.broker().snapshot_state());
    auto again = reborn.deposit(m0, queue[0], 9000);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.refusal().reason, RefusalReason::kAlreadyDeposited);
    EXPECT_EQ(reborn.account(m0)->balance, dep_.broker().account(m0)->balance);
  }

  if (HasFailure()) dump_store_artifact("broker", final_log, bounds);
}

}  // namespace
}  // namespace p2pcash::ecash
