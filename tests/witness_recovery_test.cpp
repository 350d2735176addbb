// Witness crash recovery: the spent-coin state must survive restarts or a
// crashed-and-wiped witness would double-sign (and pay for it).

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

class WitnessRecoveryTest : public EcashTest {
 protected:
  WitnessRecoveryTest() : EcashTest(Broker::Config{}, /*journaled=*/true) {}

  /// Simulates a crash/restart of the given witness: snapshot, destroy,
  /// rebuild with the same key, restore.
  void crash_and_restore(const MerchantId& id, bool with_snapshot) {
    auto& node = dep_.node(id);
    std::vector<std::uint8_t> snapshot;
    if (with_snapshot) snapshot = node.witness->snapshot_state();
    // Rebuild the service from scratch (same identity/key).
    auto key = sig::KeyPair::from_secret(dep_.grp(),
                                         node.merchant->key_pair().secret());
    node.witness = std::make_unique<WitnessService>(
        dep_.grp(), dep_.broker().coin_key(), id, key, dep_.rng());
    if (with_snapshot) node.witness->restore_state(snapshot);
  }
};

TEST_F(WitnessRecoveryTest, SnapshotRoundTripsExactly) {
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  auto m1 = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, m1, 2000).accepted);
  auto& witness = *dep_.node(witness_id).witness;
  auto snapshot = witness.snapshot_state();
  WitnessService clone(dep_.grp(), dep_.broker().coin_key(), witness_id,
                       sig::KeyPair::from_secret(
                           dep_.grp(),
                           dep_.node(witness_id).merchant->key_pair().secret()),
                       dep_.rng());
  clone.restore_state(snapshot);
  EXPECT_EQ(clone.snapshot_state(), snapshot);
  EXPECT_EQ(clone.coins_signed(), witness.coins_signed());
}

TEST_F(WitnessRecoveryTest, RestoredWitnessStillBlocksDoubleSpend) {
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  auto m1 = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, m1, 2000).accepted);

  crash_and_restore(witness_id, /*with_snapshot=*/true);

  MerchantId m2 = m1 == "m000" ? "m001" : "m000";
  Timestamp later =
      2000 + dep_.node(witness_id).witness->commitment_ttl() + 100;
  auto result = dep_.pay(*wallet_, coin, m2, later);
  EXPECT_FALSE(result.accepted);
  ASSERT_TRUE(result.double_spend_proof.has_value());
  EXPECT_TRUE(result.double_spend_proof->verify(dep_.grp()));
}

TEST_F(WitnessRecoveryTest, AmnesiaIsExactlyTheFaultyWitnessCase) {
  // Without the snapshot, the restarted witness forgets the first spend,
  // signs again — and the broker's deposit protocol charges it, just like
  // a deliberately faulty witness.  This is why durability matters.
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  auto m1 = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, m1, 2000).accepted);

  crash_and_restore(witness_id, /*with_snapshot=*/false);

  MerchantId m2 = m1 == "m000" ? "m001" : "m000";
  auto result = dep_.pay(*wallet_, coin, m2, 3000);
  EXPECT_TRUE(result.accepted);  // the amnesiac witness signed again

  ASSERT_EQ(dep_.deposit_all(m1, 5000).credited, 100u);
  auto s2 = dep_.deposit_all(m2, 6000);
  EXPECT_EQ(s2.credited, 100u);  // merchant paid from the witness deposit
  EXPECT_TRUE(dep_.broker().account(witness_id)->flagged);
}

TEST_F(WitnessRecoveryTest, RestoredDoubleSpendProofStillServed) {
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  auto ids = dep_.merchant_ids();
  ASSERT_TRUE(dep_.pay(*wallet_, coin, ids[0], 2000).accepted);
  EXPECT_FALSE(dep_.pay(*wallet_, coin, ids[1], 3000).accepted);

  crash_and_restore(witness_id, /*with_snapshot=*/true);
  EXPECT_TRUE(dep_.node(witness_id)
                  .witness->has_double_spend_record(coin.coin.bare.coin_hash()));
  auto third = dep_.pay(*wallet_, coin, ids[2], 4000);
  EXPECT_FALSE(third.accepted);
  ASSERT_TRUE(third.double_spend_proof.has_value());
}

TEST_F(WitnessRecoveryTest, CorruptSnapshotsRejected) {
  auto coin = withdraw(100);
  auto witness_id = coin.coin.witnesses[0].merchant;
  auto m1 = non_witness_merchant(coin);
  ASSERT_TRUE(dep_.pay(*wallet_, coin, m1, 2000).accepted);
  auto& witness = *dep_.node(witness_id).witness;
  auto snapshot = witness.snapshot_state();

  // Every proper prefix is rejected, including those that end exactly on
  // a record boundary (only the end marker closes a checkpoint).
  for (std::size_t cut = 0; cut < snapshot.size(); ++cut) {
    std::span<const std::uint8_t> prefix(snapshot.data(), cut);
    EXPECT_THROW(witness.restore_state(prefix), wire::DecodeError)
        << "cut " << cut;
  }
  // Bad magic.
  auto garbled = snapshot;
  garbled[10] ^= 0xff;
  EXPECT_THROW(witness.restore_state(garbled), wire::DecodeError);
  // A failed restore must not have clobbered the state.
  EXPECT_EQ(witness.snapshot_state(), snapshot);
}

TEST_F(WitnessRecoveryTest, BadDeltaLeavesTheWitnessUntouched) {
  // A log holding a genuine checkpoint, one valid delta and a CRC-valid,
  // committed delta with an unknown sub-record tag.  Recovery decodes all
  // of it into staging first, so the bad record aborts the attach before
  // anything is installed.
  auto coin = withdraw(100);
  const auto w = coin.coin.witnesses[0].merchant;
  auto key = sig::KeyPair::from_secret(
      dep_.grp(), dep_.node(w).merchant->key_pair().secret());
  store::MemVfs vfs;
  {
    store::LogStore log(vfs, "witness.log");
    WitnessService source(dep_.grp(), dep_.broker().coin_key(), w, key,
                          dep_.rng());
    source.attach_store(log);  // genesis checkpoint
    Hash256 other_coin{};
    other_coin[0] = 0x42;
    ASSERT_TRUE(source.request_commitment(other_coin, Hash256{}, 1000).ok());
    log.append(std::vector<std::uint8_t>{0xee});
    log.commit();
  }
  store::LogStore reopened(vfs, "witness.log");

  // The target's state differs from that checkpoint (a commitment and a
  // spent record for `coin`), so any partial install would show.
  ASSERT_TRUE(dep_.pay(*wallet_, coin, non_witness_merchant(coin), 2000)
                  .accepted);
  auto& target = *dep_.node(w).witness;
  const auto before = target.snapshot_state();

  EXPECT_THROW(target.attach_store(reopened), wire::DecodeError);
  EXPECT_EQ(target.snapshot_state(), before);
}

TEST_F(WitnessRecoveryTest, CrashPointMatrixLosesNoAcknowledgedSignature) {
  // Twin of the broker crash matrix: every witness journals to its own
  // durable log, and for the designated witness we kill the process at
  // every acknowledged commit boundary, every record boundary, and at torn
  // cuts inside each record.  A rebuilt witness must reproduce the
  // acknowledged spent-coin state byte-for-byte — amnesia here is exactly
  // the faulty-witness case the broker charges for.
  std::vector<WalletCoin> coins;
  for (int i = 0; i < 22; ++i) coins.push_back(withdraw(100));

  const auto w = coins[0].coin.witnesses[0].merchant;
  const std::string log_name = Deployment::witness_log_name(w);

  struct Ack {
    std::uint64_t offset;
    std::vector<std::uint8_t> snapshot;
  };
  std::vector<Ack> acks;
  // Only this witness's log matters; dedupe marks where an operation did
  // not involve `w` (its log did not grow).
  auto mark = [&]() {
    const std::uint64_t len = vfs_.contents(log_name).size();
    if (!acks.empty() && acks.back().offset == len) return;
    acks.push_back({len, dep_.node(w).witness->snapshot_state()});
  };
  mark();  // pristine (possibly empty-log) state

  // Phase 1: first spends — commitments and spent records.
  std::vector<MerchantId> payees;
  Timestamp now = 2000;
  for (int i = 0; i < 16; ++i) {
    auto m = non_witness_merchant(coins[i]);
    ASSERT_TRUE(dep_.pay(*wallet_, coins[i], m, now).accepted) << i;
    payees.push_back(m);
    now += 10;
    mark();
  }

  // Phase 2: double spends after the commitment TTL — proof records.
  const auto ids = dep_.merchant_ids();
  now += dep_.node(w).witness->commitment_ttl() + 100;
  for (int i = 0; i < 8; ++i) {
    MerchantId other;
    for (const auto& id : ids) {
      if (id == payees[i]) continue;
      bool is_witness = false;
      for (const auto& e : coins[i].coin.witnesses)
        if (e.merchant == id) is_witness = true;
      if (!is_witness) {
        other = id;
        break;
      }
    }
    ASSERT_FALSE(other.empty()) << i;
    auto r = dep_.pay(*wallet_, coins[i], other, now);
    EXPECT_FALSE(r.accepted) << i;
    now += 10;
    mark();
  }

  // Phase 3: transfers of unspent coins — ownership-endorsement records.
  auto recipient = dep_.make_wallet();
  for (int i = 16; i < 20; ++i) {
    auto tr = dep_.transfer(*wallet_, coins[i], *recipient, now);
    ASSERT_TRUE(tr.received.has_value()) << i;
    now += 10;
    mark();
  }

  const auto final_log = vfs_.contents(log_name);
  ASSERT_GT(acks.size(), 3u);  // the designated witness did real work

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
        log_name,
        std::vector<std::uint8_t>(
            final_log.begin(),
            final_log.begin() + static_cast<std::ptrdiff_t>(cut)));
    store::LogStore reopened(crashed, log_name);
    auto key = sig::KeyPair::from_secret(
        dep_.grp(), dep_.node(w).merchant->key_pair().secret());
    WitnessService reborn(dep_.grp(), dep_.broker().coin_key(), w, key,
                          dep_.rng());
    reborn.attach_store(reopened);
    return reborn.snapshot_state();
  };

  // 1. Every acknowledged signature survives a crash at its commit point.
  for (std::size_t i = 0; i < acks.size(); ++i)
    EXPECT_EQ(recover_at(acks[i].offset), acks[i].snapshot) << "ack " << i;

  // 2. Records are atomic: torn cuts recover to the preceding boundary.
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    auto at_boundary = recover_at(bounds[i]);
    const std::uint64_t next = bounds[i + 1];
    for (std::uint64_t cut :
         {bounds[i] + 1, (bounds[i] + next) / 2, next - 1}) {
      if (cut <= bounds[i] || cut >= next) continue;
      EXPECT_EQ(recover_at(cut), at_boundary) << "record " << i;
    }
  }

  // 3. Exactly-once across the reboot: swap in a witness recovered from
  //    the full log and try to double-spend a coin it endorsed — the
  //    recovered spent-record must produce a verifying proof, not a second
  //    signature.
  {
    auto log = std::make_unique<store::LogStore>(vfs_, log_name);
    auto key = sig::KeyPair::from_secret(
        dep_.grp(), dep_.node(w).merchant->key_pair().secret());
    auto reborn = std::make_unique<WitnessService>(
        dep_.grp(), dep_.broker().coin_key(), w, key, dep_.rng());
    reborn->attach_store(*log);
    EXPECT_EQ(reborn->snapshot_state(),
              dep_.node(w).witness->snapshot_state());
    dep_.node(w).witness = std::move(reborn);
    dep_.node(w).store = std::move(log);

    // Find a spent coin whose witness set includes w.
    for (int i = 0; i < 16; ++i) {
      bool mine = false;
      for (const auto& e : coins[i].coin.witnesses)
        if (e.merchant == w) mine = true;
      if (!mine) continue;
      EXPECT_TRUE(dep_.node(w).witness->has_double_spend_record(
                      coins[i].coin.bare.coin_hash()) ||
                  i >= 8)
          << i;
      MerchantId other;
      for (const auto& id : ids) {
        if (id == payees[i]) continue;
        bool is_witness = false;
        for (const auto& e : coins[i].coin.witnesses)
          if (e.merchant == id) is_witness = true;
        if (!is_witness) {
          other = id;
          break;
        }
      }
      auto again = dep_.pay(*wallet_, coins[i], other, now + 1000);
      EXPECT_FALSE(again.accepted) << i;
      if (again.double_spend_proof.has_value()) {
        EXPECT_TRUE(again.double_spend_proof->verify(dep_.grp())) << i;
      }
      break;
    }
  }

  if (HasFailure()) dump_store_artifact("witness", final_log, bounds);
}

TEST_F(WitnessRecoveryTest, CountersignatureIsOneRecord) {
  // A countersignature changes the spend, its commitment and coins_signed
  // together.  A crash anywhere inside its log growth must recover either
  // the state before it or the state after it, never a spend whose
  // counter lags (a state the witness never acknowledged).
  auto coin = withdraw(100);
  const auto w = coin.coin.witnesses[0].merchant;
  const std::string log_name = Deployment::witness_log_name(w);
  auto& witness = *dep_.node(w).witness;

  auto intent = wallet_->prepare_payment(coin, non_witness_merchant(coin));
  auto commitment = witness.request_commitment(intent.coin_hash,
                                               intent.nonce, 2000);
  ASSERT_TRUE(commitment.ok());
  const std::uint64_t before_offset = vfs_.contents(log_name).size();
  const auto before = witness.snapshot_state();

  auto transcript =
      wallet_->build_transcript(coin, intent, {commitment.value()}, 2050);
  ASSERT_TRUE(transcript.ok());
  auto signed_result = witness.sign_transcript(transcript.value(), 2100);
  ASSERT_TRUE(signed_result.ok()) << signed_result.refusal().detail;
  ASSERT_TRUE(
      std::holds_alternative<WitnessEndorsement>(signed_result.value()));
  const auto log = vfs_.contents(log_name);
  const auto after = witness.snapshot_state();
  ASSERT_GT(log.size(), before_offset);
  ASSERT_NE(after, before);

  auto key = sig::KeyPair::from_secret(
      dep_.grp(), dep_.node(w).merchant->key_pair().secret());
  for (std::uint64_t cut = before_offset; cut <= log.size(); ++cut) {
    const auto end = log.begin() + static_cast<std::ptrdiff_t>(cut);
    store::MemVfs crashed;
    crashed.set_contents(log_name, std::vector<std::uint8_t>(log.begin(), end));
    store::LogStore reopened(crashed, log_name);
    WitnessService reborn(dep_.grp(), dep_.broker().coin_key(), w, key,
                          dep_.rng());
    reborn.attach_store(reopened);
    const auto recovered = reborn.snapshot_state();
    if (cut == before_offset) {
      EXPECT_EQ(recovered, before);
    } else if (cut == log.size()) {
      EXPECT_EQ(recovered, after);
    } else {
      EXPECT_TRUE(recovered == before || recovered == after) << "cut " << cut;
    }
  }
}

}  // namespace
}  // namespace p2pcash::ecash
