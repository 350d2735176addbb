// Durable coin-state store: CRC framing, torn-tail recovery, group commit,
// compaction, and the golden guarantee that store-backed services produce
// byte-identical snapshots to plain ones.

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "crypto/chacha.h"
#include "ecash/deployment.h"
#include "obs/metrics_registry.h"
#include "store/crc32c.h"
#include "store/log_store.h"
#include "store/store.h"
#include "store/vfs.h"

namespace p2pcash::store {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// ---- crc32c ---------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 appendix B test vectors (CRC-32C / Castagnoli).
  EXPECT_EQ(crc32c(std::vector<std::uint8_t>{}), 0x00000000u);
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, SeedChainsIncrementalComputation) {
  auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  auto whole = crc32c(data);
  std::span<const std::uint8_t> all(data);
  auto part = crc32c(all.subspan(10), crc32c(all.first(10)));
  EXPECT_EQ(part, whole);
}

// ---- MemVfs ---------------------------------------------------------------

TEST(MemVfs, CrashKeepsSyncedPrefixPlusKeptTail) {
  MemVfs vfs;
  auto f = vfs.open("log");
  f->append(bytes_of("durable"));
  f->sync();
  f->append(bytes_of("unsynced"));
  EXPECT_EQ(vfs.unsynced_bytes("log"), 8u);

  vfs.crash_file("log", 3);  // kernel flushed 3 bytes of the tail
  EXPECT_EQ(vfs.contents("log"), bytes_of("durableuns"));
  // Everything surviving a crash is by definition durable now.
  EXPECT_EQ(vfs.unsynced_bytes("log"), 0u);
  // keep is clamped to the tail length.
  auto g = vfs.open("log");
  g->append(bytes_of("xy"));
  vfs.crash_file("log", 99);
  EXPECT_EQ(vfs.contents("log"), bytes_of("durableunsxy"));
}

TEST(MemVfs, RenameIsCrashAtomic) {
  MemVfs vfs;
  vfs.open("a")->append(bytes_of("new"));
  vfs.open("b")->append(bytes_of("old"));
  vfs.rename("a", "b");
  EXPECT_FALSE(vfs.exists("a"));
  EXPECT_EQ(vfs.contents("b"), bytes_of("new"));
  // The renamed-in bytes survive an immediate crash (rename barrier).
  vfs.crash_file("b", 0);
  EXPECT_EQ(vfs.contents("b"), bytes_of("new"));
}

// ---- LogStore basics ------------------------------------------------------

TEST(LogStore, CheckpointAndDeltasRoundTrip) {
  MemVfs vfs;
  {
    LogStore log(vfs, "log");
    EXPECT_TRUE(log.empty());
    log.checkpoint(bytes_of("snap"));
    log.append(bytes_of("d1"));
    log.append(bytes_of("d2"));
    log.commit();
  }
  LogStore reopened(vfs, "log");
  EXPECT_FALSE(reopened.empty());
  auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, bytes_of("snap"));
  ASSERT_EQ(rec.deltas.size(), 2u);
  EXPECT_EQ(rec.deltas[0], bytes_of("d1"));
  EXPECT_EQ(rec.deltas[1], bytes_of("d2"));
  EXPECT_EQ(reopened.stats().recovered_records, 3u);
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
}

TEST(LogStore, LaterCheckpointSupersedesEarlierRecords) {
  MemVfs vfs;
  LogStore log(vfs, "log");
  log.checkpoint(bytes_of("one"));
  log.append(bytes_of("d1"));
  log.commit();
  log.checkpoint(bytes_of("two"));  // compaction: rewrites the log
  log.append(bytes_of("d2"));
  log.commit();

  LogStore reopened(vfs, "log");
  auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, bytes_of("two"));
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("d2"));
  // Compaction really shrank the log to checkpoint + one delta.
  EXPECT_EQ(reopened.stats().recovered_records, 2u);
}

TEST(LogStore, UncommittedTailIsLostCommittedPrefixIsNot) {
  MemVfs vfs;
  LogStore log(vfs, "log");
  log.checkpoint(bytes_of("snap"));
  log.append(bytes_of("acked"));
  log.commit();
  log.append(bytes_of("unacked"));  // never committed

  vfs.crash_file("log", 0);  // none of the page cache made it
  LogStore reopened(vfs, "log");
  auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, bytes_of("snap"));
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("acked"));
}

TEST(LogStore, EveryTornTailPositionRecoversCleanly) {
  // Kill at every possible byte of the unsynced tail: recovery must keep
  // exactly the records whose frames fully survived, and truncate the rest.
  MemVfs vfs;
  LogStore log(vfs, "log");
  log.checkpoint(bytes_of("base"));
  const std::uint64_t base_len = log.size_bytes();
  log.append(bytes_of("delta-one"));
  log.append(bytes_of("delta-two!"));
  const auto full = vfs.contents("log");
  const std::uint64_t rec1 = kFrameHeaderBytes + 1 + 9;  // frame|kind|body
  const std::uint64_t rec2 = kFrameHeaderBytes + 1 + 10;
  ASSERT_EQ(full.size(), base_len + rec1 + rec2);

  for (std::uint64_t keep = 0; keep <= rec1 + rec2; ++keep) {
    MemVfs torn;
    torn.set_contents(
        "log",
        std::vector<std::uint8_t>(
            full.begin(),
            full.begin() + static_cast<std::ptrdiff_t>(base_len + keep)));
    LogStore reopened(torn, "log");
    auto rec = reopened.recover();
    EXPECT_EQ(rec.snapshot, bytes_of("base")) << "keep=" << keep;
    const std::uint64_t survives =
        keep >= rec1 + rec2 ? rec1 + rec2 : keep >= rec1 ? rec1 : 0;
    EXPECT_EQ(rec.deltas.size(), survives == rec1 + rec2 ? 2u
                                 : survives == rec1      ? 1u
                                                         : 0u)
        << "keep=" << keep;
    // The torn bytes were chopped from the reopened file.
    EXPECT_EQ(torn.contents("log").size(), base_len + survives)
        << "keep=" << keep;
    EXPECT_EQ(reopened.stats().truncated_bytes, keep - survives)
        << "keep=" << keep;
  }
}

TEST(LogStore, CrashDuringCompactionFallsBackToOldLog) {
  MemVfs vfs;
  {
    LogStore log(vfs, "log");
    log.checkpoint(bytes_of("snap"));
    log.append(bytes_of("d1"));
    log.commit();
  }
  // Simulate a crash mid-compaction: a stale temp file next to a good log.
  vfs.set_contents("log.tmp", bytes_of("half-written garbage"));
  LogStore reopened(vfs, "log");
  EXPECT_FALSE(vfs.exists("log.tmp"));  // stale temp removed on open
  auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, bytes_of("snap"));
  ASSERT_EQ(rec.deltas.size(), 1u);
}

TEST(LogStore, StatsCountAppendsCommitsAndFsyncs) {
  obs::MetricsRegistry registry;
  MemVfs vfs;
  LogStore::Options opts;
  opts.metrics = &registry;
  LogStore log(vfs, "log", opts);
  log.append(bytes_of("a"));
  log.append(bytes_of("b"));
  log.commit();
  log.commit();  // nothing new: no extra fsync
  auto stats = log.stats();
  EXPECT_EQ(stats.appended_records, 2u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.fsyncs, 1u);
  auto text = registry.prometheus_text();
  EXPECT_NE(text.find("store_appends_total"), std::string::npos);
  EXPECT_NE(text.find("store_commit_batch_records"), std::string::npos);
}

TEST(LogStore, ConcurrentCommittersAreGroupCommitted) {
  MemVfs vfs;
  LogStore log(vfs, "log");
  constexpr int kThreads = 8;
  constexpr int kOps = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t]() {
      for (int i = 0; i < kOps; ++i) {
        std::uint8_t payload[2] = {static_cast<std::uint8_t>(t),
                                   static_cast<std::uint8_t>(i)};
        log.append(payload);
        log.commit();
      }
    });
  }
  for (auto& th : threads) th.join();
  auto stats = log.stats();
  EXPECT_EQ(stats.appended_records, kThreads * kOps);
  // Group commit: leaders sync whole batches, so fsyncs never exceed the
  // commit() calls that found work.
  EXPECT_LE(stats.fsyncs, stats.commits);
  LogStore reopened(vfs, "log");
  EXPECT_EQ(reopened.recover().deltas.size(), kThreads * kOps);
}

// ---- hostile inputs (see also fuzz_test.cpp's log corpus) -----------------

TEST(LogStore, OversizedLengthPrefixIsCorruptionNotAllocation) {
  MemVfs vfs;
  auto genuine = LogStore::frame_record(kRecordDelta, bytes_of("fine"));
  std::vector<std::uint8_t> bytes = genuine;
  bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xff,  // 4 GiB length claim
                             0x00, 0x00, 0x00, 0x00});
  vfs.set_contents("log", bytes);
  LogStore log(vfs, "log");
  auto rec = log.recover();
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("fine"));
  EXPECT_EQ(log.stats().truncated_bytes, 8u);
  EXPECT_EQ(vfs.contents("log"), genuine);
}

TEST(LogStore, OversizedRecordIsRefusedBeforeAnyByteIsWritten) {
  // The open-time scan treats a payload over max_record_bytes as
  // corruption, so writing one would lose it and every later record.
  MemVfs vfs;
  LogStore::Options options;
  options.max_record_bytes = 64;
  {
    LogStore log(vfs, "log", options);
    EXPECT_THROW(log.append(std::vector<std::uint8_t>(100, 0xab)),
                 std::length_error);
    EXPECT_THROW(log.checkpoint(std::vector<std::uint8_t>(100, 0xab)),
                 std::length_error);
    EXPECT_EQ(log.size_bytes(), 0u);
    log.append(bytes_of("small"));
    log.commit();
  }
  LogStore reopened(vfs, "log", options);
  auto rec = reopened.recover();
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("small"));
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
}

TEST(LogStore, FlippedCrcByteDropsTheRecordAndEverythingAfter) {
  MemVfs vfs;
  auto r1 = LogStore::frame_record(kRecordDelta, bytes_of("first"));
  auto r2 = LogStore::frame_record(kRecordDelta, bytes_of("second"));
  auto r3 = LogStore::frame_record(kRecordDelta, bytes_of("third"));
  std::vector<std::uint8_t> bytes;
  for (const auto* r : {&r1, &r2, &r3})
    bytes.insert(bytes.end(), r->begin(), r->end());
  bytes[r1.size() + 4] ^= 0xff;  // CRC field of the second record
  vfs.set_contents("log", bytes);
  LogStore log(vfs, "log");
  auto rec = log.recover();
  // The single-log CRC trade-off: corruption truncates the suffix.  Only
  // the prefix before the bad record survives.
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("first"));
  EXPECT_EQ(log.stats().truncated_bytes, r2.size() + r3.size());
}

TEST(LogStore, AppendingAfterRecoveryProducesAValidLog) {
  MemVfs vfs;
  auto r1 = LogStore::frame_record(kRecordDelta, bytes_of("keep"));
  std::vector<std::uint8_t> bytes = r1;
  bytes.insert(bytes.end(), {0x00, 0x00, 0x01});  // torn header
  vfs.set_contents("log", bytes);
  {
    LogStore log(vfs, "log");
    log.append(bytes_of("fresh"));
    log.commit();
  }
  LogStore reopened(vfs, "log");
  auto rec = reopened.recover();
  ASSERT_EQ(rec.deltas.size(), 2u);
  EXPECT_EQ(rec.deltas[0], bytes_of("keep"));
  EXPECT_EQ(rec.deltas[1], bytes_of("fresh"));
}

// ---- PosixVfs --------------------------------------------------------------

TEST(PosixVfs, LogRoundTripsOnARealFilesystem) {
  PosixVfs vfs(::testing::TempDir() + "p2pcash_store_test");
  if (vfs.exists("posix.log")) vfs.remove("posix.log");
  {
    LogStore log(vfs, "posix.log");
    log.checkpoint(bytes_of("snap"));
    log.append(bytes_of("delta"));
    log.commit();
  }
  LogStore reopened(vfs, "posix.log");
  auto rec = reopened.recover();
  EXPECT_EQ(rec.snapshot, bytes_of("snap"));
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], bytes_of("delta"));
  vfs.remove("posix.log");
}

}  // namespace
}  // namespace p2pcash::store

// ---- golden equivalence ---------------------------------------------------
//
// The journaling seam must be invisible: a deployment whose broker and
// witnesses run behind LogStores produces byte-identical snapshot_state()
// bytes to a plain deployment driven by the same seed and script — and a
// service recovered from its log reproduces those bytes exactly.

namespace p2pcash::ecash {
namespace {

struct ScriptResult {
  std::vector<std::uint8_t> broker_snapshot;
  std::vector<std::vector<std::uint8_t>> witness_snapshots;
};

/// The deterministic script: withdrawals, payments, a double spend, a
/// deposit wave and an exchange — every journaled record kind fires.
ScriptResult run_script(Deployment& dep) {
  auto wallet = dep.make_wallet();
  std::vector<WalletCoin> coins;
  for (int i = 0; i < 4; ++i) {
    auto coin = dep.withdraw(*wallet, 100, 1000);
    EXPECT_TRUE(coin.ok());
    coins.push_back(std::move(coin).value());
  }
  auto ids = dep.merchant_ids();
  EXPECT_TRUE(dep.pay(*wallet, coins[0], ids[0], 2000).accepted);
  EXPECT_TRUE(dep.pay(*wallet, coins[1], ids[1], 2100).accepted);
  // Double spend: the witness answers with a proof, not an endorsement.
  EXPECT_FALSE(dep.pay(*wallet, coins[0], ids[2], 2200).accepted);
  dep.deposit_all(ids[0], 3000);
  dep.deposit_all(ids[1], 3000);
  auto change = dep.exchange(*wallet, coins[2], {60, 40}, 4000);
  EXPECT_TRUE(change.ok());

  ScriptResult result;
  result.broker_snapshot = dep.broker().snapshot_state();
  for (const auto& id : dep.merchant_ids())
    result.witness_snapshots.push_back(dep.node(id).witness->snapshot_state());
  return result;
}

TEST(StoreGolden, LogStoreRecoveryReproducesTheExactSnapshotBytes) {
  const auto& grp = group::SchnorrGroup::test_256();
  store::MemVfs vfs;
  Deployment plain(grp, 8, /*seed=*/77);
  Deployment backed(grp, 8, /*seed=*/77, {}, 10'000, &vfs);
  const auto ids = backed.merchant_ids();

  // Journaling is invisible: every service ends in the unjournaled bytes.
  auto want = run_script(plain);
  auto got = run_script(backed);
  EXPECT_EQ(got.broker_snapshot, want.broker_snapshot);
  ASSERT_EQ(got.witness_snapshots.size(), want.witness_snapshots.size());
  for (std::size_t i = 0; i < want.witness_snapshots.size(); ++i)
    EXPECT_EQ(got.witness_snapshots[i], want.witness_snapshots[i]) << ids[i];

  // Recover a fresh broker from the log alone: same bytes again.
  crypto::ChaChaRng rng("recovery");
  store::LogStore reopened(vfs, Deployment::kBrokerLog);
  Broker recovered(grp, rng);
  recovered.attach_store(reopened);
  EXPECT_EQ(recovered.snapshot_state(), want.broker_snapshot);

  // Likewise every witness, recovered from its own log.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    store::LogStore witness_log(vfs, Deployment::witness_log_name(ids[i]));
    EXPECT_GT(witness_log.stats().recovered_records, 0u) << ids[i];
    WitnessService witness(grp, backed.broker().coin_key(), ids[i],
                           sig::KeyPair::generate(grp, rng), rng);
    witness.attach_store(witness_log);
    EXPECT_EQ(witness.snapshot_state(), want.witness_snapshots[i]) << ids[i];
  }

  // Compaction preserves the state and shrinks the log.
  auto before = reopened.size_bytes();
  recovered.checkpoint_store();
  EXPECT_LE(reopened.size_bytes(), before);
  EXPECT_EQ(recovered.snapshot_state(), want.broker_snapshot);
}

}  // namespace
}  // namespace p2pcash::ecash
