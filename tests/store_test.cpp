// Durable coin-state store: CRC framing, torn-tail recovery, group commit,
// compaction, the immutable table-file format, and the golden guarantee
// that store-backed services produce byte-identical snapshots to plain ones.

#include <gtest/gtest.h>

#include <thread>

#include "crypto/chacha.h"
#include "ecash/deployment.h"
#include "obs/metrics_registry.h"
#include "store/crc32c.h"
#include "store/log_store.h"
#include "store/store.h"
#include "store/table_file.h"
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

// ---- PosixVfs + mmap ------------------------------------------------------

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

// ---- table file -----------------------------------------------------------

TableKey key_of(std::uint64_t v) {
  TableKey k{};
  for (int i = 0; i < 8; ++i)
    k[kTableKeyBytes - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  return k;
}

TEST(TableFile, BuildsSortsAndSearches) {
  TableFileBuilder builder(7, 12345);
  builder.add(key_of(300), bytes_of("r300"));
  builder.add(key_of(100), bytes_of("r100"));
  builder.add(key_of(200), bytes_of("r200"));
  auto bytes = builder.build();

  TableFileView view(bytes);
  EXPECT_EQ(view.version(), 7u);
  EXPECT_EQ(view.published_at(), 12345);
  ASSERT_EQ(view.entry_count(), 3u);
  EXPECT_EQ(view.key(0), key_of(100));  // sorted on build
  auto p = view.payload(1);
  EXPECT_EQ(std::vector<std::uint8_t>(p.begin(), p.end()), bytes_of("r200"));

  EXPECT_FALSE(view.predecessor(key_of(99)).has_value());
  EXPECT_EQ(view.predecessor(key_of(100)), 0u);
  EXPECT_EQ(view.predecessor(key_of(250)), 1u);
  EXPECT_EQ(view.predecessor(key_of(5000)), 2u);
}

TEST(TableFile, RejectsDuplicateKeysAndCorruptBytes) {
  TableFileBuilder builder(1, 0);
  builder.add(key_of(1), bytes_of("a"));
  builder.add(key_of(1), bytes_of("b"));
  EXPECT_THROW((void)builder.build(), std::invalid_argument);

  TableFileBuilder ok(1, 0);
  ok.add(key_of(1), bytes_of("a"));
  auto bytes = ok.build();
  // Flip any byte: the trailing CRC (or a structural check) must reject.
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    auto bad = bytes;
    bad[i] ^= 0x01;
    EXPECT_THROW(TableFileView{bad}, std::runtime_error) << "byte " << i;
  }
  // Truncations are rejected too.
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{23}}) {
    std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_THROW(TableFileView{prefix}, std::runtime_error) << "cut " << cut;
  }
}

TEST(TableFile, MmapViewMatchesInMemoryView) {
  TableFileBuilder builder(3, 99);
  for (std::uint64_t k = 0; k < 50; ++k)
    builder.add(key_of(k * 10), bytes_of("payload-" + std::to_string(k)));
  auto bytes = builder.build();

  PosixVfs vfs(::testing::TempDir() + "p2pcash_store_test");
  if (vfs.exists("table.p2ptbl")) vfs.remove("table.p2ptbl");
  vfs.open("table.p2ptbl")->append(bytes);
  MappedTableFile mapped(vfs.dir() + "/table.p2ptbl");
  const TableFileView& view = mapped.view();
  TableFileView mem(bytes);
  ASSERT_EQ(view.entry_count(), mem.entry_count());
  for (std::uint32_t i = 0; i < view.entry_count(); ++i) {
    EXPECT_EQ(view.key(i), mem.key(i));
    auto a = view.payload(i);
    auto b = mem.payload(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  vfs.remove("table.p2ptbl");
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
  Deployment plain(grp, 8, /*seed=*/77);
  Deployment backed(grp, 8, /*seed=*/77);

  store::MemVfs vfs;
  store::LogStore broker_store(vfs, "broker.log");
  backed.broker().attach_store(broker_store);
  const auto ids = backed.merchant_ids();
  std::vector<std::unique_ptr<store::LogStore>> witness_stores;
  for (const auto& id : ids) {
    witness_stores.push_back(
        std::make_unique<store::LogStore>(vfs, "witness-" + id + ".log"));
    backed.node(id).witness->attach_store(*witness_stores.back());
  }

  // Journaling is invisible: every service ends in the unjournaled bytes.
  auto want = run_script(plain);
  auto got = run_script(backed);
  EXPECT_EQ(got.broker_snapshot, want.broker_snapshot);
  ASSERT_EQ(got.witness_snapshots.size(), want.witness_snapshots.size());
  for (std::size_t i = 0; i < want.witness_snapshots.size(); ++i)
    EXPECT_EQ(got.witness_snapshots[i], want.witness_snapshots[i]) << ids[i];

  // Recover a fresh broker from the log alone: same bytes again.
  crypto::ChaChaRng rng("recovery");
  store::LogStore reopened(vfs, "broker.log");
  Broker recovered(grp, rng);
  recovered.attach_store(reopened);
  EXPECT_EQ(recovered.snapshot_state(), want.broker_snapshot);

  // Likewise every witness, recovered from its own log.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    store::LogStore witness_log(vfs, "witness-" + ids[i] + ".log");
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

TEST(StoreGolden, ExportedTableFileResolvesEveryLookupIdentically) {
  const auto& grp = group::SchnorrGroup::test_256();
  Deployment dep(grp, 8, /*seed=*/99);
  auto bytes = dep.broker().export_table_file(1);
  store::TableFileView view(bytes);
  const WitnessTable& table = dep.broker().current_table();
  ASSERT_EQ(view.entry_count(), table.entries().size());

  crypto::ChaChaRng rng("table-points");
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> raw(kRangeBits / 8);
    rng.fill(raw);
    auto point = bn::BigInt::from_bytes_be(raw);
    auto via_file = WitnessTable::lookup_table_file(view, point);
    auto via_table = table.lookup(point);
    ASSERT_EQ(via_file.has_value(), via_table.has_value()) << i;
    if (via_file) {
      EXPECT_EQ(*via_file, *via_table) << i;
    }
  }
  // Range boundaries resolve identically too (the off-by-one hot spots).
  for (const auto& e : table.entries()) {
    auto at_lo = WitnessTable::lookup_table_file(view, e.lo);
    ASSERT_TRUE(at_lo.has_value());
    EXPECT_EQ(at_lo->merchant, e.merchant);
    auto below_hi = WitnessTable::lookup_table_file(view, e.hi - bn::BigInt{1});
    ASSERT_TRUE(below_hi.has_value());
    EXPECT_EQ(below_hi->merchant, e.merchant);
  }
  EXPECT_THROW((void)dep.broker().export_table_file(42),
               std::invalid_argument);
}

}  // namespace
}  // namespace p2pcash::ecash
