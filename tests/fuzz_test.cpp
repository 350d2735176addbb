// Robustness fuzzing: randomly corrupted wire bytes must never crash a
// decoder, and corrupted protocol objects must never verify.  A payment
// system's parsers face adversarial input by definition.

#include <gtest/gtest.h>

#include "crypto/chacha.h"
#include "ecash_fixture.h"
#include "store/log_store.h"
#include "store/vfs.h"
#include "wire/framing.h"
#include "wire/uri_form.h"

namespace p2pcash::ecash {
namespace {

using testing::EcashTest;

class FuzzFixture : public EcashTest {
 protected:
  crypto::ChaChaRng fuzz_rng_{"fuzz"};

  std::vector<std::uint8_t> flip_bits(std::vector<std::uint8_t> data,
                                      int flips) {
    for (int i = 0; i < flips && !data.empty(); ++i) {
      std::size_t pos = fuzz_rng_.next_u64() % data.size();
      data[pos] ^= static_cast<std::uint8_t>(1u << (fuzz_rng_.next_u64() % 8));
    }
    return data;
  }

  /// Decode under fuzz: success or DecodeError are both fine; anything
  /// else (segfault, uncaught logic error) fails the test by crashing.
  template <typename T>
  std::optional<T> try_decode(const std::vector<std::uint8_t>& bytes) {
    try {
      return wire::decode<T>(bytes);
    } catch (const wire::DecodeError&) {
      return std::nullopt;
    }
  }
};

TEST_F(FuzzFixture, CorruptedCoinsNeverVerify) {
  auto wc = withdraw();
  auto genuine = wire::encode(wc.coin);
  int decoded_ok = 0, verified = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = flip_bits(genuine, 1 + static_cast<int>(trial % 4));
    if (mutated == genuine) continue;
    auto coin = try_decode<Coin>(mutated);
    if (!coin) continue;
    ++decoded_ok;
    if (verify_coin(dep_.grp(), dep_.broker().coin_key(), *coin, 2000).ok())
      ++verified;
  }
  // Bit flips that survive decoding must still die in verification: a flip
  // anywhere (signature, info, commitments, ranges) breaks something.
  EXPECT_EQ(verified, 0);
  EXPECT_GT(decoded_ok, 0);  // the harness actually exercised verify paths
}

TEST_F(FuzzFixture, CorruptedTranscriptsNeverVerify) {
  auto wc = withdraw();
  auto merchant = non_witness_merchant(wc);
  auto intent = wallet_->prepare_payment(wc, merchant);
  auto& witness = *dep_.node(wc.coin.witnesses[0].merchant).witness;
  auto commitment =
      witness.request_commitment(intent.coin_hash, intent.nonce, 2000);
  ASSERT_TRUE(commitment.ok());
  auto transcript =
      wallet_->build_transcript(wc, intent, {commitment.value()}, 2100);
  ASSERT_TRUE(transcript.ok());
  auto genuine = wire::encode(transcript.value());

  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = flip_bits(genuine, 1 + static_cast<int>(trial % 3));
    if (mutated == genuine) continue;
    auto t = try_decode<PaymentTranscript>(mutated);
    if (!t) continue;
    // Either the coin or the NIZK must fail — UNLESS the flip landed in
    // the salt, which these two checks deliberately do not cover (the salt
    // is enforced by the witness/merchant nonce binding instead).
    bool coin_ok =
        verify_coin(dep_.grp(), dep_.broker().coin_key(), t->coin, 2000).ok();
    bool proof_ok = verify_transcript_proof(dep_.grp(), *t);
    if (coin_ok && proof_ok) {
      EXPECT_EQ(t->coin, transcript.value().coin) << "trial " << trial;
      EXPECT_EQ(t->resp, transcript.value().resp) << "trial " << trial;
      EXPECT_EQ(t->merchant, transcript.value().merchant);
      EXPECT_EQ(t->datetime, transcript.value().datetime);
      EXPECT_NE(t->salt, transcript.value().salt) << "trial " << trial;
      // And the nonce binding does catch it:
      EXPECT_NE(payment_nonce(t->salt, t->merchant),
                payment_nonce(transcript.value().salt,
                              transcript.value().merchant));
    }
  }
}

TEST_F(FuzzFixture, TruncatedStructuresThrowCleanly) {
  auto wc = withdraw();
  auto merchant = non_witness_merchant(wc);
  ASSERT_TRUE(dep_.pay(*wallet_, wc, merchant, 2000).accepted);
  auto queue = dep_.node(merchant).merchant->drain_deposit_queue();
  ASSERT_EQ(queue.size(), 1u);

  auto coin_bytes = wire::encode(wc.coin);
  auto st_bytes = wire::encode(queue[0]);
  for (std::size_t cut = 0; cut < coin_bytes.size(); cut += 3) {
    std::vector<std::uint8_t> prefix(coin_bytes.begin(),
                                     coin_bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_decode<Coin>(prefix).has_value()) << cut;
  }
  for (std::size_t cut = 0; cut < st_bytes.size(); cut += 7) {
    std::vector<std::uint8_t> prefix(st_bytes.begin(),
                                     st_bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_decode<SignedTranscript>(prefix).has_value()) << cut;
  }
}

TEST_F(FuzzFixture, RandomGarbageNeverDecodesToValidCoin) {
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> garbage(50 + fuzz_rng_.next_u64() % 500);
    fuzz_rng_.fill(garbage);
    auto coin = try_decode<Coin>(garbage);
    if (coin) {
      EXPECT_FALSE(
          verify_coin(dep_.grp(), dep_.broker().coin_key(), *coin, 2000)
              .ok());
    }
  }
}

TEST_F(FuzzFixture, FuzzedDepositsAreRefusedNotFatal) {
  // The broker must survive arbitrary garbage deposits.
  auto wc = withdraw();
  auto merchant = non_witness_merchant(wc);
  ASSERT_TRUE(dep_.pay(*wallet_, wc, merchant, 2000).accepted);
  auto queue = dep_.node(merchant).merchant->drain_deposit_queue();
  auto genuine = wire::encode(queue[0]);
  int refused = 0;
  for (int trial = 0; trial < 150; ++trial) {
    auto mutated = flip_bits(genuine, 1 + static_cast<int>(trial % 5));
    if (mutated == genuine) continue;
    auto st = try_decode<SignedTranscript>(mutated);
    if (!st) continue;
    auto receipt = dep_.broker().deposit(merchant, *st, 3000);
    if (!receipt.ok()) ++refused;
    // At most ONE mutation could be accepted — a flip confined to ignored
    // trailing... actually none: every byte is load-bearing.
    EXPECT_FALSE(receipt.ok()) << "trial " << trial;
  }
  EXPECT_GT(refused, 0);
  // The genuine deposit still clears after the bombardment.
  EXPECT_TRUE(dep_.broker().deposit(merchant, queue[0], 4000).ok());
}

TEST_F(FuzzFixture, AdversarialLengthPrefixCorpusNeverOverReads) {
  // Hand-built corpus of hostile length prefixes: values that would wrap
  // a naive `pos + n` bounds check, maximal u32 lengths, lengths one past
  // the end, and nested length fields inside otherwise-plausible buffers.
  // Reader::need compares against remaining bytes, so every case must
  // throw DecodeError (or decode cleanly) — never over-read.
  const std::vector<std::vector<std::uint8_t>> corpus = {
      {0xff, 0xff, 0xff, 0xff},                          // SIZE_MAX-ish len, no payload
      {0xff, 0xff, 0xff, 0xff, 0xaa},                    // ... with 1 stray byte
      {0xff, 0xff, 0xff, 0xfc},                          // wraps pos+n at pos=4
      {0x80, 0x00, 0x00, 0x00, 0x01, 0x02},              // 2^31 payload claim
      {0x00, 0x00, 0x00, 0x05, 0x01, 0x02, 0x03, 0x04},  // one byte short
      {0x00, 0x00, 0x00, 0x00},                          // empty payload (valid)
      {0x00, 0x00, 0x00, 0x02, 0x00, 0x00,               // valid outer...
       0xff, 0xff, 0xff, 0xf0},                          // ...hostile inner
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto& bytes = corpus[i];
    // Raw Reader primitives.
    for (int mode = 0; mode < 3; ++mode) {
      wire::Reader r(bytes);
      try {
        if (mode == 0) (void)r.get_bytes();
        if (mode == 1) (void)r.get_string();
        if (mode == 2) (void)r.get_bigint();
        EXPECT_LE(r.remaining(), bytes.size()) << "corpus " << i;
      } catch (const wire::DecodeError&) {
        // expected for the hostile entries
      }
    }
    // Typed decoders built on Reader.
    EXPECT_FALSE(try_decode<Coin>(bytes).has_value()) << "corpus " << i;
    EXPECT_FALSE(try_decode<SignedTranscript>(bytes).has_value())
        << "corpus " << i;
  }
  // The same prefixes injected mid-stream: splice each corpus entry into a
  // genuine coin encoding at a few offsets and require decode-or-throw.
  auto wc = withdraw();
  auto genuine = wire::encode(wc.coin);
  for (const auto& evil : corpus) {
    for (std::size_t off = 0; off < genuine.size(); off += 97) {
      std::vector<std::uint8_t> spliced(genuine.begin(),
                                        genuine.begin() + static_cast<std::ptrdiff_t>(off));
      spliced.insert(spliced.end(), evil.begin(), evil.end());
      (void)try_decode<Coin>(spliced);  // must not crash or over-read
    }
  }
}

TEST_F(FuzzFixture, FramingSurvivesAdversarialStreams) {
  // The TCP transport's frame decoder faces a raw socket: truncation,
  // hostile length prefixes, and garbage interleaved with real frames.
  // Every input must end in parsed frames or DecodeError — never a crash,
  // an over-read, or an unbounded allocation.
  constexpr std::size_t kMax = 4096;

  // 1. Truncated frames: every prefix of a multi-frame stream either
  //    yields the complete leading frames or waits for more bytes.
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, std::vector<std::uint8_t>(10, 0x11), kMax);
  wire::append_frame(stream, std::vector<std::uint8_t>(200, 0x22), kMax);
  wire::append_frame(stream, std::vector<std::uint8_t>{}, kMax);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    wire::FrameDecoder dec(kMax);
    dec.feed(std::span<const std::uint8_t>(stream.data(), cut));
    std::size_t frames = 0;
    while (dec.next()) ++frames;
    EXPECT_LE(frames, 3u) << "cut=" << cut;
    EXPECT_LE(dec.buffered(), cut) << "cut=" << cut;
  }

  // 2. Oversized length prefixes: any header whose payload length (after
  //    masking the trace-envelope flag bit) is above kMax poisons the
  //    decoder immediately, before payload bytes are buffered.
  const std::vector<std::vector<std::uint8_t>> hostile_headers = {
      {0xff, 0xff, 0xff, 0xff},  // traced flag + ~2 GiB claim
      {0x7f, 0xff, 0xff, 0xff},  // untraced ~2 GiB claim
      {0x00, 0x00, 0x10, 0x01},  // kMax + 1
      {0x80, 0x00, 0x10, 0x01},  // traced flag + kMax + 1
  };
  for (std::size_t i = 0; i < hostile_headers.size(); ++i) {
    wire::FrameDecoder dec(kMax);
    EXPECT_THROW(dec.feed(hostile_headers[i]), wire::DecodeError) << i;
    EXPECT_EQ(dec.buffered(), 0u) << i;  // nothing hoarded for the attacker
    EXPECT_THROW(dec.feed(std::vector<std::uint8_t>{0, 0, 0, 0}),
                 wire::DecodeError)
        << "poisoned decoder must stay poisoned, corpus " << i;
  }

  // 3. Garbage interleaved after valid frames: the stream desynchronizes
  //    into either bogus-but-bounded frames or a DecodeError; the frames
  //    parsed before the garbage are intact either way.
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> mixed;
    std::vector<std::uint8_t> payload(1 + fuzz_rng_.next_u64() % 64);
    fuzz_rng_.fill(payload);
    wire::append_frame(mixed, payload, kMax);
    std::vector<std::uint8_t> garbage(fuzz_rng_.next_u64() % 40);
    fuzz_rng_.fill(garbage);
    mixed.insert(mixed.end(), garbage.begin(), garbage.end());
    wire::FrameDecoder dec(kMax);
    try {
      dec.feed(mixed);
      auto first = dec.next();
      ASSERT_TRUE(first.has_value()) << "trial " << trial;
      EXPECT_EQ(*first, payload) << "trial " << trial;
      while (auto f = dec.next()) EXPECT_LE(f->size(), kMax);
    } catch (const wire::DecodeError&) {
      // garbage read as an oversized header — correct rejection
    }
  }

  // 4. Random re-chunking: any fragmentation of a valid stream reassembles
  //    to the identical frame sequence.
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> wire_bytes;
  for (int i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> p(fuzz_rng_.next_u64() % 300);
    fuzz_rng_.fill(p);
    sent.push_back(p);
    wire::append_frame(wire_bytes, p, kMax);
  }
  for (int trial = 0; trial < 30; ++trial) {
    wire::FrameDecoder dec(kMax);
    std::vector<std::vector<std::uint8_t>> got;
    std::size_t pos = 0;
    while (pos < wire_bytes.size()) {
      std::size_t chunk = 1 + fuzz_rng_.next_u64() %
                                  std::min<std::size_t>(
                                      97, wire_bytes.size() - pos);
      dec.feed(std::span<const std::uint8_t>(wire_bytes.data() + pos, chunk));
      pos += chunk;
      while (auto f = dec.next()) got.push_back(*f);
    }
    ASSERT_EQ(got.size(), sent.size()) << "trial " << trial;
    EXPECT_EQ(got, sent) << "trial " << trial;
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST_F(FuzzFixture, HostileLogCorpusRecoversOrTruncatesNeverCrashes) {
  // Hostile on-disk logs for the durable store (store/log_store.h):
  // mid-record truncation, flipped bytes, duplicated tails, garbage tails
  // and oversized length prefixes.  Recovery must truncate to the last
  // valid record — never crash, never hand back a record that was not
  // genuinely written (CRC-validated), and reopening the recovered file
  // must be a no-op.
  const std::vector<std::uint8_t> snapshot_body = {0xAA, 0xBB, 0xCC};
  std::vector<std::vector<std::uint8_t>> delta_bodies;
  std::vector<std::uint8_t> genuine;
  {
    auto cp = store::LogStore::frame_record(store::kRecordCheckpoint,
                                            snapshot_body);
    genuine.insert(genuine.end(), cp.begin(), cp.end());
    for (int i = 0; i < 6; ++i) {
      std::vector<std::uint8_t> body(3 + i * 7);
      fuzz_rng_.fill(body);
      delta_bodies.push_back(body);
      auto rec = store::LogStore::frame_record(store::kRecordDelta, body);
      genuine.insert(genuine.end(), rec.begin(), rec.end());
    }
  }

  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = genuine;
    switch (trial % 5) {
      case 0:  // mid-record truncation
        bytes.resize(fuzz_rng_.next_u64() % (bytes.size() + 1));
        break;
      case 1:  // flipped bits anywhere
        bytes = flip_bits(std::move(bytes), 1 + static_cast<int>(trial % 4));
        break;
      case 2: {  // duplicated tail (usually lands mid-frame)
        std::size_t k = 1 + fuzz_rng_.next_u64() % bytes.size();
        bytes.insert(bytes.end(), bytes.end() - static_cast<std::ptrdiff_t>(k),
                     bytes.end());
        break;
      }
      case 3: {  // garbage tail
        std::vector<std::uint8_t> junk(1 + fuzz_rng_.next_u64() % 64);
        fuzz_rng_.fill(junk);
        bytes.insert(bytes.end(), junk.begin(), junk.end());
        break;
      }
      case 4:  // oversized length prefix claims gigabytes
        bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xfe, 0x12, 0x34, 0x56,
                                   0x78, 0x00});
        break;
    }

    store::MemVfs vfs;
    vfs.set_contents("log", bytes);
    store::LogStore log(vfs, "log");  // must not throw on any corpus entry
    auto rec = log.recover();
    // Nothing forged: the snapshot is the genuine one or nothing, and every
    // recovered delta is byte-identical to a genuinely written body (a CRC
    // collision on corrupted bytes is the only escape — 2^-32 per trial).
    if (!rec.snapshot.empty()) {
      EXPECT_EQ(rec.snapshot, snapshot_body) << "trial " << trial;
    }
    for (const auto& d : rec.deltas) {
      bool genuine_body = false;
      for (const auto& b : delta_bodies) genuine_body |= (d == b);
      EXPECT_TRUE(genuine_body) << "trial " << trial;
    }
    // The file was truncated to exactly the surviving records: a second
    // open finds a fully valid log and chops nothing.
    store::LogStore reopened(vfs, "log");
    EXPECT_EQ(reopened.stats().truncated_bytes, 0u) << "trial " << trial;
    auto rec2 = reopened.recover();
    EXPECT_EQ(rec2.snapshot, rec.snapshot) << "trial " << trial;
    EXPECT_EQ(rec2.deltas, rec.deltas) << "trial " << trial;
  }
}

TEST_F(FuzzFixture, MutatedSnapshotsRestoreOrThrowWithoutSideEffects) {
  // Genuine checkpoints from a small run with every record kind the
  // services journal (deposit, witness fault, double-spend proof, transfer
  // chain), then seeded byte flips, truncations and insertions.  Each
  // input restores or throws DecodeError; a throw changes nothing.
  std::vector<WalletCoin> coins;
  for (int i = 0; i < 4; ++i) coins.push_back(withdraw(100));
  const auto ids = dep_.merchant_ids();
  auto payee = [&](const WalletCoin& c, std::size_t skip) {
    std::vector<MerchantId> out;
    for (const auto& id : ids) {
      bool is_witness = false;
      for (const auto& e : c.coin.witnesses) is_witness |= e.merchant == id;
      if (!is_witness) out.push_back(id);
    }
    return out.at(skip);
  };
  // coin 0: paid, deposited, then double-spent (the witness keeps a proof).
  ASSERT_TRUE(dep_.pay(*wallet_, coins[0], payee(coins[0], 0), 2000).accepted);
  dep_.deposit_all(payee(coins[0], 0), 2500);
  EXPECT_FALSE(
      dep_.pay(*wallet_, coins[0], payee(coins[0], 1), 60'000).accepted);
  // coin 1: a faulty witness signs twice; the second deposit convicts it.
  const auto faulty = coins[1].coin.witnesses[0].merchant;
  dep_.node(faulty).witness->set_faulty(true);
  ASSERT_TRUE(dep_.pay(*wallet_, coins[1], payee(coins[1], 0), 3000).accepted);
  ASSERT_TRUE(dep_.pay(*wallet_, coins[1], payee(coins[1], 1), 3100).accepted);
  dep_.node(faulty).witness->set_faulty(false);
  dep_.deposit_all(payee(coins[1], 0), 4000);
  dep_.deposit_all(payee(coins[1], 1), 4000);
  ASSERT_EQ(dep_.broker().witness_faults().size(), 1u);
  // coin 2: transferred (its slot-0 witness records a chain).
  auto recipient = dep_.make_wallet();
  ASSERT_TRUE(
      dep_.transfer(*wallet_, coins[2], *recipient, 5000).received.has_value());

  WitnessService* witness = nullptr;
  std::size_t largest = 0;
  for (const auto& id : ids) {
    auto bytes = dep_.node(id).witness->snapshot_state();
    if (bytes.size() > largest) {
      largest = bytes.size();
      witness = dep_.node(id).witness.get();
    }
  }
  ASSERT_NE(witness, nullptr);

  auto mutate = [&](std::vector<std::uint8_t> bytes, int trial) {
    switch (trial % 3) {
      case 0:  // byte flips
        for (int i = 0; i <= trial % 4; ++i)
          bytes[fuzz_rng_.next_u64() % bytes.size()] ^=
              static_cast<std::uint8_t>(1 + fuzz_rng_.next_u64() % 255);
        break;
      case 1:  // truncation
        bytes.resize(fuzz_rng_.next_u64() % bytes.size());
        break;
      case 2: {  // insertion of 1..8 random bytes
        std::vector<std::uint8_t> junk(1 + fuzz_rng_.next_u64() % 8);
        fuzz_rng_.fill(junk);
        auto at = static_cast<std::ptrdiff_t>(fuzz_rng_.next_u64() %
                                              (bytes.size() + 1));
        bytes.insert(bytes.begin() + at, junk.begin(), junk.end());
        break;
      }
    }
    return bytes;
  };
  auto hammer = [&](auto& service, const char* what) {
    const auto genuine = service.snapshot_state();
    int restored = 0, rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
      const auto bytes = mutate(genuine, trial);
      const auto before = service.snapshot_state();
      try {
        service.restore_state(bytes);
        ++restored;
      } catch (const wire::DecodeError&) {
        ++rejected;
        EXPECT_EQ(service.snapshot_state(), before)
            << what << " trial " << trial;
      }
    }
    EXPECT_GT(rejected, 0) << what;
    // The genuine checkpoint still restores exactly afterwards.
    service.restore_state(genuine);
    EXPECT_EQ(service.snapshot_state(), genuine) << what;
  };
  hammer(dep_.broker(), "broker");
  hammer(*witness, "witness");
}

TEST_F(FuzzFixture, FuzzedUriFormsParseOrThrow) {
  crypto::ChaChaRng rng("uri-fuzz");
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> raw(1 + rng.next_u64() % 120);
    rng.fill(raw);
    std::string s(raw.begin(), raw.end());
    try {
      auto form = wire::UriForm::parse(s);
      (void)form.render();
    } catch (const wire::DecodeError&) {
      // fine
    }
  }
}

}  // namespace
}  // namespace p2pcash::ecash
