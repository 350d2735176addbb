// Fixed-base / multi-exponentiation fast paths: agreement with the plain
// Montgomery ladder, edge cases, and Table 1 op-count invariance.
//
// The fast paths (fixed-base windowing for g/g1/g2 and promoted recurring
// bases, Straus interleaving for everything else) are pure optimizations:
// every test here asserts that enabling them changes neither results nor
// metrics, only wall-clock.

#include "bn/multi_exp.h"

#include <gtest/gtest.h>

#include "blindsig/abe_okamoto.h"
#include "crypto/chacha.h"
#include "group/schnorr_group.h"
#include "metrics/counters.h"
#include "nizk/representation.h"
#include "sig/schnorr_sig.h"
#include "wire/codec.h"

namespace p2pcash {
namespace {

using bn::BigInt;
using group::SchnorrGroup;
using group::ScopedDisableFastExp;

std::vector<const SchnorrGroup*> all_groups() {
  return {&SchnorrGroup::test_256(), &SchnorrGroup::test_512(),
          &SchnorrGroup::production_1024()};
}

TEST(MultiExp, FastExpAgreesWithPlainLadderOn500RandomDraws) {
  // 500 (base, exponent) draws across the three embedded groups.  The
  // bases are arbitrary residues (not necessarily subgroup elements), the
  // exponents deliberately overshoot |q| so reduction is exercised too.
  crypto::ChaChaRng rng("multi-exp/agreement");
  std::size_t draws_total = 0;
  for (const SchnorrGroup* grp : all_groups()) {
    for (int i = 0; i < 500 / 3 + 1; ++i) {
      BigInt base = bn::random_below(rng, grp->p() - BigInt{1}) + BigInt{1};
      BigInt e = bn::random_bits(rng, 8 + (static_cast<std::size_t>(i) % 192));
      BigInt fast = grp->exp(base, e);
      BigInt plain;
      {
        ScopedDisableFastExp off;
        plain = grp->exp(base, e);
      }
      ASSERT_EQ(fast, plain) << "group |p|=" << grp->p().bit_length()
                             << " draw " << i;
      ++draws_total;
    }
  }
  EXPECT_GE(draws_total, 500u);
}

TEST(MultiExp, GeneratorFixedBasePathsAgreeWithPlain) {
  crypto::ChaChaRng rng("multi-exp/generators");
  for (const SchnorrGroup* grp : all_groups()) {
    for (const BigInt* base : {&grp->g(), &grp->g1(), &grp->g2()}) {
      BigInt e = grp->random_scalar(rng);
      BigInt fast = grp->exp(*base, e);
      ScopedDisableFastExp off;
      EXPECT_EQ(fast, grp->exp(*base, e));
    }
  }
}

TEST(MultiExp, RecurringBaseGetsPromotedAndStaysCorrect) {
  // A non-generator base seen repeatedly is promoted to a fixed-base table
  // after a few sightings; the answer must be identical before, at, and
  // after the promotion threshold.
  const SchnorrGroup& grp = SchnorrGroup::test_256();
  crypto::ChaChaRng rng("multi-exp/promotion");
  BigInt base = grp.exp_g(grp.random_scalar(rng));  // stable recurring base
  for (int i = 0; i < 10; ++i) {
    BigInt e = grp.random_scalar(rng);
    BigInt fast = grp.exp(base, e);
    ScopedDisableFastExp off;
    ASSERT_EQ(fast, grp.exp(base, e)) << "sighting " << i;
  }
}

TEST(MultiExp, Exp2AgreesWithSeparateExps) {
  crypto::ChaChaRng rng("multi-exp/exp2");
  for (const SchnorrGroup* grp : all_groups()) {
    for (int i = 0; i < 20; ++i) {
      // Mix of fixed (generator) and loose (random) bases.
      BigInt loose = bn::random_below(rng, grp->p() - BigInt{1}) + BigInt{1};
      BigInt e1 = grp->random_scalar(rng);
      BigInt e2 = grp->random_scalar(rng);
      BigInt fused = grp->exp2(grp->g1(), e1, loose, e2);
      ScopedDisableFastExp off;
      EXPECT_EQ(fused, grp->mul(grp->exp(grp->g1(), e1), grp->exp(loose, e2)));
    }
  }
}

TEST(MultiExp, MultiExpAgreesWithProductOfExps) {
  crypto::ChaChaRng rng("multi-exp/straus");
  const SchnorrGroup& grp = SchnorrGroup::test_512();
  for (std::size_t k = 1; k <= 5; ++k) {
    std::vector<BigInt> bases, exps;
    for (std::size_t i = 0; i < k; ++i) {
      bases.push_back(bn::random_below(rng, grp.p() - BigInt{1}) + BigInt{1});
      exps.push_back(grp.random_scalar(rng));
    }
    BigInt fused = grp.multi_exp(bases, exps);
    ScopedDisableFastExp off;
    BigInt expected{1};
    for (std::size_t i = 0; i < k; ++i)
      expected = grp.mul(expected, grp.exp(bases[i], exps[i]));
    EXPECT_EQ(fused, expected) << "k=" << k;
  }
}

TEST(MultiExp, EdgeCaseExponentsAndBases) {
  const SchnorrGroup& grp = SchnorrGroup::test_256();
  crypto::ChaChaRng rng("multi-exp/edges");
  BigInt base = bn::random_below(rng, grp.p() - BigInt{1}) + BigInt{1};
  // e = 0 -> 1, for fixed and loose bases alike.
  EXPECT_EQ(grp.exp(grp.g(), BigInt{0}), BigInt{1});
  EXPECT_EQ(grp.exp(base, BigInt{0}), BigInt{1});
  // e = 1 -> base (bases below p are already reduced).
  EXPECT_EQ(grp.exp(grp.g(), BigInt{1}), grp.g());
  EXPECT_EQ(grp.exp(base, BigInt{1}), base);
  // e = q reduces to 0 in the exponent group.
  EXPECT_EQ(grp.exp(grp.g(), grp.q()), BigInt{1});
  // e = q - 1 = -1: g^(q-1) * g = 1.
  BigInt qm1 = grp.exp(grp.g(), grp.q() - BigInt{1});
  EXPECT_EQ(grp.mul(qm1, grp.g()), BigInt{1});
  // Negative exponents reduce mod q: e and e + q agree.
  BigInt e = grp.random_scalar(rng);
  EXPECT_EQ(grp.exp(grp.g(), e - grp.q()), grp.exp(grp.g(), e));
  // base = 1 -> 1 under every exponent.
  EXPECT_EQ(grp.exp(BigInt{1}, e), BigInt{1});
  // exp2 with both exponents zero.
  EXPECT_EQ(grp.exp2(grp.g1(), BigInt{0}, grp.g2(), BigInt{0}), BigInt{1});
  // multi_exp size mismatch throws.
  std::vector<BigInt> two{grp.g(), grp.g1()}, one{e};
  EXPECT_THROW((void)grp.multi_exp(two, one), std::invalid_argument);
}

TEST(MultiExp, MontgomeryLayerFallsBackWhenTableTooSmall) {
  // exp_fixed must detect an exponent wider than the table and fall back
  // to the plain ladder instead of reading out of bounds.
  const SchnorrGroup& grp = SchnorrGroup::test_256();
  bn::MontgomeryCtx ctx(grp.p());
  crypto::ChaChaRng rng("multi-exp/fallback");
  BigInt base = bn::random_below(rng, grp.p() - BigInt{1}) + BigInt{1};
  bn::FixedBaseTable small = ctx.precompute_base(base, 32, 4);
  BigInt wide = bn::random_bits(rng, 200);
  EXPECT_FALSE(small.covers(wide.bit_length()));
  EXPECT_EQ(ctx.exp_fixed(small, wide), ctx.exp(base, wide));
  BigInt narrow = bn::random_bits(rng, 31);
  EXPECT_TRUE(small.covers(narrow.bit_length()));
  EXPECT_EQ(ctx.exp_fixed(small, narrow), ctx.exp(base, narrow));
}

TEST(MultiExp, TableMemoryIsReportedAfterUse) {
  const SchnorrGroup& grp = SchnorrGroup::test_512();
  crypto::ChaChaRng rng("multi-exp/memory");
  (void)grp.exp_g(grp.random_scalar(rng));  // forces generator tables
  // 3 generator tables, 40 windows x 15 entries x 64 bytes each = ~115 KB.
  std::size_t bytes = grp.fixed_base_memory_bytes();
  EXPECT_GT(bytes, 3u * 40u * 15u * 32u);
  EXPECT_LT(bytes, 3u * 40u * 15u * 128u);
}

TEST(MultiExp, DegenerateBatchInputs) {
  // Degenerate shapes must match the plain ladder exactly: zero
  // exponents, identity bases, and mixes of both must contribute nothing
  // to the product.
  const SchnorrGroup& grp = SchnorrGroup::test_256();
  crypto::ChaChaRng rng("multi-exp/degenerate");
  BigInt base = bn::random_below(rng, grp.p() - BigInt{1}) + BigInt{1};
  BigInt e = grp.random_scalar(rng);
  // Empty batch -> 1.
  EXPECT_EQ(grp.multi_exp({}, {}), BigInt{1});
  // All-zero exponents -> 1 regardless of bases.
  std::vector<BigInt> bases{base, grp.g1(), grp.g2()};
  std::vector<BigInt> zeros{BigInt{0}, BigInt{0}, BigInt{0}};
  EXPECT_EQ(grp.multi_exp(bases, zeros), BigInt{1});
  // Identity bases contribute nothing under any exponent.
  std::vector<BigInt> ones{BigInt{1}, BigInt{1}};
  std::vector<BigInt> exps{e, grp.random_scalar(rng)};
  EXPECT_EQ(grp.multi_exp(ones, exps), BigInt{1});
  // A mix: only the live term shows through.
  std::vector<BigInt> mixed_bases{BigInt{1}, base, grp.g1()};
  std::vector<BigInt> mixed_exps{e, e, BigInt{0}};
  EXPECT_EQ(grp.multi_exp(mixed_bases, mixed_exps), grp.exp(base, e));
}

TEST(MultiExp, SingleElementBatchMatchesPlainLadderExactly) {
  // A batch of one must produce byte-for-byte the plain ladder's result
  // (same canonical residue) for loose bases, generators and edge
  // exponents alike.
  const SchnorrGroup& grp = SchnorrGroup::test_512();
  crypto::ChaChaRng rng("multi-exp/single");
  auto canonical = [](const BigInt& v) {
    wire::Writer w;
    w.put_bigint(v);
    return w.take();
  };
  for (int i = 0; i < 10; ++i) {
    BigInt base = bn::random_below(rng, grp.p() - BigInt{1}) + BigInt{1};
    BigInt e = i == 0 ? BigInt{0} : grp.random_scalar(rng);
    BigInt batched = grp.multi_exp({&base, 1}, {&e, 1});
    ScopedDisableFastExp off;
    BigInt plain = grp.exp(base, e);
    ASSERT_EQ(canonical(batched), canonical(plain)) << "draw " << i;
  }
}

// --- Table 1 invariance: fast paths must not move any op count ----------

metrics::OpCounters run_protocol_ops(const SchnorrGroup& grp,
                                     std::string_view seed) {
  crypto::ChaChaRng rng(seed);
  metrics::OpCounters ops;
  metrics::ScopedOpCounting guard(ops);

  // NIZK representation proof round trip (3 + 2 Exp verify paths).
  auto secret = nizk::CoinSecret::random(grp, rng);
  auto comm = nizk::commit(grp, secret);
  BigInt d = grp.random_scalar(rng);
  auto resp = nizk::respond(grp, secret, d);
  EXPECT_TRUE(nizk::verify_response(grp, comm, d, resp));

  // Schnorr signature sign + verify.
  auto kp = sig::KeyPair::generate(grp, rng);
  std::vector<std::uint8_t> msg{1, 2, 3};
  auto signature = kp.sign(msg, rng);
  EXPECT_TRUE(sig::verify(grp, kp.public_key(), msg, signature));

  // Abe–Okamoto blind signature issue + verify.
  BigInt x = grp.random_scalar(rng);
  blindsig::BlindSigner signer(grp, x);
  std::vector<std::uint8_t> info{9, 9};
  auto session = signer.start(info, rng);
  blindsig::BlindRequester requester(grp, signer.public_y(), info, msg);
  BigInt e = requester.challenge(session.first, rng);
  auto sresp = signer.respond(session, e);
  auto bsig = requester.unblind(sresp);
  EXPECT_TRUE(blindsig::verify(grp, signer.public_y(), info, msg, bsig));
  EXPECT_TRUE(blindsig::verify_with_secret(grp, x, info, msg, bsig));

  return ops;
}

TEST(MultiExp, OpCountersIdenticalWithFastPathsOnAndOff) {
  // The same deterministic protocol run must report identical Exp/Hash/
  // Sig/Ver counts whether exponentiations are served by tables, Straus
  // ladders, or the plain ladder: Table 1 counts logical ops, not
  // implementation details.
  const SchnorrGroup& grp = SchnorrGroup::test_256();
  metrics::OpCounters fast = run_protocol_ops(grp, "multi-exp/invariance");
  metrics::OpCounters plain;
  {
    ScopedDisableFastExp off;
    plain = run_protocol_ops(grp, "multi-exp/invariance");
  }
  EXPECT_EQ(fast, plain);
  EXPECT_GT(fast.exp, 0u);
  EXPECT_GT(fast.hash, 0u);
  EXPECT_EQ(fast.sig, 1u);
  EXPECT_EQ(fast.ver, 1u);
}

}  // namespace
}  // namespace p2pcash
