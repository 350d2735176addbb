// Representation commitments, the payment NIZK, and double-spend
// extraction (paper §6, footnote 4).

#include "nizk/representation.h"

#include <gtest/gtest.h>

#include "crypto/chacha.h"

namespace p2pcash::nizk {
namespace {

using bn::BigInt;

const group::SchnorrGroup& grp() { return group::SchnorrGroup::test_256(); }

TEST(Nizk, RespondVerifyRoundTrip) {
  crypto::ChaChaRng rng("nizk-rt");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), secret, d);
  EXPECT_TRUE(verify_response(grp(), comm, d, resp));
}

TEST(Nizk, WrongChallengeFails) {
  crypto::ChaChaRng rng("nizk-d");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), secret, d);
  BigInt d2 = bn::mod(d + BigInt{1}, grp().q());
  EXPECT_FALSE(verify_response(grp(), comm, d2, resp));
}

TEST(Nizk, ForeignSecretFails) {
  crypto::ChaChaRng rng("nizk-foreign");
  auto secret = CoinSecret::random(grp(), rng);
  auto other = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), other, d);  // right algebra, wrong secrets
  EXPECT_FALSE(verify_response(grp(), comm, d, resp));
}

TEST(Nizk, TamperedResponseFails) {
  crypto::ChaChaRng rng("nizk-tamper");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), secret, d);
  auto bad1 = resp;
  bad1.r1 = bn::mod(bad1.r1 + BigInt{1}, grp().q());
  EXPECT_FALSE(verify_response(grp(), comm, d, bad1));
  auto bad2 = resp;
  bad2.r2 = bn::mod(bad2.r2 + BigInt{1}, grp().q());
  EXPECT_FALSE(verify_response(grp(), comm, d, bad2));
}

TEST(Nizk, OutOfRangeResponseRejected) {
  crypto::ChaChaRng rng("nizk-range");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), secret, d);
  auto oversized = resp;
  oversized.r1 = oversized.r1 + grp().q();
  EXPECT_FALSE(verify_response(grp(), comm, d, oversized));
  auto negative = resp;
  negative.r2 = BigInt{0} - BigInt{1};
  EXPECT_FALSE(verify_response(grp(), comm, d, negative));
}

TEST(Nizk, ExtractionRecoversExactSecrets) {
  crypto::ChaChaRng rng("nizk-extract");
  auto secret = CoinSecret::random(grp(), rng);
  BigInt d1 = grp().random_scalar(rng);
  BigInt d2 = grp().random_scalar(rng);
  ASSERT_NE(d1, d2);
  ChallengeResponse cr1{d1, respond(grp(), secret, d1)};
  ChallengeResponse cr2{d2, respond(grp(), secret, d2)};
  auto extracted = extract(grp(), cr1, cr2);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->of_a.e1, secret.x1);
  EXPECT_EQ(extracted->of_a.e2, secret.x2);
  EXPECT_EQ(extracted->of_b.e1, secret.y1);
  EXPECT_EQ(extracted->of_b.e2, secret.y2);
}

TEST(Nizk, ExtractedRepresentationsVerify) {
  crypto::ChaChaRng rng("nizk-exrep");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d1 = grp().random_scalar(rng);
  BigInt d2 = bn::mod(d1 + BigInt{7}, grp().q());
  auto extracted = extract(grp(), {d1, respond(grp(), secret, d1)},
                           {d2, respond(grp(), secret, d2)});
  ASSERT_TRUE(extracted.has_value());
  EXPECT_TRUE(verify_representation(grp(), comm.a, extracted->of_a));
  EXPECT_TRUE(verify_representation(grp(), comm.b, extracted->of_b));
  // And a wrong commitment does not verify.
  EXPECT_FALSE(verify_representation(grp(), comm.b, extracted->of_a));
}

TEST(Nizk, SameChallengeExtractsNothing) {
  crypto::ChaChaRng rng("nizk-same");
  auto secret = CoinSecret::random(grp(), rng);
  BigInt d = grp().random_scalar(rng);
  ChallengeResponse cr{d, respond(grp(), secret, d)};
  EXPECT_FALSE(extract(grp(), cr, cr).has_value());
}

TEST(Nizk, SingleTranscriptRevealsNothingCheckable) {
  // A single (d, r1, r2) gives one linear equation in four unknowns; any
  // guessed representation consistent with it still fails against A and B.
  crypto::ChaChaRng rng("nizk-one");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d = grp().random_scalar(rng);
  auto resp = respond(grp(), secret, d);
  // Adversary guesses y1', derives the rest to satisfy the equation — the
  // derived tuple must not open A (that would break the representation
  // problem).
  BigInt fake_y1 = grp().random_scalar(rng);
  Representation fake_a{bn::mod_sub(resp.r1, bn::mod_mul(d, fake_y1, grp().q()),
                                    grp().q()),
                        grp().random_scalar(rng)};
  EXPECT_FALSE(verify_representation(grp(), comm.a, fake_a));
}

TEST(Nizk, CommitmentsDependOnAllFourSecrets) {
  crypto::ChaChaRng rng("nizk-dep");
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  for (int i = 0; i < 4; ++i) {
    auto mutated = secret;
    BigInt* field = i == 0   ? &mutated.x1
                    : i == 1 ? &mutated.x2
                    : i == 2 ? &mutated.y1
                             : &mutated.y2;
    *field = bn::mod(*field + BigInt{1}, grp().q());
    auto comm2 = commit(grp(), mutated);
    EXPECT_TRUE(comm2.a != comm.a || comm2.b != comm.b) << i;
  }
}

class NizkSweep : public ::testing::TestWithParam<int> {};

TEST_P(NizkSweep, ExtractionAlwaysWorks) {
  crypto::ChaChaRng rng("nizk-sweep-" + std::to_string(GetParam()));
  auto secret = CoinSecret::random(grp(), rng);
  auto comm = commit(grp(), secret);
  BigInt d1 = grp().random_scalar(rng);
  BigInt d2 = grp().random_scalar(rng);
  if (d1 == d2) return;
  auto extracted = extract(grp(), {d1, respond(grp(), secret, d1)},
                           {d2, respond(grp(), secret, d2)});
  ASSERT_TRUE(extracted.has_value());
  EXPECT_TRUE(verify_representation(grp(), comm.a, extracted->of_a));
  EXPECT_TRUE(verify_representation(grp(), comm.b, extracted->of_b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, NizkSweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace p2pcash::nizk
